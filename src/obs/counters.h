#ifndef SMI_OBS_COUNTERS_H
#define SMI_OBS_COUNTERS_H

/// \file counters.h
/// Hardware-profiling counter blocks for the simulated fabric — the analogue
/// of the profiling counters FPGA collective stacks expose to explain where
/// cycles go (per-FIFO stalls, CK polling behaviour, link utilization,
/// kernel activity). Design constraints:
///
///  1. *Near-zero overhead when disabled.* Instrumented entities hold a
///     plain pointer to their counter block, null unless the engine was
///     configured with `collect_counters`/`collect_trace`; every site is a
///     single null check on the hot path.
///  2. *Bit-identical across schedulers.* Counters fall into two classes:
///     - *event counters* (pushes, forwards, arbiter hits, deliveries,
///       kernel resumes) increment at action sites, and actions are
///       bit-identical across schedulers by the engine's exactness
///       guarantee;
///     - *duration counters* (FIFO full/empty cycles, link credit stalls,
///       arbiter polls) are accounted as *spans* over intervals where the
///       relevant committed state is provably constant. The event-driven
///       scheduler only revisits an entity when that state can change, so
///       closing the open span at each visit yields the same totals as the
///       synchronous scheduler's per-cycle accounting.
///  3. *Parallel-overshoot trim.* Under the parallel scheduler, partitions
///     overshoot the global completion cycle inside the final epoch. Every
///     counter update made while a `Journal` is active is logged with its
///     cycle stamp; at the final barrier the engine replays the journal
///     backwards, undoing updates at cycles >= the merged finish cycle —
///     the same mechanism every serial link uses for its own delivery and
///     protocol counters (sim/serial_link.h), split or not. Journals are
///     cleared at every epoch barrier (only final-epoch entries can ever
///     need trimming), and each journal is written by exactly one worker
///     thread (entities are partition-disjoint; split links use one
///     journal per half).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"

namespace smi::obs {

using sim::Cycle;

/// Undo log for counter updates made during a parallel epoch. Inactive (and
/// empty) under the sequential schedulers.
class Journal {
 public:
  void set_active(bool on) {
    active_ = on;
    if (!on) entries_.clear();
  }
  bool active() const { return active_; }
  void Clear() { entries_.clear(); }

  /// `counter += delta` happened at `cycle`.
  void Add(std::uint64_t* counter, Cycle cycle, std::uint64_t delta) {
    if (active_) entries_.push_back(Entry{Kind::kAdd, counter, cycle, delta});
  }
  /// `counter` accumulated one unit per cycle over [from, to).
  void Span(std::uint64_t* counter, Cycle from, Cycle to) {
    if (active_) entries_.push_back(Entry{Kind::kSpan, counter, from, to});
  }
  /// `counter` was overwritten at `cycle`; `old_value` restores it.
  void Restore(std::uint64_t* counter, Cycle cycle, std::uint64_t old_value) {
    if (active_) {
      entries_.push_back(Entry{Kind::kRestore, counter, cycle, old_value});
    }
  }

  /// Undo every logged update attributable to cycles >= `cycle`, newest
  /// first (so Restore entries land on the oldest surviving value), then
  /// drop the log.
  void TrimAtOrAfter(Cycle cycle) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      switch (it->kind) {
        case Kind::kAdd:
          if (it->a >= cycle) *it->counter -= it->b;
          break;
        case Kind::kSpan:
          if (it->b > cycle) {
            *it->counter -= it->b - (it->a > cycle ? it->a : cycle);
          }
          break;
        case Kind::kRestore:
          if (it->a >= cycle) *it->counter = it->b;
          break;
      }
    }
    entries_.clear();
  }

 private:
  enum class Kind : std::uint8_t { kAdd, kSpan, kRestore };
  struct Entry {
    Kind kind;
    std::uint64_t* counter;
    Cycle a;          ///< kAdd/kRestore: cycle stamp; kSpan: interval start
    std::uint64_t b;  ///< kAdd: delta; kSpan: interval end; kRestore: old value
  };
  bool active_ = false;
  std::vector<Entry> entries_;
};

/// Per-FIFO counters: traffic, occupancy high-water mark and full/empty
/// stall cycles. Spans are closed at each commit using the state the
/// *previous* commit established (committed FIFO state is constant between
/// commits, and the event-driven scheduler commits exactly when it changes).
struct FifoCounters {
  std::string name;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t high_water = 0;          ///< max committed occupancy
  std::uint64_t full_stall_cycles = 0;   ///< cycles committed-full (pushers stall)
  std::uint64_t empty_cycles = 0;        ///< cycles committed-empty (poppers stall)
  Journal journal;

  void OnPush(Cycle now) {
    ++pushes;
    journal.Add(&pushes, now, 1);
  }
  void OnPop(Cycle now) {
    ++pops;
    journal.Add(&pops, now, 1);
  }
  /// Bulk transfer at a modeled flow wake: `n` pushes/pops stamped `now`.
  void OnPushBulk(Cycle now, std::uint64_t n) {
    pushes += n;
    journal.Add(&pushes, now, n);
  }
  void OnPopBulk(Cycle now, std::uint64_t n) {
    pops += n;
    journal.Add(&pops, now, n);
  }
  /// Called at each FIFO commit with the newly committed occupancy. The
  /// committed state set at cycle `now` is observed from cycle `now + 1`.
  void OnCommit(Cycle now, std::size_t occupancy, std::size_t capacity) {
    CloseSpan(now + 1);
    if (occupancy > high_water) {
      journal.Restore(&high_water, now, high_water);
      high_water = occupancy;
    }
    full_ = occupancy >= capacity;
    empty_ = occupancy == 0;
  }
  /// Flush the trailing span at end of run (`total` = total cycles).
  void Finalize(Cycle total) { CloseSpan(total); }

 private:
  void CloseSpan(Cycle to) {
    if (to <= span_from_) return;
    if (full_) {
      full_stall_cycles += to - span_from_;
      journal.Span(&full_stall_cycles, span_from_, to);
    }
    if (empty_) {
      empty_cycles += to - span_from_;
      journal.Span(&empty_cycles, span_from_, to);
    }
    span_from_ = to;
  }
  Cycle span_from_ = 0;
  bool full_ = false;
  bool empty_ = true;  // a fresh FIFO is committed-empty from cycle 0
};

/// Per-CK (CKS or CKR) counters: R-polling behaviour and forwarded packets
/// broken down by wire op. Poll accounting uses a watermark: `Select(now)`
/// covers all cycles up to `now` (the arbiter replays idle gaps), so the
/// poll count over [polls_from_, now + 1) is added in bulk and the tail up
/// to the finish cycle is flushed at Finalize — exactly the per-cycle polls
/// the synchronous scheduler performs. Stalled retries the engine slept
/// through are added the same way, as spans of hits and stalls.
struct CkCounters {
  std::string name;
  std::uint64_t forwarded_by_op[3] = {0, 0, 0};  ///< kData, kSync, kCredit
  std::uint64_t polls = 0;   ///< connections examined (incl. empty polls)
  std::uint64_t hits = 0;    ///< polls that found a poppable packet
  std::uint64_t bursts = 0;  ///< burst starts (first serviced packet of a burst)
  std::uint64_t stalls = 0;  ///< cycles holding a packet with a full output
  // In-network handler activity (transport/handler.h): packets merged away
  // by reduce-in-transit (CKS), fan-out copies injected (CKR), and packets
  // dropped by the count/filter handler (CKS). Zero on handler-free fabrics.
  std::uint64_t handler_combined = 0;
  std::uint64_t handler_splits = 0;
  std::uint64_t handler_filtered = 0;
  Journal journal;

  void OnForward(int op, Cycle now) {
    if (op < 0 || op > 2) return;  // unknown wire op: not counted
    ++forwarded_by_op[op];
    journal.Add(&forwarded_by_op[op], now, 1);
  }
  void OnHandlerCombine(Cycle now) {
    ++handler_combined;
    journal.Add(&handler_combined, now, 1);
  }
  void OnHandlerSplit(Cycle now) {
    ++handler_splits;
    journal.Add(&handler_splits, now, 1);
  }
  void OnHandlerFiltered(Cycle now) {
    ++handler_filtered;
    journal.Add(&handler_filtered, now, 1);
  }
  void CountPollsTo(Cycle to) {
    polled_ = true;
    if (to <= polls_from_) return;
    polls += to - polls_from_;
    journal.Span(&polls, polls_from_, to);
    polls_from_ = to;
  }
  void OnHit(Cycle now) {
    ++hits;
    journal.Add(&hits, now, 1);
  }
  void OnBurstStart(Cycle now) {
    ++bursts;
    journal.Add(&bursts, now, 1);
  }
  /// A stall at `now`: the CK holds its latched packet, and until EndStall
  /// every cycle is a retry of it (a hit and a stall).
  void OnStall(Cycle now) {
    ++stalls;
    journal.Add(&stalls, now, 1);
    retry_from_ = now + 1;
    retrying_ = true;
  }
  /// The retries end at `to`: count those in [retry_from_, to) that the
  /// event-driven engine slept through instead of stepping.
  void EndStall(Cycle to) {
    CountRetriesTo(to);
    retrying_ = false;
  }
  void Finalize(Cycle total) {
    // An idle CK is still polled every cycle by the synchronous scheduler;
    // flush the trailing idle gap (no-op if the arbiter never polled, i.e.
    // it has no inputs and never examines anything). Likewise a stalled CK
    // retries every cycle up to the end.
    if (polled_) CountPollsTo(total);
    CountRetriesTo(total);
  }

 private:
  void CountRetriesTo(Cycle to) {
    if (!retrying_ || to <= retry_from_) return;
    hits += to - retry_from_;
    journal.Span(&hits, retry_from_, to);
    stalls += to - retry_from_;
    journal.Span(&stalls, retry_from_, to);
    retry_from_ = to;
  }

  Cycle polls_from_ = 0;
  bool polled_ = false;
  Cycle retry_from_ = 0;
  bool retrying_ = false;
};

/// Per-link fidelity-mode counters (see sim/fidelity.h). Owned by the
/// FlowLink itself — they are meaningful without the recorder — and exposed
/// through LinkCounters::fidelity when telemetry is enabled. Not journaled:
/// fidelity transitions never happen inside parallel epochs (the engine pins
/// every FlowLink to cycle accuracy for the whole parallel run and the
/// counters are frozen while pinned).
struct FidelityCounters {
  std::uint64_t stepped_cycles = 0;  ///< cycle-accurate Step invocations
  std::uint64_t modeled_cycles = 0;  ///< cycles covered by modeled wakes
  std::uint64_t promotions = 0;      ///< cycle -> flow transitions
  std::uint64_t demotions_congestion = 0;  ///< RX backpressure at a wake
  std::uint64_t demotions_drain = 0;       ///< TX ran dry at a wake
  std::uint64_t demotions_sync = 0;        ///< collective sync point
  std::uint64_t demotions_forced = 0;      ///< pinned by a parallel run
  std::uint64_t thrash_warnings = 0;       ///< thrash-limit warnings emitted

  std::uint64_t demotions() const {
    return demotions_congestion + demotions_drain + demotions_sync +
           demotions_forced;
  }
  /// Fraction of link-observed cycles covered by the flow model.
  double modeled_fraction() const {
    const std::uint64_t total = stepped_cycles + modeled_cycles;
    return total == 0 ? 0.0
                      : static_cast<double>(modeled_cycles) /
                            static_cast<double>(total);
  }
};

/// Per-link protocol counters. Owned by the serial link itself (see
/// sim/serial_link.h) — they are meaningful without the recorder — and
/// exposed through LinkCounters::reliability when telemetry is enabled. The
/// link journals them per half, so they trim like every other counter.
/// Lossless links count only `delivered`; the rest stay 0.
struct ReliabilityCounters {
  std::uint64_t frames_sent = 0;       ///< wire entries, new + retransmit
  std::uint64_t retransmits = 0;       ///< frames re-entered the wire (TX)
  std::uint64_t timeouts = 0;          ///< retransmission timer fired (TX)
  std::uint64_t wire_drops = 0;        ///< frames lost to faults (TX entry)
  std::uint64_t wire_corruptions = 0;  ///< frames corrupted by faults (TX entry)
  std::uint64_t checksum_failures = 0; ///< corrupted frames caught (RX)
  std::uint64_t seq_discards = 0;      ///< duplicate/out-of-order frames (RX)
  std::uint64_t acks_sent = 0;         ///< cumulative acks sent (RX)
  std::uint64_t acks_dropped = 0;      ///< acks lost/corrupted by faults (RX)
  std::uint64_t delivered = 0;         ///< payloads pushed into the RX FIFO
  std::uint64_t recovered = 0;         ///< payloads handed back at failover
};

/// Per-link counters: utilization (delivery cycles) on the receiver side and
/// credit-window stalls on the sender side. The two sides run on different
/// worker threads when the link is split, so each owns a journal. Credit
/// stalls are span-accounted: the stall state computed during a Step holds
/// for every skipped cycle until the next Step (the wake contract guarantees
/// a step at every cycle the state could change).
struct LinkCounters {
  std::string name;
  Cycle latency = 0;
  std::uint64_t busy_cycles = 0;          ///< cycles a payload was delivered
  std::uint64_t credit_stall_cycles = 0;  ///< TX had data, credit window full
  Journal rx_journal;
  Journal tx_journal;
  /// The link's own protocol counters; set by the link at attach time,
  /// exported in CountersJson (all zero while null).
  const ReliabilityCounters* reliability = nullptr;
  /// Fidelity-mode counters of a FlowLink (null under kCycle fidelity); set
  /// by the link at attach time, exported under "fidelity" in CountersJson.
  const FidelityCounters* fidelity = nullptr;
  bool trace = false;
  std::vector<Cycle> deliveries;  ///< delivery cycles (packet-hop timeline)

  /// `n` payloads delivered at cycle `now` (n > 1 at a modeled flow wake).
  void OnDeliver(Cycle now, std::uint64_t n = 1) {
    busy_cycles += n;
    rx_journal.Add(&busy_cycles, now, n);
    if (trace) {
      deliveries.insert(deliveries.end(), static_cast<std::size_t>(n), now);
    }
  }
  /// Called once per sender-side step with this cycle's stall state; closes
  /// the span [tx_from_, now) carried by the previous state.
  void OnTxCycle(Cycle now, bool stalled) {
    if (tx_stall_ && now > tx_from_) {
      credit_stall_cycles += now - tx_from_;
      tx_journal.Span(&credit_stall_cycles, tx_from_, now);
    }
    tx_stall_ = stalled;
    tx_from_ = now;
  }
  void Finalize(Cycle total) {
    if (tx_stall_ && total > tx_from_) {
      credit_stall_cycles += total - tx_from_;
      tx_journal.Span(&credit_stall_cycles, tx_from_, total);
    }
    tx_stall_ = false;
    tx_from_ = total;
  }
  void TrimTraceAtOrAfter(Cycle cycle) {
    while (!deliveries.empty() && deliveries.back() >= cycle) {
      deliveries.pop_back();
    }
  }

 private:
  Cycle tx_from_ = 0;
  bool tx_stall_ = false;
};

/// Per-kernel counters and activity intervals. A kernel is *active* on every
/// cycle it resumes (at most one resume per cycle); consecutive active
/// cycles coalesce into one trace interval. `blocked` cycles are derived at
/// export time as lifetime - active.
struct KernelProbe {
  std::string name;
  std::uint64_t resumes = 0;
  std::uint64_t done_cycle_p1 = 0;  ///< (cycle the kernel finished) + 1; 0 = ran to end
  Journal journal;
  bool trace = false;
  std::vector<std::pair<Cycle, Cycle>> intervals;  ///< [start, end) active spans

  void OnResume(Cycle now) {
    ++resumes;
    journal.Add(&resumes, now, 1);
    if (!trace) return;
    if (open_ && now == open_end_) {
      ++open_end_;
    } else {
      if (open_) intervals.emplace_back(open_start_, open_end_);
      open_ = true;
      open_start_ = now;
      open_end_ = now + 1;
    }
  }
  void OnDone(Cycle now) {
    journal.Restore(&done_cycle_p1, now, done_cycle_p1);
    done_cycle_p1 = now + 1;
  }
  void Finalize(Cycle /*total*/) {
    if (open_) {
      intervals.emplace_back(open_start_, open_end_);
      open_ = false;
    }
  }
  void TrimTraceAtOrAfter(Cycle cycle) {
    if (open_) {
      if (open_start_ >= cycle) {
        open_ = false;
      } else if (open_end_ > cycle) {
        open_end_ = cycle;
      }
    }
    while (!intervals.empty() && intervals.back().first >= cycle) {
      intervals.pop_back();
    }
    if (!intervals.empty() && intervals.back().second > cycle) {
      intervals.back().second = cycle;
    }
  }

 private:
  bool open_ = false;
  Cycle open_start_ = 0;
  Cycle open_end_ = 0;
};

}  // namespace smi::obs

#endif  // SMI_OBS_COUNTERS_H
