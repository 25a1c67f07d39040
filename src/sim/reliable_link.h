#ifndef SMI_SIM_RELIABLE_LINK_H
#define SMI_SIM_RELIABLE_LINK_H

/// \file reliable_link.h
/// Serial link with an explicit link-level reliability protocol, for fabrics
/// whose transceivers do *not* hide error handling in the BSP shell (the
/// lossless `FlowLink` models the paper's Nallatech boards, where they do).
///
/// Protocol: go-back-N.
///  * Every frame carries a sequence number and an FNV-1a checksum computed
///    over the payload's wire image before it enters the (lossy) medium.
///  * The sender keeps up to `window` unacknowledged frames; the window
///    replaces the lossless link's credit window as the flow-control bound.
///  * The receiver accepts exactly the next expected sequence number into a
///    window-deep receive buffer and answers every arriving frame with a
///    cumulative acknowledgement (the next expected sequence number) on a
///    reverse channel with the same wire latency. Corrupted frames (the
///    checksum is computed over the original image, so any wire corruption
///    is detected) and out-of-sequence frames are discarded and re-acked.
///    When the receive buffer is full the receiver withholds the ack —
///    back-pressure degrades into retransmissions if it persists beyond the
///    timeout, like a real lossy link without end-to-end flow control.
///  * A retransmission timer covers the oldest unacknowledged frame; on
///    expiry the sender replays the whole window (one frame per cycle) and
///    backs the timeout off exponentially up to `backoff_cap` doublings.
///    `retry_budget` consecutive fruitless timeout rounds declare the link
///    permanently dead: the sender half freezes and reports the death to the
///    `LinkDeathSink` (the transport fabric), which later quiesces the link
///    and recovers the undelivered payloads (`TakeUndelivered`) for
///    re-injection over surviving routes. The receiver half keeps delivering
///    frames already in flight until that failover — required for scheduler
///    bit-identity, since under the parallel scheduler the receiver cannot
///    learn of the death before the next epoch barrier anyway.
///
/// Determinism: fault decisions are pure functions of (seed, cycle, channel)
/// — see link_fault.h — and both directions of the wire are latency-delayed,
/// so a split epoch no longer than the latency cannot observe anything the
/// fused link would not; `ExchangeAtBarrier` therefore returns the full
/// latency as slack. Unlike the lossless link there is no instantaneous
/// credit channel and hence no barrier-time delivery prediction.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.h"
#include "sim/clock.h"
#include "sim/component.h"
#include "sim/fifo.h"
#include "sim/link_fault.h"

namespace smi::sim {

struct ReliableLinkConfig {
  Cycle latency = 105;            ///< pipeline depth, cycles (per direction)
  std::size_t window = 0;         ///< go-back-N window; 0 = 2 * (latency + 1)
  Cycle rto = 0;                  ///< base retransmission timeout; 0 = 4 * (latency + 1)
  int backoff_cap = 6;            ///< max exponential backoff doublings
  std::uint64_t retry_budget = 0; ///< fruitless timeout rounds before death; 0 = never
};

template <typename T>
class ReliableLink final : public Component, public CutLink {
 public:
  /// Counters surfaced in the fault report. Kept bit-identical across
  /// schedulers via the per-side event logs (see TrimDeliveriesAtOrAfter).
  struct Stats {
    std::uint64_t frames_sent = 0;       ///< wire entries, new + retransmit
    std::uint64_t retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t wire_drops = 0;        ///< frames lost to injected faults
    std::uint64_t wire_corruptions = 0;  ///< frames corrupted by faults
    std::uint64_t checksum_failures = 0; ///< corruptions caught at RX
    std::uint64_t seq_discards = 0;      ///< duplicate/out-of-order frames
    std::uint64_t acks_sent = 0;
    std::uint64_t acks_dropped = 0;      ///< acks lost/corrupted by faults
    std::uint64_t delivered = 0;
    std::uint64_t recovered = 0;         ///< payloads handed back at failover
  };

  ReliableLink(std::string name, Fifo<T>& tx, Fifo<T>& rx,
               ReliableLinkConfig config)
      : Component(std::move(name)),
        tx_(&tx),
        rx_(&rx),
        latency_(std::max<Cycle>(config.latency, 1)),
        window_(config.window != 0 ? config.window
                                   : 2 * (static_cast<std::size_t>(latency_) + 1)),
        rto_(config.rto != 0 ? config.rto : 4 * (latency_ + 1)),
        backoff_cap_(std::clamp(config.backoff_cap, 0, 32)),
        retry_budget_(config.retry_budget) {}

  void set_fault_hook(LinkFaultHook* hook) { hook_ = hook; }
  void set_death_sink(LinkDeathSink* sink, std::size_t link_id) {
    sink_ = sink;
    link_id_ = link_id;
  }

  void Step(Cycle now) override {
    if (fully_dead_) return;
    StepRxImpl(now);
    if (!dead_) StepTxImpl(now);
  }

  void DeclareWakeFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(tx_);
    out.push_back(rx_);
  }
  Cycle NextSelfWake(Cycle now) const override {
    return std::min(NextTxSelfWake(now), NextRxSelfWake(now));
  }

  std::uint64_t delivered() const { return delivered_; }
  Cycle latency() const { return latency_; }
  std::size_t window() const { return window_; }
  const Stats& stats() const { return stats_; }
  bool dead() const { return dead_ || fully_dead_; }
  Cycle dead_cycle() const { return dead_cycle_; }

  /// Failover support (called by the fabric from a global event, never from
  /// a Step): the payloads not yet delivered to the RX FIFO, in stream order
  /// — receiver-buffered frames first, then unacknowledged window frames
  /// from the receiver's next expected sequence on. Frames below the
  /// expected sequence were already received and would be duplicates.
  std::vector<T> TakeUndelivered() {
    std::vector<T> out;
    out.reserve(rx_pending_.size() + send_window_.size());
    for (T& p : rx_pending_) out.push_back(std::move(p));
    rx_pending_.clear();
    for (Frame& f : send_window_) {
      if (f.seq >= expected_seq_) out.push_back(std::move(f.payload));
    }
    send_window_.clear();
    stats_.recovered += out.size();
    return out;
  }

  /// Final shutdown at failover: drop everything in flight and freeze both
  /// halves. Call after TakeUndelivered.
  void Quiesce() {
    fwd_wire_.clear();
    ack_wire_.clear();
    staging_fwd_.clear();
    staging_ack_.clear();
    send_window_.clear();
    rx_pending_.clear();
    fully_dead_ = true;
  }

  void AttachObservability(obs::Recorder& recorder) override {
    obs_ = recorder.AddLink(name(), latency_);
  }

  // --- CutLink implementation (parallel scheduler; see component.h) ------

  Cycle link_latency() const override { return latency_; }

  void BeginSplit() override {
    split_ = true;
    staging_fwd_.clear();
    staging_ack_.clear();
  }

  void EndSplit() override {
    for (Frame& f : staging_fwd_) fwd_wire_.push_back(std::move(f));
    staging_fwd_.clear();
    for (AckSlot& a : staging_ack_) ack_wire_.push_back(a);
    staging_ack_.clear();
    split_ = false;
  }

  void StepTx(Cycle now) override {
    if (dead_ || fully_dead_) return;
    StepTxImpl(now);
  }
  void StepRx(Cycle now) override {
    if (fully_dead_) return;
    StepRxImpl(now);
  }

  Cycle ExchangeAtBarrier(Cycle /*epoch_start*/) override {
    for (Frame& f : staging_fwd_) fwd_wire_.push_back(std::move(f));
    staging_fwd_.clear();
    for (AckSlot& a : staging_ack_) ack_wire_.push_back(a);
    staging_ack_.clear();
    tx_log_.clear();
    rx_log_.clear();
    // Both directions are latency-delayed and there is no instantaneous
    // credit channel, so any epoch no longer than the latency is exact.
    return latency_;
  }

  void BeginParallelRun() override {
    logging_ = true;
    tx_log_.clear();
    rx_log_.clear();
  }
  void EndParallelRun() override {
    logging_ = false;
    tx_log_.clear();
    rx_log_.clear();
  }
  void OnUnsplitBarrier(Cycle /*epoch_start*/) override {
    tx_log_.clear();
    rx_log_.clear();
  }

  void TrimDeliveriesAtOrAfter(Cycle cycle) override {
    while (!tx_log_.empty() && tx_log_.back().cycle >= cycle) {
      Undo(tx_log_.back().kind);
      tx_log_.pop_back();
    }
    while (!rx_log_.empty() && rx_log_.back().cycle >= cycle) {
      Undo(rx_log_.back().kind);
      rx_log_.pop_back();
    }
  }

  const FifoBase* tx_wake_fifo() const override { return tx_; }
  const FifoBase* rx_wake_fifo() const override { return rx_; }

  Cycle NextRxSelfWake(Cycle now) const override {
    if (fully_dead_) return kNeverCycle;
    // A buffered payload with RX FIFO space drains on the next cycle even
    // when the wire is empty (accepting a frame into the buffer is not FIFO
    // activity, so nothing else would wake us); with the FIFO full, the
    // consumer's pop is the wake. The remaining timed events are the wire
    // head maturing and the frame-per-cycle drain of a matured backlog.
    if (!rx_pending_.empty() && rx_->CanPush(now)) return now + 1;
    if (fwd_wire_.empty()) return kNeverCycle;
    const Frame& head = fwd_wire_.front();
    if (head.ready_at > now) return head.ready_at;
    // Matured head left unconsumed: if it is acceptable but the receive
    // buffer is full, only RX FIFO activity can unblock it; if it is
    // garbage (bad checksum or out of sequence) it will be discarded on the
    // next step regardless of buffer space.
    if (rx_pending_.size() < window_) return now + 1;
    const bool discardable =
        WireChecksum(head.payload) != head.checksum || head.seq != expected_seq_;
    return discardable ? now + 1 : kNeverCycle;
  }

  Cycle NextTxSelfWake(Cycle now) const override {
    if (dead_ || fully_dead_) return kNeverCycle;
    Cycle wake = kNeverCycle;
    if (!ack_wire_.empty()) {
      wake = std::min(wake, std::max(ack_wire_.front().ready_at, now + 1));
    }
    const bool replay = retx_next_seq_ < retx_end_seq_;
    if (replay) {
      wake = std::min(wake, now + 1);
    } else if (!send_window_.empty()) {
      wake = std::min(wake, std::max(rto_deadline_, now + 1));
    }
    if (!replay && send_window_.size() < window_ && tx_->occupancy() > 0) {
      wake = std::min(wake, now + 1);
    }
    return wake;
  }

 private:
  struct Frame {
    T payload;
    std::uint64_t seq = 0;
    std::uint32_t checksum = 0;
    Cycle ready_at = 0;
  };
  struct AckSlot {
    std::uint64_t ack;
    Cycle ready_at;
  };

  /// Cycle-stamped event log for the parallel scheduler's overshoot trim;
  /// recording is enabled only between BeginParallelRun/EndParallelRun.
  enum class Ev : std::uint8_t {
    kFrameSent,
    kRetransmit,
    kTimeout,
    kWireDrop,
    kWireCorrupt,
    kDeath,
    kChecksumFail,
    kSeqDiscard,
    kAckSent,
    kAckDropped,
    kDeliver,
  };
  struct Event {
    Cycle cycle;
    Ev kind;
  };

  void LogTx(Cycle now, Ev kind) {
    if (logging_) tx_log_.push_back(Event{now, kind});
  }
  void LogRx(Cycle now, Ev kind) {
    if (logging_) rx_log_.push_back(Event{now, kind});
  }

  void Undo(Ev kind) {
    switch (kind) {
      case Ev::kFrameSent: --stats_.frames_sent; break;
      case Ev::kRetransmit: --stats_.retransmits; break;
      case Ev::kTimeout: --stats_.timeouts; break;
      case Ev::kWireDrop: --stats_.wire_drops; break;
      case Ev::kWireCorrupt: --stats_.wire_corruptions; break;
      case Ev::kChecksumFail: --stats_.checksum_failures; break;
      case Ev::kSeqDiscard: --stats_.seq_discards; break;
      case Ev::kAckSent: --stats_.acks_sent; break;
      case Ev::kAckDropped: --stats_.acks_dropped; break;
      case Ev::kDeliver:
        --stats_.delivered;
        --delivered_;
        break;
      case Ev::kDeath:
        dead_ = false;
        dead_cycle_ = kNeverCycle;
        break;
    }
  }

  void StepRxImpl(Cycle now) {
    // Deliver the head of the receive buffer into the RX FIFO.
    if (!rx_pending_.empty() && rx_->CanPush(now)) {
      rx_->Push(rx_pending_.front(), now);
      rx_pending_.pop_front();
      ++delivered_;
      ++stats_.delivered;
      LogRx(now, Ev::kDeliver);
      if (obs_ != nullptr) obs_->OnDeliver(now);
    }
    // Examine at most one matured wire frame per cycle.
    if (fwd_wire_.empty() || fwd_wire_.front().ready_at > now) return;
    Frame& f = fwd_wire_.front();
    if (WireChecksum(f.payload) != f.checksum) {
      ++stats_.checksum_failures;
      LogRx(now, Ev::kChecksumFail);
      if (obs_ != nullptr) obs_->OnChecksumFailure(now);
      fwd_wire_.pop_front();
      SendAck(now);
    } else if (f.seq != expected_seq_) {
      ++stats_.seq_discards;
      LogRx(now, Ev::kSeqDiscard);
      if (obs_ != nullptr) obs_->OnSeqDiscard(now);
      fwd_wire_.pop_front();
      SendAck(now);
    } else if (rx_pending_.size() < window_) {
      rx_pending_.push_back(std::move(f.payload));
      fwd_wire_.pop_front();
      ++expected_seq_;
      SendAck(now);
    }
    // else: receive buffer full — hold the frame unacknowledged; the ack
    // starvation back-pressures the sender (at worst via retransmission).
  }

  void StepTxImpl(Cycle now) {
    // Consume at most one matured cumulative acknowledgement per cycle.
    if (!ack_wire_.empty() && ack_wire_.front().ready_at <= now) {
      const std::uint64_t a = ack_wire_.front().ack;
      ack_wire_.pop_front();
      if (a > base_seq_) {
        while (base_seq_ < a && !send_window_.empty()) {
          send_window_.pop_front();
          ++base_seq_;
        }
        rounds_ = 0;
        backoff_ = 0;
        rto_deadline_ =
            send_window_.empty() ? kNeverCycle : now + rto_;
        if (retx_next_seq_ < base_seq_) retx_next_seq_ = base_seq_;
      }
    }
    // One wire entry per cycle: retransmission replay takes priority over
    // the timeout check, which takes priority over accepting new frames.
    const bool has_data = tx_->CanPop(now);
    bool accept = false;
    if (retx_next_seq_ < retx_end_seq_) {
      SendFrame(send_window_[static_cast<std::size_t>(retx_next_seq_ -
                                                      base_seq_)],
                now, /*retransmit=*/true);
      ++retx_next_seq_;
    } else if (!send_window_.empty() && now >= rto_deadline_) {
      ++stats_.timeouts;
      LogTx(now, Ev::kTimeout);
      if (obs_ != nullptr) obs_->OnTimeout(now);
      ++rounds_;
      if (retry_budget_ != 0 && rounds_ > retry_budget_) {
        Die(now);
        return;
      }
      const Cycle scale = Cycle{1} << std::min(backoff_, backoff_cap_);
      rto_deadline_ = now + rto_ * scale;
      ++backoff_;
      retx_next_seq_ = base_seq_;
      retx_end_seq_ = next_seq_;
      SendFrame(send_window_.front(), now, /*retransmit=*/true);
      ++retx_next_seq_;
    } else {
      accept = has_data && send_window_.size() < window_;
      if (accept) {
        Frame f;
        f.payload = tx_->Pop(now);
        f.seq = next_seq_++;
        f.checksum = WireChecksum(f.payload);
        if (send_window_.empty()) rto_deadline_ = now + rto_;
        send_window_.push_back(f);
        SendFrame(send_window_.back(), now, /*retransmit=*/false);
      }
    }
    if (obs_ != nullptr) obs_->OnTxCycle(now, has_data && !accept);
  }

  void SendFrame(const Frame& f, Cycle now, bool retransmit) {
    ++stats_.frames_sent;
    LogTx(now, Ev::kFrameSent);
    if (retransmit) {
      ++stats_.retransmits;
      LogTx(now, Ev::kRetransmit);
      if (obs_ != nullptr) obs_->OnRetransmit(now);
    }
    auto action = LinkFaultHook::Action::kNone;
    if (hook_ != nullptr) {
      action = hook_->OnWireEntry(now, LinkFaultHook::kForwardChannel);
    }
    if (action == LinkFaultHook::Action::kDrop) {
      ++stats_.wire_drops;
      LogTx(now, Ev::kWireDrop);
      if (obs_ != nullptr) obs_->OnWireDrop(now);
      return;
    }
    Frame wire = f;
    wire.ready_at = now + latency_;
    if (action == LinkFaultHook::Action::kCorrupt) {
      CorruptInPlace(wire.payload, hook_->CorruptionPattern(now));
      ++stats_.wire_corruptions;
      LogTx(now, Ev::kWireCorrupt);
      if (obs_ != nullptr) obs_->OnWireCorruption(now);
    }
    (split_ ? staging_fwd_ : fwd_wire_).push_back(std::move(wire));
  }

  void SendAck(Cycle now) {
    ++stats_.acks_sent;
    LogRx(now, Ev::kAckSent);
    auto action = LinkFaultHook::Action::kNone;
    if (hook_ != nullptr) {
      action = hook_->OnWireEntry(now, LinkFaultHook::kAckChannel);
    }
    if (action != LinkFaultHook::Action::kNone) {
      // A corrupted ack fails the sender's validity check; same as a drop.
      ++stats_.acks_dropped;
      LogRx(now, Ev::kAckDropped);
      return;
    }
    (split_ ? staging_ack_ : ack_wire_)
        .push_back(AckSlot{expected_seq_, now + latency_});
  }

  void Die(Cycle now) {
    dead_ = true;
    dead_cycle_ = now;
    LogTx(now, Ev::kDeath);
    if (sink_ != nullptr) sink_->OnLinkDead(link_id_, now);
  }

  Fifo<T>* tx_;
  Fifo<T>* rx_;
  Cycle latency_;
  std::size_t window_;
  Cycle rto_;
  int backoff_cap_;
  std::uint64_t retry_budget_;

  LinkFaultHook* hook_ = nullptr;
  LinkDeathSink* sink_ = nullptr;
  std::size_t link_id_ = 0;
  obs::LinkCounters* obs_ = nullptr;

  // Sender half.
  std::deque<Frame> send_window_;  ///< unacknowledged frames, base first
  std::uint64_t next_seq_ = 0;     ///< next fresh sequence number
  std::uint64_t base_seq_ = 0;     ///< oldest unacknowledged sequence
  std::deque<AckSlot> ack_wire_;   ///< reverse channel, latency-delayed
  Cycle rto_deadline_ = kNeverCycle;
  int backoff_ = 0;
  std::uint64_t rounds_ = 0;            ///< consecutive fruitless timeouts
  std::uint64_t retx_next_seq_ = 0;     ///< replay cursor
  std::uint64_t retx_end_seq_ = 0;      ///< replay end (exclusive)
  bool dead_ = false;
  Cycle dead_cycle_ = kNeverCycle;

  // Receiver half.
  std::deque<Frame> fwd_wire_;     ///< forward channel, latency-delayed
  std::deque<T> rx_pending_;       ///< accepted frames awaiting RX FIFO space
  std::uint64_t expected_seq_ = 0;
  std::uint64_t delivered_ = 0;

  bool fully_dead_ = false;  ///< quiesced by failover; both halves frozen

  // Split-mode staging (see CutLink) and parallel-overshoot event logs.
  bool split_ = false;
  std::deque<Frame> staging_fwd_;
  std::deque<AckSlot> staging_ack_;
  bool logging_ = false;
  std::vector<Event> tx_log_;
  std::vector<Event> rx_log_;

  Stats stats_;
};

}  // namespace smi::sim

#endif  // SMI_SIM_RELIABLE_LINK_H
