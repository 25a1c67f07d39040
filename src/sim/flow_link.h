#ifndef SMI_SIM_FLOW_LINK_H
#define SMI_SIM_FLOW_LINK_H

/// \file flow_link.h
/// Lossless serial link, cycle-accurate with a calibrated flow-level path.
///
/// A link moves one payload per cycle (one 256-bit packet per fabric cycle
/// = 40 Gbit/s) through a fixed-latency pipeline between two ranks' network
/// interface FIFOs. Like the QSFP/BSP shell of the paper's boards, which
/// does error correction and credit-based flow control, it is lossless: it
/// stalls instead of dropping when the receiver FIFO is full. The credit
/// window is `latency + 1` slots and a cycle delivers *before* it accepts,
/// so a permanently full window still sustains one payload per cycle.
///
/// `FlowLink` runs a two-mode state machine per link (see sim/fidelity.h
/// and DESIGN.md §10). Under the default `FidelityMode::kCycle` it never
/// leaves cycle mode and stays invisible to the fidelity machinery (no
/// engine registration, no fidelity counters in the telemetry):
///
///  * *cycle mode* (initial): steps cycle-accurately while counting
///    consecutive-cycle accepted payloads. A credit stall, a delivery
///    blocked on a full RX FIFO, or simply an idle TX cycle resets the
///    count, so only a saturated (one payload per cycle) stream
///    accumulates evidence. After `FidelityPolicy::steady_window` such
///    cycles the link *promotes*.
///  * *flow mode*: per-cycle stepping stops. The link suspends its FIFO
///    wakes, self-wakes every `interval` cycles, and moves the interval's
///    worth of payloads in bulk using the calibrated analytic plan
///    (`PlanFlowTransfer`): accepts are bounded by elapsed cycles ×
///    calibrated bandwidth, committed TX occupancy and the credit/backlog
///    window; delivery stamps use the calibrated hop latency. The wake
///    *demotes* back to cycle mode on congestion (a matured payload cannot
///    be delivered — RX backpressure the analytic model cannot time), on
///    drain (TX ran dry — the tail of a stream is re-timed exactly), at
///    collective sync points (`FlowLinkControl::DemoteForSync`), and for the
///    whole duration of any parallel-scheduler run (`SetForcedCycle`).
///
/// The interval is clamped to min(tx, rx FIFO capacity) - 1 so a bulk
/// transfer can never move more than the cycle-accurate link could have:
/// the producer refills at most one payload per cycle, so an interval of
/// capacity-1 keeps the sawtooth occupancy strictly inside the FIFO.
///
/// In-flight payloads live in a contiguous power-of-two ring with
/// *batch-compressed* ready stamps (payload i of a batch matures at
/// first_ready + i*step), so a modeled wake moves a whole interval's worth
/// of payloads with span copies (Fifo::PopBulkModeled/PushBulkModeled) and
/// O(1) batch bookkeeping instead of per-payload queue operations — the
/// flow path's asymptotic advantage over cycle stepping comes from this.
///
/// Fault-plan links never use this class: the fabric pins any link whose
/// fault spec is active to the cycle-accurate `ReliableLink` at build time
/// (transport/fabric.cpp), so injected faults are always timed exactly.
///
/// Error bound: in saturated steady state the analytic plan reproduces the
/// cycle-accurate schedule exactly (latest-consistent pops coincide with
/// the 1/cycle schedule). Divergence only accrues at flow→cycle boundaries,
/// bounded by `interval` cycles per demotion per link; the differential
/// tests (tests/sim/fidelity_differential_test.cpp) assert the end-to-end
/// bound of ≤2% total cycles with bit-identical payloads.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "sim/clock.h"
#include "sim/component.h"
#include "sim/engine.h"
#include "sim/fidelity.h"
#include "sim/fifo.h"

namespace smi::sim {

namespace detail {
/// Emits the thrash warning through the logging layer (flow_link.cpp keeps
/// the logging include out of this header).
void WarnFidelityThrash(const std::string& link, std::uint64_t transitions,
                        Cycle window, Cycle now);
}  // namespace detail

template <typename T>
class FlowLink final : public Component,
                       public CutLink,
                       public FlowLinkControl {
 public:
  FlowLink(Engine& engine, std::string name, Fifo<T>& tx, Fifo<T>& rx,
           Cycle latency, const FidelityPolicy& policy)
      : Component(std::move(name)),
        engine_(&engine),
        tx_(&tx),
        rx_(&rx),
        latency_(latency),
        policy_(policy) {
    interval_ = policy_.flow_interval;
    const Cycle tx_cap = static_cast<Cycle>(tx.capacity());
    const Cycle rx_cap = static_cast<Cycle>(rx.capacity());
    if (tx_cap > 0 && interval_ > tx_cap - 1) interval_ = tx_cap - 1;
    if (rx_cap > 0 && interval_ > rx_cap - 1) interval_ = rx_cap - 1;
    // Below two cycles per wake the model cannot outrun per-cycle stepping.
    flow_capable_ = policy_.enabled() && interval_ >= 2;
    hop_latency_ = EstimateHopLatency(latency_, policy_.calibration);
    promote_after_ =
        policy_.mode == FidelityMode::kFlow ? 1 : policy_.steady_window;
    if (promote_after_ == 0) promote_after_ = 1;
    if (policy_.enabled()) engine.RegisterFlowLink(this);
  }

  void Step(Cycle now) override {
    if (flow_mode_) {
      // The synchronous scheduler steps every cycle; modeled wakes only
      // fire when due, keeping all schedulers on the same wake schedule.
      if (now < flow_due_) return;
      FlowStep(now);
      return;
    }
    CycleStep(now);
  }

  /// Wake contract: FIFO activity wakes the link; in cycle mode the only
  /// timed wake is the head maturing (a stalled head waits for an RX pop).
  void DeclareWakeFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(tx_);
    out.push_back(rx_);
  }
  Cycle NextSelfWake(Cycle now) const override {
    // Invariant: while FIFO wakes are suspended (flow mode) this must
    // return a finite cycle, or the link would sleep forever.
    if (flow_mode_) return flow_due_ > now ? flow_due_ : now + 1;
    return NextRxSelfWake(now);
  }

  std::uint64_t delivered() const { return delivered_; }

  void AttachObservability(obs::Recorder& recorder) override {
    obs_ = recorder.AddLink(name(), latency_);
    if (policy_.enabled()) obs_->fidelity = &counters_;
  }

  // --- FlowLinkControl --------------------------------------------------
  void DemoteForSync(Cycle now) override {
    if (!flow_mode_) return;
    Demote(now, &obs::FidelityCounters::demotions_sync);
    // Called from a kernel (phase 1), outside this component's own Step:
    // request the step the re-entered cycle mode needs.
    engine_->WakeComponentAt(*this, now + 1);
  }
  void DemoteForDrain(Cycle now) override {
    if (!flow_mode_) return;
    Demote(now, &obs::FidelityCounters::demotions_drain);
    // Called from another link's Step (phase 2): request our own step.
    engine_->WakeComponentAt(*this, now + 1);
    CascadeDrain(now);
  }
  void PromoteForCascade(Cycle now) override {
    if (flow_mode_ || !flow_capable_ || forced_cycle_) return;
    // Same evidence bar as the fast (backlog) promotion: armed and a few
    // consecutive accepts. On a saturated chain every link trails the
    // organically-promoting one by at most the pipeline latency, so the
    // whole chain passes this bar and promotes in the same cycle.
    if (!fast_promote_ || steady_accepts_ < kFastPromoteAccepts) return;
    Promote(now);
    CascadePromote(now);
  }
  const void* flow_tx_fifo() const override { return tx_; }
  const void* flow_rx_fifo() const override { return rx_; }
  void SetForcedCycle(bool forced) override {
    if (forced && flow_mode_) {
      // The parallel run prepares (and initially schedules) every
      // component after this call, so no explicit wake is needed.
      Demote(engine_->now(), &obs::FidelityCounters::demotions_forced);
    }
    forced_cycle_ = forced;
  }
  const obs::FidelityCounters& fidelity_counters() const override {
    return counters_;
  }
  const std::string& flow_link_name() const override { return name(); }
  bool in_flow_mode() const override { return flow_mode_; }

  // --- CutLink implementation (parallel scheduler; see component.h) ------
  //
  // Parallel runs pin the link to cycle mode (SetForcedCycle); the halves
  // reuse CycleStep's `Deliver` and `Admit`. The in-flight ring becomes the
  // receiver's pending queue and the sender stages accepts in `staging_`
  // until the next barrier. `tx_outstanding_`, the sender's stale credit
  // view, is exact at each barrier, drops once for a delivery the barrier
  // predicted at the epoch-start cycle, and otherwise only grows: it
  // over-estimates occupancy, so it never allows an accept the fused step
  // would have stalled.

  Cycle link_latency() const override { return latency_; }

  void BeginSplit() override {
    tx_outstanding_ = flight_count_;
    d0_cycle_ = kNeverCycle;
    staging_.clear();
    delivery_log_.clear();
  }

  void EndSplit() override { MergeStaging(); }

  void StepTx(Cycle now) override {
    if (d0_cycle_ != kNeverCycle && now >= d0_cycle_) {
      // The delivery predicted for the epoch-start cycle has happened by
      // now; apply the credit before the accept check, matching the fused
      // step's deliver-then-accept order.
      --tx_outstanding_;
      d0_cycle_ = kNeverCycle;
    }
    if (!Admit(now, tx_outstanding_)) return;
    staging_.push_back(Slot{tx_->Pop(now), now + latency_});
    ++tx_outstanding_;
  }

  void StepRx(Cycle now) override {
    if (Deliver(now)) delivery_log_.push_back(now);
  }

  Cycle ExchangeAtBarrier(Cycle epoch_start) override {
    // Hand last epoch's accepts to the receiver side; every payload not yet
    // delivered now sits in the pending queue, which resets the credits.
    MergeStaging();
    tx_outstanding_ = flight_count_;
    // The delivery at the epoch-start cycle is decided entirely by state
    // committed before the barrier, so predict it exactly.
    const bool d0 = HeadMatured(epoch_start) && rx_->CanPush(epoch_start);
    d0_cycle_ = d0 ? epoch_start : kNeverCycle;
    // Credit slack: with `window` payloads outstanding after the predicted
    // delivery and at most one accept per cycle, the sender's stale count
    // cannot wrongly hit the window cap for this many cycles.
    const std::size_t cap = static_cast<std::size_t>(latency_) + 1;
    const std::size_t window = tx_outstanding_ - (d0 ? 1 : 0);
    return cap > window ? static_cast<Cycle>(cap - window) : Cycle{1};
  }

  void TrimDeliveriesAtOrAfter(Cycle cycle) override {
    while (!delivery_log_.empty() && delivery_log_.back() >= cycle) {
      delivery_log_.pop_back();
      --delivered_;
    }
  }

  const FifoBase* tx_wake_fifo() const override { return tx_; }
  const FifoBase* rx_wake_fifo() const override { return rx_; }
  Cycle NextRxSelfWake(Cycle now) const override {
    if (flight_count_ > 0 && FrontReady() > now) return FrontReady();
    return kNeverCycle;
  }

 private:
  struct Slot {
    T payload;
    Cycle ready_at;
  };

  /// Ready stamps of a run of consecutive in-flight payloads: payload i of
  /// the batch matures at first_ready + i*step. Cycle mode appends one
  /// payload per cycle (extending a step-1 batch); a modeled wake appends
  /// the whole bulk accept as at most two batches — the clamped prefix
  /// maturing together (step 0) and the per-cycle remainder (step 1).
  struct Batch {
    Cycle first_ready;
    std::uint64_t count;
    std::uint32_t step;
  };

  /// Cycle-accurate step (deliver, then accept) plus the steady-state
  /// detector feeding the promotion decision. A link that can never
  /// promote skips the detector, and one outside the fidelity machinery
  /// (kCycle) keeps no counters.
  void CycleStep(Cycle now) {
    if (policy_.enabled() && !forced_cycle_) ++counters_.stepped_cycles;
    const bool blocked = !Deliver(now) && HeadMatured(now);  // congestion
    const bool accept = Admit(now, flight_count_);
    if (accept) FlightPush(tx_->Pop(now), now + latency_);
    if (!flow_capable_) return;
    if (blocked || !accept) {
      // A credit stall, a blocked delivery or an idle TX cycle all reset
      // the steady-state evidence: only a stream that accepts on
      // *consecutive* cycles is bandwidth-bound. A trickle (ping-pong,
      // rendezvous traffic) keeps resetting and stays cycle-accurate,
      // which is what its latency-sensitive timing needs.
      steady_accepts_ = 0;
      return;
    }
    ++steady_accepts_;
    if (forced_cycle_) return;
    // Fast path: a committed TX backlog of a full interval while accepting
    // every cycle proves saturation outright — a trickle can never bank
    // that much — and guarantees the first modeled wake has a whole
    // interval's worth to move. This is what keeps promotion from sweeping
    // serially down a chain: when an upstream link promotes, its bulk
    // commits hand every downstream link the backlog evidence within a few
    // cycles instead of a fresh steady window each.
    const bool saturated =
        fast_promote_ && steady_accepts_ >= kFastPromoteAccepts &&
        tx_->ModeledPopBudget() >= static_cast<std::uint64_t>(interval_);
    if (steady_accepts_ >= promote_after_ || saturated) {
      Promote(now);
      CascadePromote(now);
    }
  }

  bool HeadMatured(Cycle now) const {
    return flight_count_ > 0 && FrontReady() <= now;
  }

  /// Deliver the pipeline head if it has matured and the RX FIFO can take
  /// it; a full RX FIFO stalls the pipeline (flow control keeps the link
  /// lossless). Shared by CycleStep and the split StepRx.
  bool Deliver(Cycle now) {
    if (!HeadMatured(now) || !rx_->CanPush(now)) return false;
    rx_->Push(FlightPop(), now);
    ++delivered_;
    if (obs_ != nullptr) obs_->OnDeliver(now);
    return true;
  }

  /// Whether this cycle admits one TX payload into a credit window holding
  /// `outstanding` payloads; records the credit-stall state (data waiting,
  /// window full), which holds until the next step. Shared by CycleStep and
  /// the split StepTx.
  bool Admit(Cycle now, std::size_t outstanding) {
    const bool has_data = tx_->CanPop(now);
    const bool admit =
        has_data && outstanding < static_cast<std::size_t>(latency_) + 1;
    if (obs_ != nullptr) obs_->OnTxCycle(now, has_data && !admit);
    return admit;
  }

  /// Move the sender side's staged payloads into the in-flight ring.
  void MergeStaging() {
    for (Slot& slot : staging_) {
      FlightPush(std::move(slot.payload), slot.ready_at);
    }
    staging_.clear();
    delivery_log_.clear();
  }

  /// Modeled wake: bulk-deliver matured payloads, bulk-accept the elapsed
  /// interval's worth, or demote if the model's assumptions broke. All
  /// payload movement is span copies; per-payload work is zero.
  void FlowStep(Cycle now) {
    const Cycle elapsed = now - last_flow_wake_;
    counters_.modeled_cycles += elapsed;

    // 1. Deliver everything matured, bounded by committed RX space. A
    //    step-1 batch can be split by the maturity horizon or the space
    //    bound; whatever remains stays at the front for the next wake.
    std::uint64_t space = rx_->ModeledPushBudget();
    std::uint64_t delivered_now = 0;
    while (space > 0 && flight_count_ > 0) {
      Batch& b = batches_.front();
      if (b.first_ready > now) break;
      std::uint64_t m = b.count;
      if (b.step != 0) {
        const std::uint64_t mature =
            static_cast<std::uint64_t>(now - b.first_ready) + 1;
        if (mature < m) m = mature;
      }
      if (m > space) m = space;
      FlightDeliverSpan(static_cast<std::size_t>(m), now);
      if (b.step != 0) b.first_ready += static_cast<Cycle>(m);
      b.count -= m;
      if (b.count == 0) batches_.pop_front();
      space -= m;
      delivered_now += m;
    }
    delivered_ += delivered_now;
    if (obs_ != nullptr && delivered_now > 0) {
      obs_->OnDeliverBulk(now, delivered_now);
    }
    const bool rx_congested = flight_count_ > 0 && FrontReady() <= now;

    // 2. Accept the elapsed interval's worth of payloads in bulk.
    const std::size_t backlog_cap =
        static_cast<std::size_t>(latency_) + 1 +
        static_cast<std::size_t>(interval_);
    const std::uint64_t window_free =
        flight_count_ < backlog_cap
            ? static_cast<std::uint64_t>(backlog_cap - flight_count_)
            : 0;
    const FlowBatch batch =
        PlanFlowTransfer(last_flow_wake_, now, tx_->ModeledPopBudget(),
                         window_free, policy_.calibration);
    if (batch.accepts > 0) {
      const std::size_t n = static_cast<std::size_t>(batch.accepts);
      if (flight_count_ + n > flight_.size()) FlightGrow(n);
      const std::size_t pos = (flight_head_ + flight_count_) & flight_mask_;
      const std::size_t first = std::min(n, flight_.size() - pos);
      tx_->PopBulkModeled(&flight_[pos], first, now);
      if (n > first) tx_->PopBulkModeled(&flight_[0], n - first, now);
      flight_count_ += n;
      // Ready stamps are max(first_pop + i + hop_latency, now + 1): the
      // already-due prefix matures together next cycle (step 0), the rest
      // follows the per-cycle pop schedule (step 1).
      const Cycle r0 = batch.first_pop + hop_latency_;
      if (r0 > now) {
        batches_.push_back(Batch{r0, batch.accepts, 1});
      } else {
        std::uint64_t clamped = static_cast<std::uint64_t>(now - r0) + 1;
        if (clamped > batch.accepts) clamped = batch.accepts;
        batches_.push_back(Batch{now + 1, clamped, 0});
        if (batch.accepts > clamped) {
          batches_.push_back(Batch{now + 1, batch.accepts - clamped, 1});
        }
      }
    }

    last_flow_wake_ = now;
    flow_due_ = NextFlowWake(now);

    // 3. Demotion triggers. Congestion: backpressure needs exact timing.
    // Drain: the TX side ran dry — either outright (no accepts) or through
    // a partial batch that emptied the committed backlog (a stream tail).
    // Demoting on the partial batch, not one wake later, re-times the tail
    // cycle-accurately at once instead of letting the last payloads wait a
    // full interval at every hop; an idle link then costs nothing under the
    // event-driven scheduler. A partial batch with backlog left behind is
    // NOT a drain — the credit window capped it and the backlog is exactly
    // the saturated regime the model is for.
    if (rx_congested) {
      Demote(now, &obs::FidelityCounters::demotions_congestion);
      return;
    }
    if (batch.accepts == 0 || (batch.accepts < batch.interval_budget &&
                               tx_->ModeledPopBudget() == 0)) {
      // Not a tail if a flow-mode upstream feeds our TX FIFO: its bulk
      // delivery commits at its own wake and only becomes visible one cycle
      // later, so the committed backlog lags a full wake right after a
      // (cascaded) promotion. Demoting here would re-serialize the chain —
      // every hop re-earning a steady window one interval after the last.
      // The genuine tail still reaches us as the upstream's own drain
      // demotion cascades downstream.
      if (Upstream() == nullptr || !Upstream()->in_flow_mode()) {
        Demote(now, &obs::FidelityCounters::demotions_drain);
        CascadeDrain(now);
        return;
      }
    }
  }

  /// The flow link delivering into our TX FIFO, if any. Topology is static
  /// after construction, so the registry scan is done once and cached.
  FlowLinkControl* Upstream() {
    if (!upstream_resolved_) {
      upstream_resolved_ = true;
      for (FlowLinkControl* peer : engine_->flow_links()) {
        if (peer != this && peer->flow_rx_fifo() == tx_) {
          upstream_ = peer;
          break;
        }
      }
    }
    return upstream_;
  }

  /// Promote the downstream neighbour(s) in the same cycle (see
  /// FlowLinkControl::PromoteForCascade); recursion sweeps the whole chain.
  void CascadePromote(Cycle now) {
    for (FlowLinkControl* peer : engine_->flow_links()) {
      if (peer != this && !peer->in_flow_mode() &&
          peer->flow_tx_fifo() == rx_) {
        peer->PromoteForCascade(now);
      }
    }
  }

  /// Propagate a drain demotion to the flow links fed by our RX FIFO (see
  /// FlowLinkControl::DemoteForDrain). Terminates on any topology: a link
  /// leaves flow mode before cascading, so no link is visited twice.
  void CascadeDrain(Cycle now) {
    for (FlowLinkControl* peer : engine_->flow_links()) {
      if (peer != this && peer->in_flow_mode() &&
          peer->flow_tx_fifo() == rx_) {
        peer->DemoteForDrain(now);
      }
    }
  }

  /// Modeled wakes are phase-locked to global multiples of the interval
  /// rather than free-running from the promotion cycle: chained flow-mode
  /// links then wake on the same cycles and each wake sees exactly one
  /// upstream bulk commit, instead of a phase beat where a wake can land
  /// just before the upstream commit, observe an empty FIFO, and demote
  /// spuriously (thrash).
  Cycle NextFlowWake(Cycle now) const {
    return now - (now % interval_) + interval_;
  }

  void Promote(Cycle now) {
    flow_mode_ = true;
    ++counters_.promotions;
    NoteTransition(now);
    // A full-window promotion after a congestion demotion proves the region
    // calm again; re-arm the fast path.
    if (steady_accepts_ >= promote_after_) fast_promote_ = true;
    steady_accepts_ = 0;
    promoted_at_ = now;
    last_flow_wake_ = now;
    flow_due_ = NextFlowWake(now);
    engine_->SetComponentFifoWakeSuspended(*this, true);
  }

  void Demote(Cycle now, std::uint64_t obs::FidelityCounters::* cause) {
    flow_mode_ = false;
    ++(counters_.*cause);
    NoteTransition(now);
    steady_accepts_ = 0;
    // Any demotion disarms the fast (backlog-evidence) promotion until a
    // full-window promotion proves sustained traffic again. The backlog a
    // stream tail leaves behind is exactly the false positive this guards
    // against: it banks a full interval without any new input, and
    // re-promoting on it bounces every remaining payload through another
    // flow/cycle boundary (and, through the drain cascade, re-demotes the
    // whole downstream chain each bounce).
    fast_promote_ = false;
    // Re-promotion hysteresis: after any demotion, even kFlow links must
    // re-earn a full steady window. Without this a kFlow link promotes on
    // the first accept after every drain and thrashes through the stream
    // front, where traffic arrives in sub-window spurts.
    const Cycle base =
        policy_.steady_window > 0 ? policy_.steady_window : Cycle{1};
    if (cause == &obs::FidelityCounters::demotions_drain) {
      // Drain-churn backoff. While a long chain's tail collapses, the drain
      // front sweeps downstream in waves: a link re-earns a full steady
      // window from the not-yet-drained backlog behind the front, re-
      // promotes, and is cascade-demoted again a few hundred cycles later —
      // each bounce re-times another interval of the tail late. Doubling
      // the required window after every short-residency drain demotion
      // caps the bounces per link at O(log tail) instead of O(tail/window),
      // while a long flow residency (a genuine new stream) resets the bar.
      if (now - promoted_at_ >= 4 * base) drain_backoff_ = 1;
      promote_after_ = base * drain_backoff_;
      if (drain_backoff_ < kDrainBackoffCap) drain_backoff_ *= 2;
    } else {
      promote_after_ = base;
      drain_backoff_ = 1;
    }
    engine_->SetComponentFifoWakeSuspended(*this, false);
  }

  // --- In-flight ring ---------------------------------------------------

  Cycle FrontReady() const { return batches_.front().first_ready; }

  /// Append one payload maturing at `ready`, extending the tail batch when
  /// the stamp continues its arithmetic run (the cycle-mode common case).
  void FlightPush(T payload, Cycle ready) {
    if (flight_count_ + 1 > flight_.size()) FlightGrow(1);
    flight_[(flight_head_ + flight_count_) & flight_mask_] =
        std::move(payload);
    ++flight_count_;
    if (!batches_.empty()) {
      Batch& b = batches_.back();
      if ((b.step == 1 && ready == b.first_ready + b.count) ||
          (b.step == 0 && ready == b.first_ready)) {
        ++b.count;
        return;
      }
      if (b.count == 1 && ready == b.first_ready) {
        b.step = 0;
        ++b.count;
        return;
      }
    }
    batches_.push_back(Batch{ready, 1, 1});
  }

  /// Pop the head payload (cycle mode / split RX half).
  T FlightPop() {
    T payload = std::move(flight_[flight_head_ & flight_mask_]);
    ++flight_head_;
    --flight_count_;
    Batch& b = batches_.front();
    b.first_ready += b.step;
    if (--b.count == 0) batches_.pop_front();
    return payload;
  }

  /// Bulk-deliver `m` head payloads into RX as span copies. Batch
  /// bookkeeping is the caller's (FlowStep) responsibility.
  void FlightDeliverSpan(std::size_t m, Cycle now) {
    const std::size_t pos = flight_head_ & flight_mask_;
    const std::size_t first = std::min(m, flight_.size() - pos);
    rx_->PushBulkModeled(&flight_[pos], first, now);
    if (m > first) rx_->PushBulkModeled(&flight_[0], m - first, now);
    flight_head_ += m;
    flight_count_ -= m;
  }

  /// Grow the ring (a power of two, empty until the first payload) to fit
  /// `need` more payloads. Idle links thus cost no ring at all.
  void FlightGrow(std::size_t need) {
    std::size_t size = std::max<std::size_t>(flight_.size(), 2);
    while (size < flight_count_ + need) size <<= 1;
    std::vector<T> next(size);
    for (std::size_t i = 0; i < flight_count_; ++i) {
      next[i] = std::move(flight_[(flight_head_ + i) & flight_mask_]);
    }
    flight_ = std::move(next);
    flight_head_ = 0;
    flight_mask_ = size - 1;
  }

  void NoteTransition(Cycle now) {
    if (now - thrash_window_start_ >= policy_.thrash_window) {
      thrash_window_start_ = now;
      thrash_transitions_ = 0;
      thrash_warned_ = false;
    }
    ++thrash_transitions_;
    if (thrash_transitions_ > policy_.thrash_limit && !thrash_warned_) {
      thrash_warned_ = true;
      ++counters_.thrash_warnings;
      detail::WarnFidelityThrash(name(), thrash_transitions_,
                                 policy_.thrash_window, now);
    }
  }

  Engine* engine_;
  Fifo<T>* tx_;
  Fifo<T>* rx_;
  Cycle latency_;
  FidelityPolicy policy_;
  /// Consecutive accepts required by the fast (backlog-evidence) promotion.
  static constexpr Cycle kFastPromoteAccepts = 4;

  Cycle interval_ = 0;       ///< effective modeled-wake interval
  Cycle hop_latency_ = 0;    ///< calibrated pipeline latency
  Cycle promote_after_ = 1;  ///< undisturbed accepts before promotion
  bool flow_capable_ = false;
  bool fast_promote_ = true;  ///< backlog promotion armed (off after demotion)
  /// Drain-churn backoff: promote_after_ multiplier while the stream tail
  /// collapses (doubles per short-residency drain demotion, capped).
  static constexpr Cycle kDrainBackoffCap = 16;
  Cycle drain_backoff_ = 1;
  Cycle promoted_at_ = 0;  ///< cycle of the last promotion (residency)
  FlowLinkControl* upstream_ = nullptr;  ///< flow link feeding tx_ (cached)
  bool upstream_resolved_ = false;

  // Mode state.
  bool flow_mode_ = false;
  bool forced_cycle_ = false;  ///< pinned by a parallel run
  Cycle steady_accepts_ = 0;   ///< undisturbed accepts since last disturbance
  Cycle last_flow_wake_ = 0;
  Cycle flow_due_ = 0;

  // Thrash detection.
  Cycle thrash_window_start_ = 0;
  std::uint64_t thrash_transitions_ = 0;
  bool thrash_warned_ = false;

  // Link state: the in-flight pipeline, stored as a contiguous payload ring
  // + batch-compressed ready stamps.
  std::vector<T> flight_;
  std::size_t flight_mask_ = 1;
  std::size_t flight_head_ = 0;   ///< monotone; mask on access
  std::size_t flight_count_ = 0;
  std::deque<Batch> batches_;
  std::uint64_t delivered_ = 0;
  obs::LinkCounters* obs_ = nullptr;
  obs::FidelityCounters counters_;

  // Split-mode state (see CutLink methods).
  std::deque<Slot> staging_;
  std::vector<Cycle> delivery_log_;
  std::size_t tx_outstanding_ = 0;
  Cycle d0_cycle_ = kNeverCycle;
};

}  // namespace smi::sim

#endif  // SMI_SIM_FLOW_LINK_H
