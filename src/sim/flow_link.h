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
///  * *flow mode*: per-cycle stepping stops. Whatever its FIFOs do, the
///    link's wake answer is its next modeled wake, every `interval` cycles,
///    and that wake moves the interval's worth of payloads in bulk using
///    the calibrated analytic plan (`PlanFlowTransfer`): accepts are
///    bounded by elapsed cycles × calibrated bandwidth, committed TX
///    occupancy and the credit/backlog window; delivery stamps use the
///    calibrated hop latency. The wake *demotes* back to cycle mode on
///    congestion (a matured payload cannot be delivered — RX backpressure
///    the analytic model cannot time), on drain (TX ran dry — the tail of a
///    stream is re-timed exactly), at collective sync points
///    (`FlowLinkControl::DemoteForSync`), and for the whole duration of any
///    parallel-scheduler run (`SetForcedCycle`).
///
/// The interval is clamped to min(tx, rx FIFO capacity) - 1 so a bulk
/// transfer can never move more than the cycle-accurate link could have:
/// the producer refills at most one payload per cycle, so an interval of
/// capacity-1 keeps the sawtooth occupancy strictly inside the FIFO.
///
/// The wire, split staging, counters and overshoot journals are the shared
/// serial-link core (sim/serial_link.h); this class adds the credit window
/// and the cycle/flow state machine. The wire's batch-compressed ready
/// stamps let a modeled wake move a whole interval with span copies and
/// O(1) bookkeeping — the flow path's asymptotic advantage comes from this.
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

#include <cstdint>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "sim/clock.h"
#include "sim/engine.h"
#include "sim/fidelity.h"
#include "sim/fifo.h"
#include "sim/serial_link.h"

namespace smi::sim {

namespace detail {
/// Emits the thrash warning through the logging layer (flow_link.cpp keeps
/// the logging include out of this header).
void WarnFidelityThrash(const std::string& link, std::uint64_t transitions,
                        Cycle window, Cycle now);
}  // namespace detail

template <typename T>
class FlowLink final : public SerialLink<T>, public FlowLinkControl {
  using SerialLink<T>::tx_;
  using SerialLink<T>::rx_;
  using SerialLink<T>::latency_;
  using SerialLink<T>::obs_;

 public:
  FlowLink(Engine& engine, std::string name, Fifo<T>& tx, Fifo<T>& rx,
           Cycle latency, const FidelityPolicy& policy)
      : SerialLink<T>(std::move(name), tx, rx, latency),
        engine_(&engine),
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

  /// Wake contract (TX input, RX output; see component.h). In flow mode
  /// the answer is always the next modeled wake. In cycle mode the link is
  /// due when it can deliver (a matured head and RX room), when TX holds
  /// data it has not counted as credit-stalled (see TxNeedsStep), and at
  /// the head's maturity. A link under the fidelity machinery instead steps
  /// on the cycle after every transfer on its FIFOs, its own included: its
  /// steady-state detector must see the cycle after each accept, and
  /// `stepped_cycles`, from which the modeled fraction is reported, counts
  /// exactly those steps.
  Cycle InputPushed(std::size_t slot, Cycle now) override {
    return flow_mode_ ? NextSelfWake(now)
                      : SerialLink<T>::InputPushed(slot, now);
  }
  Cycle OutputPopped(std::size_t /*slot*/, Cycle now) override {
    return !flow_mode_ && policy_.enabled() ? now + 1 : NextSelfWake(now);
  }
  Cycle NextSelfWake(Cycle now) const override {
    if (flow_mode_) return flow_due_ > now ? flow_due_ : now + 1;
    if (policy_.enabled()) {
      if (io_at_ == now) return now + 1;
      return !wire_.empty() && wire_.FrontReady() > now ? wire_.FrontReady()
                                                         : kNeverCycle;
    }
    return this->TxNeedsStep() ? now + 1 : NextRxSelfWake(now);
  }

  void AttachObservability(obs::Recorder& recorder) override {
    SerialLink<T>::AttachObservability(recorder);
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
  const std::string& flow_link_name() const override { return this->name(); }
  bool in_flow_mode() const override { return flow_mode_; }

  // --- CutLink implementation (parallel scheduler; see component.h) ------
  //
  // Parallel runs pin the link to cycle mode (SetForcedCycle); the halves
  // reuse CycleStep's `Deliver` and `Admit`, and the wire stages the
  // sender's accepts until the next barrier. `tx_outstanding_`, the
  // sender's stale credit view, is exact at each barrier, drops once for a
  // delivery the barrier predicted at the epoch-start cycle, and otherwise
  // only grows: it over-estimates occupancy, so it never allows an accept
  // the fused step would have stalled.

  void BeginSplit() override {
    wire_.BeginSplit();
    tx_outstanding_ = wire_.size();
    d0_cycle_ = kNeverCycle;
  }

  void EndSplit() override { wire_.EndSplit(); }

  void StepTx(Cycle now) override {
    if (d0_cycle_ != kNeverCycle && now >= d0_cycle_) {
      // The delivery predicted for the epoch-start cycle has happened by
      // now; apply the credit before the accept check, matching the fused
      // step's deliver-then-accept order.
      --tx_outstanding_;
      d0_cycle_ = kNeverCycle;
    }
    if (!Admit(now, tx_outstanding_)) return;
    wire_.Send(tx_->Pop(now), now + latency_);
    ++tx_outstanding_;
  }

  void StepRx(Cycle now) override { Deliver(now); }

  Cycle ExchangeAtBarrier(Cycle epoch_start) override {
    // Hand last epoch's accepts to the receiver side; every payload not yet
    // delivered is now on the wire, which resets the credits.
    wire_.Merge();
    this->ClearJournals();
    tx_outstanding_ = wire_.size();
    // The delivery at the epoch-start cycle is decided entirely by state
    // committed before the barrier, so predict it exactly.
    const bool d0 =
        wire_.HeadMatured(epoch_start) && rx_->CanPush(epoch_start);
    d0_cycle_ = d0 ? epoch_start : kNeverCycle;
    // Credit slack: with `window` payloads outstanding after the predicted
    // delivery and at most one accept per cycle, the sender's stale count
    // cannot wrongly hit the window cap for this many cycles.
    const std::size_t cap = static_cast<std::size_t>(latency_) + 1;
    const std::size_t window = tx_outstanding_ - (d0 ? 1 : 0);
    return cap > window ? static_cast<Cycle>(cap - window) : Cycle{1};
  }

  Cycle NextRxSelfWake(Cycle now) const override {
    if (wire_.empty()) return kNeverCycle;
    if (wire_.FrontReady() > now + 1) return wire_.FrontReady();
    return rx_->occupancy() < rx_->capacity() ? now + 1 : kNeverCycle;
  }
  /// A credit-stalled sender stays stalled until the next barrier.
  Cycle NextTxSelfWake(Cycle now) const override {
    return this->TxNeedsStep() ? now + 1 : kNeverCycle;
  }

 private:
  /// Cycle-accurate step (deliver, then accept) plus the steady-state
  /// detector feeding the promotion decision. A link that can never
  /// promote skips the detector, and one outside the fidelity machinery
  /// (kCycle) keeps no counters.
  void CycleStep(Cycle now) {
    if (policy_.enabled() && !forced_cycle_) ++counters_.stepped_cycles;
    const bool delivered = Deliver(now);
    const bool blocked = !delivered && wire_.HeadMatured(now);  // congestion
    const bool accept = Admit(now, wire_.size());
    if (accept) wire_.Push(tx_->Pop(now), now + latency_);
    if (delivered || accept) io_at_ = now;
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

  /// Deliver the pipeline head if it has matured and the RX FIFO can take
  /// it; a full RX FIFO stalls the pipeline (flow control keeps the link
  /// lossless). Shared by CycleStep and the split StepRx.
  bool Deliver(Cycle now) {
    if (!wire_.HeadMatured(now) || !rx_->CanPush(now)) return false;
    rx_->Push(wire_.Pop(), now);
    this->CountDelivered(now);
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
    this->CountTxCycle(now, has_data && !admit);
    return admit;
  }

  /// Modeled wake: bulk-deliver matured payloads, bulk-accept the elapsed
  /// interval's worth, or demote if the model's assumptions broke. All
  /// payload movement is span copies; per-payload work is zero.
  void FlowStep(Cycle now) {
    const Cycle elapsed = now - last_flow_wake_;
    counters_.modeled_cycles += elapsed;

    // 1. Deliver everything matured, bounded by committed RX space.
    const std::uint64_t delivered_now = wire_.DeliverMatured(*rx_, now);
    if (delivered_now > 0) this->CountDelivered(now, delivered_now);
    const bool rx_congested = wire_.HeadMatured(now);

    // 2. Accept the elapsed interval's worth of payloads in bulk.
    const std::size_t backlog_cap =
        static_cast<std::size_t>(latency_) + 1 +
        static_cast<std::size_t>(interval_);
    const std::uint64_t window_free =
        wire_.size() < backlog_cap
            ? static_cast<std::uint64_t>(backlog_cap - wire_.size())
            : 0;
    const FlowBatch batch =
        PlanFlowTransfer(last_flow_wake_, now, tx_->ModeledPopBudget(),
                         window_free, policy_.calibration);
    if (batch.accepts > 0) {
      // Ready stamps are max(first_pop + i + hop_latency, now + 1).
      wire_.AcceptBulk(*tx_, batch.accepts, batch.first_pop + hop_latency_,
                       now);
    }
    if (delivered_now > 0 || batch.accepts > 0) io_at_ = now;

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
      detail::WarnFidelityThrash(this->name(), thrash_transitions_,
                                 policy_.thrash_window, now);
    }
  }

  Engine* engine_;
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
  /// Last cycle the link moved a payload. Only the fidelity links'
  /// step-after-every-transfer wake reads it (see OutputPopped and
  /// NextSelfWake): `sim.fidelity_modeled_fraction` counts those steps.
  /// ROADMAP item 10 makes that metric count cycles instead; its change
  /// deletes this field and the OutputPopped special case, so that fidelity
  /// links answer TxNeedsStep/NextRxSelfWake like `kCycle` links.
  Cycle io_at_ = kNeverCycle;

  // Thrash detection.
  Cycle thrash_window_start_ = 0;
  std::uint64_t thrash_transitions_ = 0;
  bool thrash_warned_ = false;

  Wire<T> wire_;  ///< the in-flight pipeline
  obs::FidelityCounters counters_;

  // Split-mode credit view (see CutLink methods).
  std::size_t tx_outstanding_ = 0;
  Cycle d0_cycle_ = kNeverCycle;
};

}  // namespace smi::sim

#endif  // SMI_SIM_FLOW_LINK_H
