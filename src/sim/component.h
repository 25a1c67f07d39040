#ifndef SMI_SIM_COMPONENT_H
#define SMI_SIM_COMPONENT_H

/// \file component.h
/// Clocked component interface. Fixed-function hardware blocks (CKS/CKR,
/// links, memory banks) are modelled as components whose `Step` method is
/// invoked once per cycle, after parked kernels have been polled and before
/// FIFOs commit. A component may perform at most one operation per FIFO port
/// per cycle — the FIFO enforces this.
///
/// Under the event-driven scheduler (see engine.h) a component is only
/// stepped on cycles where it can possibly act. It opts into that by
/// declaring the FIFOs it touches in one of two roles and by reporting when
/// it next needs a step (NextSelfWake):
///   * an *input* is a FIFO that only this component pops. A committed push
///     into it calls InputPushed with the input's slot (its index in
///     FifoRoles::inputs); the returned cycle is min-ed with the current
///     wake;
///   * an *output* is a FIFO that only this component pushes. A committed
///     pop from it calls OutputPopped (unless the component is due next
///     cycle anyway), which defaults to re-asking NextSelfWake.
/// The component's own pops and pushes wake nothing: after every Step the
/// engine asks NextSelfWake, which must cover what the step left behind.
/// The defaults — no declared FIFOs and a self-wake every cycle — make
/// unmodified components behave exactly as under the synchronous scheduler:
/// they are stepped every cycle.
///
/// Contract for opting in: on any cycle where the component is *not*
/// stepped, its Step must have been a no-op (no FIFO operation, no state
/// change). That holds whenever the union of the answers covers every
/// cycle at which the component could act: NextSelfWake (asked after each
/// Step) for what its own state and its FIFOs' current contents allow, and
/// the two notifications for what another component's push or pop enables.
/// Extra wakeups are always safe; a missed wakeup breaks cycle accuracy.
///
/// Notifications arrive during the commits of the cycle that carried the
/// transfer, possibly before the component's other FIFOs have committed.
/// Answers may therefore depend only on the component's own state and on
/// FIFO occupancy (which counts staged transfers, hence is the same before
/// and after the commits) — a stale partial view is harmless, since each
/// later commit notifies again and the engine keeps the earliest answer.
///
/// The communication kernels use inputs to sleep until their polling
/// pointer reaches an input holding data, and outputs to sleep while the
/// output their latched packet needs is full (see transport/arbiter.h).
/// Links declare their TX FIFO an input and their RX FIFO an output.

#include <cstddef>
#include <string>
#include <vector>

#include "sim/clock.h"

namespace smi::obs {
class Recorder;
}

namespace smi::sim {

class Engine;
class FifoBase;

/// A component's FIFOs by role (see the file comment). A FIFO is the input
/// of at most one component and the output of at most one component.
struct FifoRoles {
  std::vector<const FifoBase*> inputs;   ///< popped only by this component
  std::vector<const FifoBase*> outputs;  ///< pushed only by this component
};

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }

  /// Advance one clock cycle.
  virtual void Step(Cycle now) = 0;

  /// Declare this component's FIFO roles (see the file comment). Called by
  /// the event-driven engine when a run starts, before anything steps; the
  /// roles must stay valid for the whole run. A component that keeps a
  /// view of its FIFOs' contents between notifications resynchronizes it
  /// here. Default: none.
  virtual void DeclareFifos(FifoRoles& /*roles*/) {}

  /// Another component's push into input `slot` committed at `now`; returns
  /// the earliest cycle (> now) the component must step at because of it,
  /// or kNeverCycle. Called on every such commit. Default: NextSelfWake.
  virtual Cycle InputPushed(std::size_t /*slot*/, Cycle now) {
    return NextSelfWake(now);
  }

  /// Another component's pop from output `slot` committed at `now`; as
  /// InputPushed, but skipped while the component is already due next
  /// cycle, so it must not change state. Default: NextSelfWake.
  virtual Cycle OutputPopped(std::size_t /*slot*/, Cycle now) {
    return NextSelfWake(now);
  }

  /// Earliest future cycle (> now) at which this component could act
  /// without another component pushing into its inputs or popping its
  /// outputs, or kNeverCycle if only that can enable it. Asked right after
  /// each Step, once that cycle's FIFO commits are visible, and by the
  /// default notifications.
  virtual Cycle NextSelfWake(Cycle now) const { return now + 1; }

  /// Called once per component when the engine starts collecting telemetry;
  /// the component registers its counter blocks with the recorder and keeps
  /// the returned pointers. Default: no telemetry.
  virtual void AttachObservability(obs::Recorder& /*recorder*/) {}

 private:
  friend class Engine;

  std::string name_;
  /// Index in the owning engine's component list (set by MakeComponent).
  std::size_t engine_id_ = static_cast<std::size_t>(-1);
};

/// Interface of a component that can act as a *cut edge* between two
/// partitions of the parallel scheduler (see engine.h). The component's
/// normal `Step` fuses a sender side (popping a TX FIFO into a fixed-latency
/// pipeline, bounded by a credit window) and a receiver side (delivering
/// matured pipeline slots into an RX FIFO). When the two sides live on
/// different worker threads, the engine splits the component: `StepTx` runs
/// in the sender's partition, `StepRx` in the receiver's, and
/// `ExchangeAtBarrier` moves the payloads accepted during the previous epoch
/// (and the delivery credits earned by the receiver) across at each global
/// epoch barrier — the double-buffered boundary queue of conservative
/// parallel discrete-event simulation.
///
/// Exactness contract: a payload accepted by `StepTx` at cycle `a` must not
/// become deliverable before cycle `a + link_latency()`, and `StepTx` may
/// use at most the credit information established by the latest
/// `ExchangeAtBarrier` (plus the one delivery at the barrier cycle itself
/// that the barrier could predict exactly). `ExchangeAtBarrier` returns the
/// link's *credit slack*: the number of cycles for which the sender's stale
/// credit view provably makes the same accept/stall decisions as the fused
/// `Step` would; the engine never extends an epoch past the smallest slack.
class CutLink {
 public:
  virtual ~CutLink() = default;

  /// Pipeline depth in cycles; upper-bounds the epoch length (payloads
  /// cannot cross a partition boundary faster than this).
  virtual Cycle link_latency() const = 0;

  /// Enter/leave split mode. EndSplit must fold any staged sender-side
  /// payloads back into the fused pipeline state so sequential observers
  /// (delivered counters, a later sequential run) see a consistent link.
  virtual void BeginSplit() = 0;
  virtual void EndSplit() = 0;

  /// The split halves, stepped by their owning partitions.
  virtual void StepTx(Cycle now) = 0;
  virtual void StepRx(Cycle now) = 0;

  /// Barrier exchange at `epoch_start`; returns the credit slack (>= 1) for
  /// the epoch beginning there. Called with every partition synchronized at
  /// `epoch_start`, so committed FIFO state may be inspected freely.
  virtual Cycle ExchangeAtBarrier(Cycle epoch_start) = 0;

  /// Undo every counter update (deliveries, protocol events) made at cycle
  /// >= `cycle`, split or not. The parallel scheduler lets partitions
  /// overshoot the global completion cycle inside the final epoch; this
  /// trims the overshoot so merged traffic statistics match the sequential
  /// schedulers exactly.
  virtual void TrimDeliveriesAtOrAfter(Cycle cycle) = 0;

  /// The halves' FIFOs: the sender half's input (TX) and the receiver
  /// half's output (RX). A push into TX wakes the sender half on the next
  /// cycle; a pop from RX re-asks NextRxSelfWake.
  virtual const FifoBase* tx_fifo() const = 0;
  virtual const FifoBase* rx_fifo() const = 0;

  /// The halves' self-wakes, mirroring the fused component's contract: the
  /// receiver wakes when a matured payload can be delivered or a pending
  /// one matures; the sender when a TX payload can be accepted, and a
  /// reliable link's also on acknowledgement maturity and retransmission
  /// timeouts. Credits crossing the cut arrive at barriers, where the
  /// engine steps both halves anyway.
  virtual Cycle NextRxSelfWake(Cycle now) const = 0;
  virtual Cycle NextTxSelfWake(Cycle now) const = 0;

  /// Bracket a parallel run. Called for *every* cut component (split or
  /// not) when the parallel scheduler starts/finishes, so the link can
  /// switch the undo journals of its trimmable counters on and off.
  virtual void BeginParallelRun() = 0;
  virtual void EndParallelRun() = 0;

  /// Epoch boundary notification for cut components that were *not* split
  /// (both endpoints landed in one partition). Split components piggyback on
  /// ExchangeAtBarrier to age out their undo journals; unsplit ones get this.
  virtual void OnUnsplitBarrier(Cycle epoch_start) = 0;
};

}  // namespace smi::sim

#endif  // SMI_SIM_COMPONENT_H
