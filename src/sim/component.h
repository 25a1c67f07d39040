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
/// declaring its input FIFOs (DeclareWakeFifos) and reporting when it next
/// needs a timed wakeup (NextSelfWake). The defaults — no declared FIFOs and
/// a self-wake every cycle — make unmodified components behave exactly as
/// under the synchronous scheduler: they are stepped every cycle.
///
/// Contract for opting in: on any cycle where the component is *not*
/// stepped, its Step must have been a no-op (no FIFO operation, no state
/// change). That holds whenever
///   * every FIFO whose state can enable an action is declared via
///     DeclareWakeFifos (a commit with activity on one of them wakes the
///     component on the following cycle), and
///   * NextSelfWake returns the earliest future cycle at which the
///     component could act without any new FIFO activity (e.g. a link
///     pipeline slot maturing), or kNeverCycle if there is none.
/// Extra wakeups are always safe; a missed wakeup breaks cycle accuracy.
///
/// A component whose action depends on *how much* its inputs hold, not on
/// every transfer, may instead declare them through DeclareInputFifos: FIFOs
/// that this component alone pops. Its own pops then wake nothing; a commit
/// that carried a push re-asks NextSelfWake, which must then cover every
/// cycle the inputs' current contents could enable an action at. The
/// communication kernels use this to sleep until their polling pointer
/// reaches an input holding data (see transport/arbiter.h).

#include <string>
#include <vector>

#include "sim/clock.h"

namespace smi::obs {
class Recorder;
}

namespace smi::sim {

class FifoBase;

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }

  /// Advance one clock cycle.
  virtual void Step(Cycle now) = 0;

  /// Append the FIFOs whose committed activity must wake this component.
  /// Called by the engine when a run starts; the set must stay valid for the
  /// whole run. Default: none (combined with the NextSelfWake default this
  /// means "step me every cycle").
  virtual void DeclareWakeFifos(std::vector<const FifoBase*>& /*out*/) const {}

  /// Append the FIFOs that this component alone pops and whose pushes must
  /// re-ask NextSelfWake (see the file comment). Called by the engine when a
  /// run starts; the set must stay valid for the whole run. Default: none.
  virtual void DeclareInputFifos(std::vector<const FifoBase*>& /*out*/) const {
  }

  /// Earliest future cycle (> now) at which this component could act even
  /// without new activity on its declared FIFOs, or kNeverCycle if FIFO
  /// activity is the only thing that can enable it. Called right after each
  /// Step, once that cycle's FIFO commits are visible. A component with
  /// input FIFOs is also asked between steps, during the commits of a cycle
  /// that pushed into one of them, so the answer may depend only on the
  /// component's own state and on FIFO occupancy (which counts staged
  /// transfers, hence is the same before and after the commits).
  virtual Cycle NextSelfWake(Cycle now) const { return now + 1; }

  /// Called once per component when the engine starts collecting telemetry;
  /// the component registers its counter blocks with the recorder and keeps
  /// the returned pointers. Default: no telemetry.
  virtual void AttachObservability(obs::Recorder& /*recorder*/) {}

 private:
  std::string name_;
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

  /// Wake FIFOs of the two halves and the receiver half's timed self-wake
  /// (pipeline-head maturity), mirroring the fused component's contract.
  virtual const FifoBase* tx_wake_fifo() const = 0;
  virtual const FifoBase* rx_wake_fifo() const = 0;
  virtual Cycle NextRxSelfWake(Cycle now) const = 0;

  /// Sender half's timed self-wake. The lossless `FlowLink`'s sender only
  /// ever reacts to FIFO activity (kNeverCycle); a reliable link also wakes
  /// on acknowledgement maturity and retransmission timeouts.
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
