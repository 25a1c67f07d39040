#ifndef SMI_SIM_FIDELITY_H
#define SMI_SIM_FIDELITY_H

/// \file fidelity.h
/// Per-link simulation-fidelity policy: cycle-accurate vs flow-level.
///
/// The cycle-accurate link models (`FlowLink` in cycle mode,
/// `ReliableLink`) step every cycle while traffic flows. In uncongested
/// steady state that work is pure overhead: the link accepts exactly one
/// payload per cycle and delivers it `latency` cycles later, a behaviour
/// that a closed-form expression reproduces exactly. `FlowLink`
/// (flow_link.h) exploits this: under kFlow/kAuto it starts cycle-accurate
/// and, once a link has been provably undisturbed for a configurable
/// window, replaces per-cycle stepping with one *modeled wake* per
/// `flow_interval` cycles that moves payloads in bulk using the analytic
/// estimate below. Any event the analytic model cannot capture —
/// congestion onset, a fault plan on the link, a collective
/// synchronization point, a parallel-scheduler run — demotes the link back
/// to cycle accuracy (see DESIGN.md §10 for the full state machine).
///
/// The analytic model is *calibrated*, not assumed: the constants in
/// `FidelityCalibration` are fit offline against cycle-accurate
/// `experiments latency` and `experiments bandwidth` runs and checked into
/// `data/fidelity_calibration.json`. For this fabric the steady-state model
/// is structurally exact (one payload per cycle, fixed pipeline latency), so
/// the shipped constants are the identity — but the calibration path keeps
/// the flow model honest if the cycle-accurate link ever changes.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/counters.h"
#include "sim/clock.h"

namespace smi::sim {

/// Per-link fidelity selection.
///  * kCycle — always cycle-accurate (the pre-existing behaviour).
///  * kFlow  — promote to the flow model as soon as steady state is
///             observed (steady window 0); still demotes on disturbance.
///  * kAuto  — promote after `FidelityPolicy::steady_window` undisturbed
///             payloads, demote on any disturbance; the recommended mode.
enum class FidelityMode {
  kCycle,
  kFlow,
  kAuto,
};

/// Strict full-token parse of a fidelity mode ("cycle" | "flow" | "auto",
/// case-sensitive, no surrounding garbage — "Auto", "flow," and "" are all
/// rejected). Throws ConfigError on anything else.
FidelityMode ParseFidelityMode(const std::string& text);
const char* FidelityModeName(FidelityMode mode);

/// Constants of the analytic steady-state model, calibrated offline against
/// cycle-accurate runs (see data/fidelity_calibration.json).
struct FidelityCalibration {
  /// Inverse steady-state bandwidth: cycles consumed per payload on a
  /// saturated link (1.0 = one payload per cycle, the line rate).
  double cycles_per_payload = 1.0;
  /// Effective pipeline latency = round(latency * latency_scale) + offset.
  double latency_scale = 1.0;
  std::int64_t latency_offset = 0;

  /// Strict parse of a calibration object: all three keys required, numbers
  /// only, cycles_per_payload and latency_scale > 0, no unknown keys.
  /// Throws ConfigError on violation.
  static FidelityCalibration FromJson(const json::Value& v);
  /// Load from a JSON file holding {"calibration": {...}}.
  static FidelityCalibration FromFile(const std::string& path);
  json::Value ToJson() const;
};

/// Engine-level fidelity policy, applied to every FlowLink the fabric
/// builds (EngineConfig::fidelity).
struct FidelityPolicy {
  FidelityMode mode = FidelityMode::kCycle;
  /// Consecutive undisturbed accepted payloads before a link promotes to
  /// the flow model (kAuto; kFlow promotes at the first opportunity).
  Cycle steady_window = 256;
  /// Target cycles between modeled wakes. Clamped per link to one less
  /// than each interface FIFO's capacity so bulk transfers can never
  /// outrun what the cycle-accurate link would have moved.
  Cycle flow_interval = 64;
  /// Thrash detection: warn (once per window) when a link transitions
  /// between fidelity modes more than `thrash_limit` times within any
  /// `thrash_window` cycles.
  std::uint64_t thrash_limit = 8;
  Cycle thrash_window = 10000;
  FidelityCalibration calibration;

  bool enabled() const { return mode != FidelityMode::kCycle; }
};

/// One modeled bulk transfer, planned by PlanFlowTransfer.
struct FlowBatch {
  /// Payloads to pop from TX this wake.
  std::uint64_t accepts = 0;
  /// Estimated pop cycle of the first accepted payload. Pops are spaced one
  /// cycle apart ending at the wake cycle (the *latest-consistent* schedule:
  /// on a saturated link it coincides with the exact per-cycle schedule, and
  /// on an underfull link it never claims a pop earlier than the
  /// cycle-accurate link could have performed it).
  Cycle first_pop = 0;
  /// Line-rate capacity of the elapsed window (elapsed / cycles_per_payload)
  /// before the TX-occupancy and credit bounds. accepts < interval_budget
  /// with a drained TX marks a stream tail (see FlowLink's demotion rules).
  std::uint64_t interval_budget = 0;
};

/// Plan the bulk transfer for a modeled wake at `now`, where the previous
/// wake was at `last_wake`. `tx_available` is the committed TX occupancy,
/// `window_free` the remaining credit/backlog allowance. Pure function —
/// unit-tested against closed forms in tests/sim/fidelity_test.cpp.
FlowBatch PlanFlowTransfer(Cycle last_wake, Cycle now,
                           std::uint64_t tx_available,
                           std::uint64_t window_free,
                           const FidelityCalibration& calib);

/// Calibrated effective pipeline latency of a hop (>= 0).
Cycle EstimateHopLatency(Cycle link_latency, const FidelityCalibration& calib);

/// Calibrated steady-state bandwidth in payloads per cycle.
double EstimateSteadyBandwidth(const FidelityCalibration& calib);

/// Control interface every FlowLink registers with its engine, letting the
/// engine demote links at collective synchronization points and pin them to
/// cycle accuracy for the duration of a parallel run.
class FlowLinkControl {
 public:
  virtual ~FlowLinkControl();
  /// Collective sync point (channel open/close): drop to cycle accuracy so
  /// the rendezvous/credit traffic is timed exactly.
  virtual void DemoteForSync(Cycle now) = 0;
  /// Drain cascade: the upstream flow link feeding this link's TX FIFO ran
  /// dry, so the stream tail is about to arrive here too. Demoting at once —
  /// instead of discovering the drain a wake later — re-times the tail
  /// cycle-accurately at every hop and keeps the flow model's tail error
  /// per *stream*, not per hop.
  virtual void DemoteForDrain(Cycle now) = 0;
  /// Promotion cascade: the upstream link feeding this link's TX FIFO just
  /// promoted, so this link — if it holds its own (near-window) steady
  /// evidence — should promote in the same cycle. Promoting a chain link by
  /// link leaves one delivery pause (promotion to first modeled wake) per
  /// hop, and each pause starves the downstream sink for ~an interval; the
  /// cascade overlaps all those pauses into one. No-op unless the link is
  /// saturated and its fast-promotion evidence is armed.
  virtual void PromoteForCascade(Cycle now) = 0;
  /// Pin to cycle accuracy (parallel scheduler runs; the split-link
  /// exactness proof only covers cycle-stepped links).
  virtual void SetForcedCycle(bool forced) = 0;
  /// The FIFOs this link pops from / delivers into (cascade and upstream
  /// topology discovery).
  virtual const void* flow_tx_fifo() const = 0;
  virtual const void* flow_rx_fifo() const = 0;
  virtual const obs::FidelityCounters& fidelity_counters() const = 0;
  virtual const std::string& flow_link_name() const = 0;
  virtual bool in_flow_mode() const = 0;
};

/// Canonical "fidelity" report section consumed by report_check: mode,
/// aggregate modeled-cycle fraction, promotion/demotion counts by cause,
/// thrash warnings, and a per-link breakdown.
json::Value FidelityReportJson(FidelityMode mode,
                               const std::vector<const FlowLinkControl*>& links);

}  // namespace smi::sim

#endif  // SMI_SIM_FIDELITY_H
