#ifndef SMI_OBS_RECORDER_H
#define SMI_OBS_RECORDER_H

/// \file recorder.h
/// Owner and registry of all telemetry collected during an engine run.
///
/// The engine creates one Recorder when telemetry is enabled and hands each
/// instrumented entity (FIFO, CK, link, kernel) a stable pointer into the
/// recorder's storage at attach time; entities then update their blocks
/// directly with no indirection through the recorder on the hot path.
/// Blocks live in deques so pointers survive later registrations.
///
/// Registration order is the engine's entity order, which is identical
/// across schedulers — so the exported documents are directly comparable
/// (and asserted bit-identical in the differential tests).

#include <deque>
#include <string>

#include "common/json.h"
#include "obs/counters.h"

namespace smi::obs {

class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  bool trace_enabled() const { return trace_; }

  /// --- registration (engine attach pass; pointers stay valid) ---
  FifoCounters* AddFifo(const std::string& name);
  CkCounters* AddCk(const std::string& name);
  LinkCounters* AddLink(const std::string& name, Cycle latency);
  KernelProbe* AddKernel(const std::string& name);

  /// --- parallel-scheduler hooks (called between epochs, single-threaded) ---
  void SetJournaling(bool on);
  void ClearJournals();
  /// Undo all journaled updates and drop trace events at cycles >= `cycle`
  /// (the merged finish cycle; partitions overshoot it in the final epoch).
  void TrimAtOrAfter(Cycle cycle);

  /// Attach an arbitrary JSON annotation (e.g. the MPI shim's collective
  /// algorithm-selector decisions), exported under "annotations" in both
  /// the counter and summary documents. Single-threaded: call before or
  /// after Run(), not from kernels. Re-annotating a key replaces it.
  void Annotate(const std::string& key, json::Value value);

  /// Close all open duration spans at end of run; `total_cycles` is the
  /// run's final cycle count. Idempotent per run; a later run finalizes
  /// again at its own end.
  void Finalize(Cycle total_cycles);

  /// --- export ---
  /// Full per-entity counter document:
  ///   {"total_cycles": N, "fifos": [...], "cks": [...], "links": [...],
  ///    "kernels": [...]}
  json::Value CountersJson() const;
  /// Aggregate totals, small enough to embed in a BENCH_<name>.json report.
  json::Value SummaryJson() const;
  /// Chrome trace-event document (see trace.h).
  json::Value TraceJson() const;

 private:
  bool trace_;
  Cycle total_cycles_ = 0;
  std::deque<FifoCounters> fifos_;
  std::deque<CkCounters> cks_;
  std::deque<LinkCounters> links_;
  std::deque<KernelProbe> kernels_;
  json::Object annotations_;
};

}  // namespace smi::obs

#endif  // SMI_OBS_RECORDER_H
