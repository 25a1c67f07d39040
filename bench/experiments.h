#ifndef SMI_BENCH_EXPERIMENTS_H
#define SMI_BENCH_EXPERIMENTS_H

/// \file experiments.h
/// The experiment driver, `experiments <name> [options]`: one registry of
/// named experiments reproducing the paper's evaluation (Tables 1-4, Figs.
/// 9-16) and the ablations and extensions in EXPERIMENTS.md. The driver
/// parses the shared options once, and every experiment checks its own
/// results (host references, the shapes EXPERIMENTS.md claims, the written
/// reports read back) on every invocation: a failed check exits 1.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/perf_report.h"
#include "common/string_util.h"
#include "core/smi.h"
#include "net/packet.h"
#include "net/topology.h"

namespace smi::mpi {
class DecisionLog;
}  // namespace smi::mpi

namespace smi::bench {

/// Shared option groups an experiment takes besides `--json`.
enum Shared : unsigned {
  kObs = 1u << 0,           ///< --counters, --trace
  kFaults = 1u << 1,        ///< --fault-plan, --fault-seed
  kFidelityMode = 1u << 2,  ///< --fidelity
  kCalibration = 1u << 3,   ///< --fidelity-calibration
  kFidelity = kFidelityMode | kCalibration,
  /// Runs no simulation (a pure model): its report has no results rows.
  kModelOnly = 1u << 4,
};

/// One invocation of an experiment: its parsed options, the cluster
/// configuration the shared options produce, and the result checks.
class Bench {
 public:
  Bench(std::string name, const CliParser& cli, unsigned shared);

  int Int(const std::string& option) const {
    return static_cast<int>(cli_.GetInt(option));
  }
  bool Flag(const std::string& option) const { return cli_.GetFlag(option); }

  /// Default configuration with --counters/--trace and --fidelity applied.
  const core::ClusterConfig& config() const { return config_; }
  /// True when --fidelity selected a mode other than "cycle".
  bool fidelity_requested() const { return config_.engine.fidelity.enabled(); }
  /// True when --fault-plan was given. FaultConfig() is then a default
  /// configuration carrying the plan (and the telemetry options).
  bool faults() const { return fault_plan_.enabled; }
  core::ClusterConfig FaultConfig() const;

  /// Record one result check; a failed check makes the run exit 1.
  void Check(const std::string& name, bool ok, const std::string& detail);
  /// Record a check that this run's inputs are too small to decide.
  void Skip(const std::string& name, const std::string& why);

  /// Embed the telemetry of the run `obs` came from in `report`, write the
  /// --counters, --trace and --json documents, read each one back and check
  /// it. Call once, after the experiment's own checks.
  void Finish(PerfReport& report, const core::RunTelemetry& obs = {});

  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  void CheckFaults(const json::Value& faults);

  std::string name_;
  const CliParser& cli_;
  unsigned shared_;
  core::ClusterConfig config_;
  fault::FaultPlan fault_plan_;
  bool failed_ = false;
};

/// printf into a std::string (check details and labels).
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Everything one cluster run yields.
struct Measured {
  core::RunResult run;
  double wall_seconds = 0.0;  ///< host time of Cluster::Run
  core::RunTelemetry telemetry;
};

/// Run `cluster` and capture its telemetry, annotated with `selector_log`
/// (the MPI shim's selector decisions) when given.
Measured RunCluster(core::Cluster& cluster,
                    const mpi::DecisionLog* selector_log = nullptr);

inline void AddResult(PerfReport& report, const std::string& name,
                      const Measured& m) {
  report.AddResult(name, m.run.cycles, m.run.microseconds, m.wall_seconds);
}

/// The SPMD spec of the point-to-point experiments: one send and one recv
/// endpoint on port 0 of every rank.
core::ProgramSpec P2pSpec();

/// Wide-datapath packets (28 B of payload each) that carry `bytes`.
inline int PacketsFor(std::uint64_t bytes) {
  return static_cast<int>((bytes + net::kPayloadBytes - 1) /
                          net::kPayloadBytes);
}

/// Stream `packets` packets of `per_packet` ints over every (src, dst) pair
/// concurrently (7 ints fill a packet: the wide, one-packet-per-cycle
/// datapath). `fell_back` receives Cluster::routing_fell_back().
Measured Stream(const net::Topology& topo,
                const std::vector<std::pair<int, int>>& pairs, int packets,
                const core::ClusterConfig& config, int per_packet = 7,
                bool* fell_back = nullptr);

inline void PrintRule() { std::printf("%s\n", std::string(78, '-').c_str()); }

inline void PrintTitle(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

// The experiments, in registry order (see experiments.cpp).
void Latency(Bench& bench);         // Table 3
void Injection(Bench& bench);       // Table 4
void Bandwidth(Bench& bench);       // Fig. 9
void Resources(Bench& bench);       // Tables 1 and 2
void Bcast(Bench& bench);           // Fig. 10
void Reduce(Bench& bench);          // Fig. 11
void Gesummv(Bench& bench);         // Fig. 13
void StencilStrong(Bench& bench);   // Fig. 15
void StencilWeak(Bench& bench);     // Fig. 16
void CollectiveTree(Bench& bench);  // ablation: linear vs binomial tree
void FifoDepth(Bench& bench);       // ablation: asynchronicity degree k
void ScatterGather(Bench& bench);   // ablation: Scatter and Gather
void SimParallel(Bench& bench);     // parallel scheduler scaling
void Allreduce(Bench& bench);       // MPI shim: Allreduce and its selector
void MpiStencil(Bench& bench);      // MPI shim: ported Jacobi stencil
void Fidelity(Bench& bench);        // hybrid-fidelity links
void Scaleout(Bench& bench);        // torus / fat-tree / dragonfly
void Innet(Bench& bench);           // reduce-in-transit combining

}  // namespace smi::bench

#endif  // SMI_BENCH_EXPERIMENTS_H
