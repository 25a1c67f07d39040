#ifndef SMI_CORE_CLUSTER_H
#define SMI_CORE_CLUSTER_H

/// \file cluster.h
/// The host runtime: builds a simulated multi-FPGA cluster from a topology
/// and per-rank program specs, uploads routing tables, launches application
/// kernels, and runs the simulation to completion — the analogue of the
/// paper's generated host header (`SMI_Init` + kernel launch + route
/// upload; §4.5).
///
/// Usage:
///   Cluster cluster(net::Topology::Torus2D(2, 4), spec /*SPMD*/);
///   for (int r = 0; r < 8; ++r)
///     cluster.AddKernel(r, MyKernel(cluster.context(r), args...), "app");
///   const RunResult result = cluster.Run();

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/context.h"
#include "core/program.h"
#include "core/support.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "transport/fabric.h"

namespace smi::core {

struct ClusterConfig {
  transport::FabricConfig fabric;
  sim::EngineConfig engine;
  net::RoutingScheme routing = net::RoutingScheme::kAuto;
  /// Tie-break seed for the seeded routing schemes (minimal-adaptive,
  /// Valiant); ignored by the others. See net::ComputeRoutes.
  std::uint64_t routing_seed = 0;
  /// Depth of the FIFOs between applications and collective support kernels.
  std::size_t coll_fifo_depth = 16;
  /// Hold window of the reduce-in-transit combine buffers (cycles a lone
  /// packet waits for a merge partner before forwarding unmodified); used
  /// for the handler tables of in-network Reduce ports (CollAlgo::kInnet).
  /// The default absorbs the residual jitter of the paced contribution
  /// streams (see innet.h "stream pacing"); thanks to the funnel in-degree
  /// caps only tail/misaligned packets ever wait it out.
  int innet_hold_cycles = 16;
};

/// Telemetry documents pulled from a cluster after Run() (see
/// obs/recorder.h). All values are JSON null unless the engine config
/// enabled `collect_counters` / `collect_trace`, so the struct is free to
/// capture unconditionally.
struct RunTelemetry {
  json::Value counters;  ///< per-entity counter document
  json::Value summary;   ///< aggregate totals (small; embeddable in reports)
  json::Value trace;     ///< Chrome trace-event document
  json::Value faults;    ///< fault/reliability report (null without a plan)
  json::Value fidelity;  ///< link-fidelity report (null in cycle mode)
  bool captured() const { return !summary.is_null(); }
};

struct RunResult {
  sim::Cycle cycles = 0;
  double seconds = 0.0;
  double microseconds = 0.0;
  std::uint64_t link_packets = 0;
  /// Coroutine resumes across the run, merged over all scheduler partitions
  /// (bit-identical across the three schedulers; see engine.h).
  std::uint64_t kernel_resumes = 0;
  /// Partitions used by the engine (1 under the sequential schedulers).
  unsigned partitions = 1;
};

class Cluster {
 public:
  /// MPMD: one ProgramSpec per rank.
  Cluster(const net::Topology& topology, std::vector<ProgramSpec> specs,
          ClusterConfig config = {});
  /// SPMD: the same ProgramSpec on every rank.
  Cluster(const net::Topology& topology, const ProgramSpec& spmd_spec,
          ClusterConfig config = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_ranks() const { return num_ranks_; }
  Context& context(int rank);

  /// Attach `count` DRAM banks with the given streaming rate to a rank (see
  /// sim::MemoryBank; 1.0 = 16 float elements per cycle per bank).
  void AddMemoryBanks(int rank, int count, double words_per_cycle);

  /// Register an application kernel on `rank`. Kernels keep the run alive;
  /// the run completes when all of them finish.
  void AddKernel(int rank, sim::Kernel kernel, const std::string& name);

  /// Replace the routing tables (recomputed for a different topology or
  /// rank subset) without rebuilding the fabric.
  void UploadRoutes(const net::RoutingTable& routes) {
    fabric_->UploadRoutes(routes);
  }

  /// Re-target an in-network Reduce port (CollAlgo::kInnet): rebuild and
  /// re-upload the handler tables for `root_global` (and, when non-empty,
  /// a new communicator membership). Build() installs every innet port with
  /// root = its first participating rank and the participants as the
  /// communicator; call this before Run() to reduce toward a different
  /// root. Channel opens on the port are validated against this
  /// configuration.
  void ConfigureInnetHandlers(int port, int root_global,
                              std::vector<int> comm_global = {});

  /// Run the simulation to completion.
  RunResult Run();

  /// Telemetry documents collected during Run() (see obs/recorder.h). Null
  /// JSON values unless the engine config enabled `collect_counters` /
  /// `collect_trace`.
  json::Value CountersJson() const;
  json::Value CountersSummaryJson() const;
  json::Value TraceJson() const;
  /// Fault/reliability report (null when no fault plan is enabled);
  /// independent of the telemetry switches. See Fabric::FaultsJson.
  json::Value FaultsJson() const;
  /// Link-fidelity report (null when the engine's fidelity mode is kCycle);
  /// independent of the telemetry switches. See Fabric::FidelityJson.
  json::Value FidelityJson() const;
  /// All documents at once — call after Run(), before destruction.
  RunTelemetry CaptureTelemetry() const;

  /// Attach a JSON annotation to the telemetry documents (see
  /// obs::Recorder::Annotate); no-op when telemetry is disabled. Call
  /// before CaptureTelemetry.
  void Annotate(const std::string& key, json::Value value);

  sim::Engine& engine() { return *engine_; }
  transport::Fabric& fabric() { return *fabric_; }
  /// The fabric's uploaded routing table (after a failover, the table over
  /// the surviving cables).
  const net::RoutingTable& routes() const { return fabric_->routes(); }
  /// True when a seeded scheme's table failed the CDG acyclicity check and
  /// the up*/down* escape table was uploaded instead.
  bool routing_fell_back() const { return routing_fell_back_; }

 private:
  /// One in-network Reduce port: the build-time (op, type) pair baked into
  /// its combine handlers and the current root/communicator of its fan tree.
  struct InnetPort {
    ReduceOp op = ReduceOp::kAdd;
    DataType type = DataType::kInt;
    int root_global = 0;
    std::vector<int> comm_global;
  };

  void Build(const net::Topology& topology, std::vector<ProgramSpec> specs,
             const ClusterConfig& config);
  /// Rebuild the per-rank handler tables from `innet_ports_`, upload them,
  /// and refresh the contexts' open-time validation data.
  void UploadInnetHandlers();

  /// Everything an innet port's handler tables and pacing need from the
  /// routing tables (all vectors indexed by global rank; see innet.h).
  struct InnetRoutePlan {
    /// Funnel in-degree: contributions routing through the rank's network
    /// egress toward the root (caps the combine handlers' max_contribs).
    std::vector<int> funnel;
    /// Grant fan tree children: the rank's fan-out targets, derived as the
    /// reverse of the data routing tree so fan distance == data distance.
    std::vector<std::vector<int>> fan_children;
    /// Per-rank stream-pacing delay in cycles (innet.h "stream pacing").
    std::vector<int> pace_wait;
    /// Grant round-trip of the communicator: 2 * max distance * hop
    /// latency; the root's bandwidth-delay-product window covers it.
    int rtt = 0;
  };
  InnetRoutePlan PlanInnetRoutes(const InnetPort& p) const;

  int num_ranks_ = 0;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<transport::Fabric> fabric_;
  std::vector<Context> contexts_;
  bool routing_fell_back_ = false;
  std::map<int, InnetPort> innet_ports_;  // port -> configuration
  int innet_hold_cycles_ = 16;
  /// Per-hop latency used for the pacing computation: the fabric's serial
  /// link latency plus the CK forwarding overhead (see PlanInnetRoutes).
  sim::Cycle innet_hop_latency_ = 0;
};

}  // namespace smi::core

#endif  // SMI_CORE_CLUSTER_H
