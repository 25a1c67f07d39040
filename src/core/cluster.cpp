#include "core/cluster.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"
#include "core/innet.h"
#include "obs/recorder.h"

namespace smi::core {
namespace {

/// CK forwarding overhead per hop on top of the serial link latency (CKR
/// step, crossbar FIFO, CKS step), added to FabricConfig::link_latency for
/// the innet pacing computation. Calibrated against the measured merge rate
/// of `experiments innet`; an error of e cycles misaligns streams by at most
/// 2 * max_dist * e, which the combine hold window absorbs.
constexpr sim::Cycle kInnetHopOverhead = 13;

}  // namespace

Cluster::Cluster(const net::Topology& topology, std::vector<ProgramSpec> specs,
                 ClusterConfig config) {
  Build(topology, std::move(specs), config);
}

Cluster::Cluster(const net::Topology& topology, const ProgramSpec& spmd_spec,
                 ClusterConfig config) {
  // SPMD replicates the program over the COMPUTE ranks only: switch ranks
  // are forwarding-only and get an empty spec (no endpoints, no kernels).
  std::vector<ProgramSpec> specs(static_cast<std::size_t>(topology.num_ranks()));
  for (int r = 0; r < topology.num_ranks(); ++r) {
    if (!topology.is_switch(r)) specs[static_cast<std::size_t>(r)] = spmd_spec;
  }
  Build(topology, std::move(specs), config);
}

void Cluster::Build(const net::Topology& topology,
                    std::vector<ProgramSpec> specs,
                    const ClusterConfig& config) {
  num_ranks_ = topology.num_ranks();
  if (specs.size() != static_cast<std::size_t>(num_ranks_)) {
    throw ConfigError("need one ProgramSpec per rank");
  }
  for (int r = 0; r < num_ranks_; ++r) {
    if (topology.is_switch(r) && !specs[static_cast<std::size_t>(r)].empty()) {
      throw ConfigError("rank " + std::to_string(r) +
                        " is a forwarding-only switch and cannot host a "
                        "program");
    }
  }
  engine_ = std::make_unique<sim::Engine>(config.engine);

  // Derive the application endpoints each rank's fabric must provide.
  std::vector<transport::RankEndpoints> endpoints(
      static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    const ProgramSpec& spec = specs[static_cast<std::size_t>(r)];
    endpoints[static_cast<std::size_t>(r)].send_ports = spec.SendPorts();
    endpoints[static_cast<std::size_t>(r)].recv_ports = spec.RecvPorts();
  }
  fabric_ = std::make_unique<transport::Fabric>(*engine_, topology,
                                                std::move(endpoints),
                                                config.fabric);

  fabric_->UploadRoutes(net::ComputeRoutes(topology, config.routing,
                                           config.routing_seed,
                                           &routing_fell_back_));

  // Contexts + collective support kernels. Tagging with the rank keeps the
  // per-rank clock pointers and the support kernels inside the rank's
  // partition under the parallel scheduler.
  contexts_.resize(static_cast<std::size_t>(num_ranks_));
  const Communicator world = Communicator::World(num_ranks_);
  for (int r = 0; r < num_ranks_; ++r) {
    engine_->SetPartitionTag(r);
    Context& ctx = contexts_[static_cast<std::size_t>(r)];
    ctx.rank_ = r;
    ctx.world_ = world;
    ctx.fabric_ = fabric_.get();
    ctx.now_ = engine_->now_ptr();

    const ProgramSpec& spec = specs[static_cast<std::size_t>(r)];
    for (const OpSpec& op : spec.CollectiveOps()) {
      const CollKind kind = *op.coll_kind();
      TokenFifo& app_in = engine_->MakeFifo<CollToken>(
          "r" + std::to_string(r) + ".app->sup." + std::to_string(op.port),
          config.coll_fifo_depth);
      TokenFifo& app_out = engine_->MakeFifo<CollToken>(
          "r" + std::to_string(r) + ".sup->app." + std::to_string(op.port),
          config.coll_fifo_depth);

      SupportCtx sup;
      sup.my_global = r;
      sup.port = op.port;
      sup.app_in = &app_in;
      sup.app_out = &app_out;
      sup.net_out = &fabric_->SendEndpoint(r, op.port);
      sup.net_in = &fabric_->RecvEndpoint(r, op.port);
      sup.now = engine_->now_ptr();
      sup.engine = engine_.get();
      engine_->AddKernel(MakeSupportKernel(kind, op.algo, sup),
                         "r" + std::to_string(r) + "." +
                             CollKindName(kind) + ".sup." +
                             std::to_string(op.port),
                         /*daemon=*/true);

      Context::CollPort cp;
      cp.kind = kind;
      cp.type = op.type;
      cp.algo = op.algo;
      cp.innet_op = op.reduce_op;
      cp.app_in = &app_in;
      cp.app_out = &app_out;
      ctx.coll_ports_.emplace(op.port, cp);

      // Collect in-network Reduce ports: the participating ranks become the
      // port's communicator, its first participant the default root.
      if (op.algo == CollAlgo::kInnet) {
        const auto it = innet_ports_.find(op.port);
        if (it == innet_ports_.end()) {
          InnetPort p;
          p.op = op.reduce_op;
          p.type = op.type;
          p.root_global = r;
          p.comm_global = {r};
          innet_ports_.emplace(op.port, std::move(p));
        } else {
          if (it->second.op != op.reduce_op || it->second.type != op.type) {
            throw ConfigError(
                "in-network reduce port " + std::to_string(op.port) +
                " declared with mismatched reduce op or datatype across "
                "ranks");
          }
          it->second.comm_global.push_back(r);
        }
      }
    }
  }
  engine_->SetPartitionTag(sim::Engine::kUntaggedPartition);
  innet_hold_cycles_ = config.innet_hold_cycles;
  innet_hop_latency_ = config.fabric.link_latency + kInnetHopOverhead;
  if (!innet_ports_.empty()) UploadInnetHandlers();
}

Cluster::InnetRoutePlan Cluster::PlanInnetRoutes(const InnetPort& p) const {
  // Walk each contributor's route to the root and derive, per rank:
  //  * the funnel in-degree — how many contribution streams cross its
  //    network egress (the contributor counts at its own rank; the root's
  //    local delivery never reaches an egress). Caps the combine handlers'
  //    max_contribs so merged packets depart the moment every stream
  //    converging at a hop has been folded in.
  //  * the grant fan tree — each non-root's fan parent is the next
  //    communicator member on its routed path toward the root, so a grant
  //    descends exactly the data path in reverse and reaches rank r after
  //    dist(r, root) hops.
  //  * the pacing delay — (D - dist(r)) * 2 * L_hop cycles, which lines all
  //    contribution streams up at every funnel (innet.h "stream pacing").
  // If the routing tables are later replaced, all three may go stale, which
  // only costs merges and hold-window latency, never correctness (the root
  // counts contributions per element).
  InnetRoutePlan plan;
  plan.funnel.assign(static_cast<std::size_t>(num_ranks_), 0);
  plan.fan_children.assign(static_cast<std::size_t>(num_ranks_), {});
  plan.pace_wait.assign(static_cast<std::size_t>(num_ranks_), 0);
  std::vector<char> in_comm(static_cast<std::size_t>(num_ranks_), 0);
  for (const int r : p.comm_global) in_comm[static_cast<std::size_t>(r)] = 1;
  std::vector<int> dist(static_cast<std::size_t>(num_ranks_), 0);
  int max_dist = 0;
  for (const int r : p.comm_global) {
    if (r == p.root_global) continue;
    const std::vector<int> path =
        fabric_->routes().Path(fabric_->topology(), r, p.root_global);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      ++plan.funnel[static_cast<std::size_t>(path[i])];
    }
    dist[static_cast<std::size_t>(r)] = static_cast<int>(path.size()) - 1;
    max_dist = std::max(max_dist, dist[static_cast<std::size_t>(r)]);
    int parent = p.root_global;
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (in_comm[static_cast<std::size_t>(path[i])] != 0) {
        parent = path[i];
        break;
      }
    }
    plan.fan_children[static_cast<std::size_t>(parent)].push_back(r);
  }
  for (const int r : p.comm_global) {
    if (r == p.root_global) continue;
    plan.pace_wait[static_cast<std::size_t>(r)] = static_cast<int>(
        static_cast<sim::Cycle>(max_dist - dist[static_cast<std::size_t>(r)]) *
        2 * innet_hop_latency_);
  }
  plan.rtt = static_cast<int>(static_cast<sim::Cycle>(max_dist) * 2 *
                              innet_hop_latency_);
  return plan;
}

void Cluster::UploadInnetHandlers() {
  std::vector<transport::HandlerTable> tables(
      static_cast<std::size_t>(num_ranks_));
  std::map<int, InnetRoutePlan> plans;
  for (const auto& [port, p] : innet_ports_) {
    InnetRoutePlan plan = PlanInnetRoutes(p);
    if (p.comm_global.size() > 1) {  // else nothing crosses the network
      AppendInnetHandlers(tables, port, p.op, p.type, innet_hold_cycles_,
                          plan.funnel, plan.fan_children);
    }
    plans.emplace(port, std::move(plan));
  }
  fabric_->UploadHandlers(tables);
  // Refresh the open-time validation data and pacing of the participating
  // contexts.
  for (const auto& [port, p] : innet_ports_) {
    const InnetRoutePlan& plan = plans.at(port);
    for (const int g : p.comm_global) {
      Context::CollPort& cp =
          contexts_[static_cast<std::size_t>(g)].coll_ports_.at(port);
      cp.innet_root_global = p.root_global;
      cp.innet_comm = p.comm_global;
      cp.innet_pace_wait = plan.pace_wait[static_cast<std::size_t>(g)];
      cp.innet_rtt = plan.rtt;
    }
  }
}

void Cluster::ConfigureInnetHandlers(int port, int root_global,
                                     std::vector<int> comm_global) {
  const auto it = innet_ports_.find(port);
  if (it == innet_ports_.end()) {
    throw ConfigError("port " + std::to_string(port) +
                      " hosts no in-network reduce (CollAlgo::kInnet)");
  }
  InnetPort& p = it->second;
  if (!comm_global.empty()) {
    for (const int g : comm_global) {
      if (g < 0 || g >= num_ranks_ || fabric_->topology().is_switch(g)) {
        throw ConfigError("in-network reduce communicator member " +
                          std::to_string(g) + " is not a compute rank");
      }
      // Every member needs the port's support kernel and endpoints.
      if (std::find(p.comm_global.begin(), p.comm_global.end(), g) ==
              p.comm_global.end() &&
          contexts_[static_cast<std::size_t>(g)].coll_ports_.count(port) ==
              0) {
        throw ConfigError("rank " + std::to_string(g) +
                          " declares no collective on port " +
                          std::to_string(port));
      }
    }
    p.comm_global = std::move(comm_global);
  }
  if (std::find(p.comm_global.begin(), p.comm_global.end(), root_global) ==
      p.comm_global.end()) {
    throw ConfigError("in-network reduce root " +
                      std::to_string(root_global) +
                      " is not in the port's communicator");
  }
  p.root_global = root_global;
  UploadInnetHandlers();
}

Context& Cluster::context(int rank) {
  if (rank < 0 || rank >= num_ranks_) {
    throw ConfigError("rank out of range: " + std::to_string(rank));
  }
  return contexts_[static_cast<std::size_t>(rank)];
}

void Cluster::AddMemoryBanks(int rank, int count, double words_per_cycle) {
  Context& ctx = context(rank);
  sim::PartitionTagScope tag(*engine_, rank);
  for (int i = 0; i < count; ++i) {
    ctx.memory_banks_.push_back(&engine_->MakeComponent<sim::MemoryBank>(
        "r" + std::to_string(rank) + ".ddr" +
            std::to_string(ctx.memory_banks_.size()),
        words_per_cycle));
  }
}

void Cluster::AddKernel(int rank, sim::Kernel kernel, const std::string& name) {
  (void)context(rank);  // range check
  if (fabric_->topology().is_switch(rank)) {
    throw ConfigError("rank " + std::to_string(rank) +
                      " is a forwarding-only switch and cannot host kernel " +
                      name);
  }
  sim::PartitionTagScope tag(*engine_, rank);
  engine_->AddKernel(std::move(kernel),
                     "r" + std::to_string(rank) + "." + name,
                     /*daemon=*/false);
}

RunResult Cluster::Run() {
  const sim::RunStats stats = engine_->Run();
  RunResult result;
  result.cycles = stats.cycles;
  result.seconds = stats.seconds;
  result.microseconds = stats.seconds * 1e6;
  result.link_packets = fabric_->TotalLinkPackets();
  result.kernel_resumes = stats.kernel_resumes;
  result.partitions = stats.partitions;
  SMI_LOG_INFO << "cluster run complete: " << result.cycles << " cycles ("
               << result.microseconds << " us), " << result.link_packets
               << " link packets";
  return result;
}

json::Value Cluster::CountersJson() const {
  const obs::Recorder* rec = engine_->recorder();
  return rec != nullptr ? rec->CountersJson() : json::Value();
}

json::Value Cluster::CountersSummaryJson() const {
  const obs::Recorder* rec = engine_->recorder();
  return rec != nullptr ? rec->SummaryJson() : json::Value();
}

json::Value Cluster::TraceJson() const {
  const obs::Recorder* rec = engine_->recorder();
  return rec != nullptr && rec->trace_enabled() ? rec->TraceJson()
                                                : json::Value();
}

json::Value Cluster::FaultsJson() const { return fabric_->FaultsJson(); }

json::Value Cluster::FidelityJson() const { return fabric_->FidelityJson(); }

void Cluster::Annotate(const std::string& key, json::Value value) {
  obs::Recorder* rec = engine_->recorder();
  if (rec != nullptr) rec->Annotate(key, std::move(value));
}

RunTelemetry Cluster::CaptureTelemetry() const {
  RunTelemetry t;
  t.counters = CountersJson();
  t.summary = CountersSummaryJson();
  t.trace = TraceJson();
  t.faults = FaultsJson();
  t.fidelity = FidelityJson();
  return t;
}

}  // namespace smi::core
