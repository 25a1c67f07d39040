#include "core/context.h"

#include "common/error.h"

namespace smi::core {

SendChannel Context::OpenSendChannel(int count, DataType type, int destination,
                                     int port, const Communicator& comm) {
  const int dst_global = comm.GlobalRank(destination);
  return SendChannel(fabric_->SendEndpoint(rank_, port), count, type, rank_,
                     dst_global, port);
}

RecvChannel Context::OpenRecvChannel(int count, DataType type, int source,
                                     int port, const Communicator& comm) {
  const int src_global = comm.GlobalRank(source);
  return RecvChannel(fabric_->RecvEndpoint(rank_, port), count, type,
                     src_global, port);
}

const Context::CollPort& Context::FindCollPort(int port, CollKind kind,
                                               DataType type) const {
  const auto it = coll_ports_.find(port);
  if (it == coll_ports_.end()) {
    throw ConfigError("rank " + std::to_string(rank_) + " has no " +
                      std::string(CollKindName(kind)) +
                      " support kernel on port " + std::to_string(port) +
                      " (missing from the ProgramSpec?)");
  }
  if (it->second.kind != kind) {
    throw ConfigError(std::string("port ") + std::to_string(port) +
                      " hosts a " + CollKindName(it->second.kind) +
                      " support kernel, not " + CollKindName(kind));
  }
  if (it->second.type != type) {
    throw ConfigError(std::string("collective on port ") +
                      std::to_string(port) + " was built for " +
                      DataTypeName(it->second.type) + ", opened with " +
                      DataTypeName(type));
  }
  return it->second;
}

CollConfig Context::MakeCollConfig(CollKind kind, int count, DataType type,
                                   int root, const Communicator& comm,
                                   int credits) const {
  CollConfig cfg;
  cfg.kind = kind;
  cfg.count = count;
  cfg.type = type;
  cfg.root_comm = root;
  cfg.credits = credits;
  cfg.comm_global = comm.global_ranks();
  return cfg;
}

BcastChannel Context::OpenBcastChannel(int count, DataType type, int port,
                                       int root, const Communicator& comm) {
  const CollPort& cp = FindCollPort(port, CollKind::kBcast, type);
  return BcastChannel(
      MakeCollConfig(CollKind::kBcast, count, type, root, comm, 0),
      rank_, *cp.app_in, *cp.app_out);
}

ReduceChannel Context::OpenReduceChannel(int count, DataType type, ReduceOp op,
                                         int port, int root,
                                         const Communicator& comm,
                                         int credits) {
  const CollPort& cp = FindCollPort(port, CollKind::kReduce, type);
  // An in-network reduce bakes its fold function and credit fan tree into
  // the fabric's handler tables; the open must match them.
  if (cp.algo == CollAlgo::kInnet) {
    if (op != cp.innet_op) {
      throw ConfigError(std::string("in-network reduce on port ") +
                        std::to_string(port) + " was built for " +
                        ReduceOpName(cp.innet_op) + ", opened with " +
                        ReduceOpName(op));
    }
    if (comm.GlobalRank(root) != cp.innet_root_global) {
      throw ConfigError(
          "in-network reduce on port " + std::to_string(port) +
          " has its fan tree rooted at global rank " +
          std::to_string(cp.innet_root_global) +
          "; re-target with Cluster::ConfigureInnetHandlers before opening "
          "toward global rank " + std::to_string(comm.GlobalRank(root)));
    }
    if (comm.global_ranks() != cp.innet_comm) {
      throw ConfigError(
          "in-network reduce on port " + std::to_string(port) +
          " opened with a communicator that does not match its configured "
          "handler tables (Cluster::ConfigureInnetHandlers)");
    }
  }
  CollConfig cfg =
      MakeCollConfig(CollKind::kReduce, count, type, root, comm, credits);
  cfg.op = op;
  if (cp.algo == CollAlgo::kInnet) {
    cfg.pace_wait = cp.innet_pace_wait;
    cfg.window_cycles = cp.innet_rtt;
  }
  return ReduceChannel(std::move(cfg), rank_, *cp.app_in, *cp.app_out);
}

AllreduceChannel Context::OpenAllreduceChannel(int count, DataType type,
                                               ReduceOp op, int port,
                                               const Communicator& comm,
                                               int credits) {
  const CollPort& cp = FindCollPort(port, CollKind::kAllreduce, type);
  // Rootless at the API level; the kernel's reduce/broadcast tree is rooted
  // at communicator rank 0 as an implementation detail.
  CollConfig cfg = MakeCollConfig(CollKind::kAllreduce, count, type,
                                  /*root=*/0, comm, credits);
  cfg.op = op;
  return AllreduceChannel(std::move(cfg), rank_, *cp.app_in, *cp.app_out);
}

ScatterChannel Context::OpenScatterChannel(int count, DataType type, int port,
                                           int root,
                                           const Communicator& comm) {
  const CollPort& cp = FindCollPort(port, CollKind::kScatter, type);
  return ScatterChannel(
      MakeCollConfig(CollKind::kScatter, count, type, root, comm, 0),
      rank_, *cp.app_in, *cp.app_out);
}

GatherChannel Context::OpenGatherChannel(int count, DataType type, int port,
                                         int root, const Communicator& comm) {
  const CollPort& cp = FindCollPort(port, CollKind::kGather, type);
  return GatherChannel(
      MakeCollConfig(CollKind::kGather, count, type, root, comm, 0),
      rank_, *cp.app_in, *cp.app_out);
}

sim::MemoryBank& Context::memory_bank(int index) {
  if (index < 0 || index >= static_cast<int>(memory_banks_.size())) {
    throw ConfigError("rank " + std::to_string(rank_) +
                      " has no memory bank " + std::to_string(index));
  }
  return *memory_banks_[static_cast<std::size_t>(index)];
}

}  // namespace smi::core
