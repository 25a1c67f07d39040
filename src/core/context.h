#ifndef SMI_CORE_CONTEXT_H
#define SMI_CORE_CONTEXT_H

/// \file context.h
/// Per-rank view of the cluster handed to application kernels. Provides the
/// channel-open primitives of §3.1.1 and §3.2 — the simulated analogues of
/// SMI_Open_send_channel / SMI_Open_recv_channel / SMI_Open_bcast_channel /
/// SMI_Open_reduce_channel / ... — plus access to the rank's DRAM banks.
///
/// Rank arguments are communicator-relative, translated to global (wire)
/// ranks here, as in MPI.

#include <map>
#include <vector>

#include "core/channel.h"
#include "core/collective.h"
#include "core/comm.h"
#include "core/program.h"
#include "sim/memory.h"
#include "transport/fabric.h"

namespace smi::core {

class Cluster;

class Context {
 public:
  /// This rank's global id and the world communicator.
  int rank() const { return rank_; }
  int world_size() const { return world_.size(); }
  const Communicator& world() const { return world_; }

  /// SMI_Open_send_channel: a transient channel streaming `count` elements
  /// of `type` to `destination` (a rank of `comm`) on `port`.
  SendChannel OpenSendChannel(int count, DataType type, int destination,
                              int port, const Communicator& comm);

  /// SMI_Open_recv_channel: receive `count` elements of `type` from
  /// `source` (a rank of `comm`) on `port`.
  RecvChannel OpenRecvChannel(int count, DataType type, int source, int port,
                              const Communicator& comm);

  /// SMI_Open_bcast_channel.
  BcastChannel OpenBcastChannel(int count, DataType type, int port, int root,
                                const Communicator& comm);

  /// SMI_Open_reduce_channel. `credits` is the flow-control tile size C of
  /// §4.4 (buffer of accumulation results held at the root).
  ReduceChannel OpenReduceChannel(int count, DataType type, ReduceOp op,
                                  int port, int root, const Communicator& comm,
                                  int credits = 64);

  /// Allreduce channel open. Rootless: every rank contributes and every rank
  /// receives the reduced results. `credits` as for OpenReduceChannel.
  AllreduceChannel OpenAllreduceChannel(int count, DataType type, ReduceOp op,
                                        int port, const Communicator& comm,
                                        int credits = 64);

  /// Scatter/Gather channel opens (§3.2 leaves these to "the same scheme").
  ScatterChannel OpenScatterChannel(int count, DataType type, int port,
                                    int root, const Communicator& comm);
  GatherChannel OpenGatherChannel(int count, DataType type, int port,
                                  int root, const Communicator& comm);

  /// DRAM banks attached to this rank (see Cluster::AddMemoryBanks).
  sim::MemoryBank& memory_bank(int index);
  int num_memory_banks() const {
    return static_cast<int>(memory_banks_.size());
  }

  /// The engine cycle counter (for instrumentation inside kernels).
  const sim::Cycle* now_ptr() const { return now_; }

  /// Contexts are created and wired by Cluster; a default-constructed one
  /// is inert until then.
  Context() = default;

 private:
  friend class Cluster;

  struct CollPort {
    CollKind kind;
    DataType type;
    CollAlgo algo = CollAlgo::kLinear;
    TokenFifo* app_in = nullptr;
    TokenFifo* app_out = nullptr;
    /// In-network Reduce ports only: the (op, root, communicator) the
    /// installed handler tables were built for. The fold function and fan
    /// tree are baked into the fabric, so a channel open must match them
    /// (see Cluster::ConfigureInnetHandlers to re-target).
    ReduceOp innet_op = ReduceOp::kAdd;
    int innet_root_global = -1;
    std::vector<int> innet_comm;
    /// Per-rank stream-pacing delay and communicator grant round-trip
    /// (cycles) the Cluster derived from the routing tables; copied into
    /// CollConfig::{pace_wait, window_cycles} at open time.
    int innet_pace_wait = 0;
    int innet_rtt = 0;
  };

  const CollPort& FindCollPort(int port, CollKind kind, DataType type) const;
  CollConfig MakeCollConfig(CollKind kind, int count, DataType type,
                            int root, const Communicator& comm,
                            int credits) const;

  int rank_ = 0;
  Communicator world_ = Communicator::World(1);
  transport::Fabric* fabric_ = nullptr;
  const sim::Cycle* now_ = nullptr;
  std::map<int, CollPort> coll_ports_;
  std::vector<sim::MemoryBank*> memory_banks_;
};

}  // namespace smi::core

#endif  // SMI_CORE_CONTEXT_H
