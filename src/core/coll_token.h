#ifndef SMI_CORE_COLL_TOKEN_H
#define SMI_CORE_COLL_TOKEN_H

/// \file coll_token.h
/// Tokens exchanged between application kernels and collective support
/// kernels over on-chip FIFOs. A collective channel open pushes a config
/// token carrying the runtime parameters (count, datatype, root, op,
/// communicator membership); data elements follow as element tokens. This
/// mirrors how the generated SMI hardware parameterizes the support kernels
/// at runtime so root and non-root behaviour can be selected dynamically
/// (§4.4: "both the root and non-root behavior is instantiated at every
/// rank").

#include <string>
#include <variant>
#include <vector>

#include "core/types.h"
#include "sim/fifo.h"

namespace smi::core {

enum class CollKind : std::uint8_t {
  kBcast,
  kReduce,
  kScatter,
  kGather,
  /// Reduce-then-broadcast composition on a single collective port: every
  /// rank contributes `count` elements and every rank receives the reduced
  /// results (rootless, like MPI_Allreduce).
  kAllreduce,
};

const char* CollKindName(CollKind k);

/// Which implementation a collective's support kernel uses: the simple
/// linear scheme of the reference implementation, the binomial-tree
/// variant (the §4.4 extension; Bcast and Reduce only), or the in-network
/// variant (Reduce only): contributions stream flat to the root and are
/// folded *inside the network* by the reduce-in-transit handlers of
/// transport/handler.h, with credit grants multicast down a fan-out tree.
/// Baked into the fabric like everything else about the support kernels.
enum class CollAlgo : std::uint8_t { kLinear, kTree, kInnet };

/// "linear", "tree" or "innet": the one name table for plan and spec JSON.
const char* CollAlgoName(CollAlgo algo);
/// Inverse of CollAlgoName; throws ParseError for any other name.
CollAlgo ParseCollAlgo(const std::string& name);

/// Throws ConfigError unless a `kind` support kernel exists for `algo`:
/// the tree scheme covers Bcast, Reduce and Allreduce, the in-network one
/// only Reduce.
void CheckCollAlgo(CollKind kind, CollAlgo algo);

struct CollConfig {
  CollKind kind = CollKind::kBcast;
  int count = 0;                 ///< elements per rank (message length)
  DataType type = DataType::kInt;
  int root_comm = 0;             ///< root as a communicator rank
  ReduceOp op = ReduceOp::kAdd;  ///< reduce only
  int credits = 64;              ///< reduce flow-control tile size C (§4.4)
  /// In-network Reduce only: cycles this (non-root) rank waits after each
  /// tile grant before streaming the tile, chosen by the Cluster so every
  /// contributor's packet for a given base reaches each funnel rank at the
  /// same time and the reduce-in-transit combiners actually merge them (see
  /// innet.h, "stream pacing").
  int pace_wait = 0;
  /// In-network Reduce only: the communicator's grant round-trip time in
  /// cycles (grant fan-out descent plus contribution travel back). The root
  /// sizes its accumulation window to cover it — the classic
  /// bandwidth-delay product — so tile grants stay ahead of the farthest
  /// rank and the round-trip hides behind the streaming.
  int window_cycles = 0;
  std::vector<int> comm_global;  ///< communicator members (global ranks)
};

using CollToken = std::variant<CollConfig, Element>;
using TokenFifo = sim::Fifo<CollToken>;

}  // namespace smi::core

#endif  // SMI_CORE_COLL_TOKEN_H
