#ifndef SMI_CORE_COLL_TREE_H
#define SMI_CORE_COLL_TREE_H

/// \file coll_tree.h
/// Tree shapes for the Bcast, Reduce and Allreduce support kernels. The
/// paper's linear scheme is the flat tree (the root parents every other
/// rank); the binomial tree is the alternative it names as an extension
/// point in §4.4 ("they can also be exploited to offer different
/// implementations of collectives, such as tree-based schema for Bcast and
/// Reduce"). One kernel runs the same READY and credit protocols over
/// either shape.
///
/// Binomial trees are expressed in root-relative communicator rank space:
/// node 0 is the root; node r's parent clears r's highest set bit; node r's
/// children are r | 2^j for the j above r's highest set bit. Fan-out at the
/// root is ceil(log2 n) instead of n-1, which is what beats the linear
/// scheme at scale.

#include <vector>

#include "core/coll_token.h"

namespace smi::core {

/// One rank's place in the tree a collective runs over, in global ranks.
struct TreeShape {
  int parent = -1;            ///< -1 at the root
  std::vector<int> children;  ///< in the order the kernels serve them
};

/// The shape of communicator rank `me` in the tree `algo` lays over
/// `cfg.comm_global`, rooted at `cfg.root_comm`:
///  * kLinear — the flat tree: the root parents every other member, listed
///    in communicator rank order;
///  * kTree — the binomial tree over root-relative ranks.
/// kInnet has no support-kernel tree and throws ConfigError.
TreeShape MakeTreeShape(CollAlgo algo, const CollConfig& cfg, int me);

/// Parent of `rel` (root-relative rank) in the binomial tree; -1 for the
/// root itself.
int BinomialParent(int rel);

/// Children of `rel` in a binomial tree over `n` nodes, ascending.
std::vector<int> BinomialChildren(int rel, int n);

/// Depth of the binomial tree over `n` nodes (= ceil(log2 n)).
int BinomialDepth(int n);

}  // namespace smi::core

#endif  // SMI_CORE_COLL_TREE_H
