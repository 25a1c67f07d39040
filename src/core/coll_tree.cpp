#include "core/coll_tree.h"

#include "common/error.h"

namespace smi::core {

// The mask arithmetic is done in unsigned: for relative ranks >= 2^30 the
// probe `mask << 1` reaches 2^31, which overflows (UB) in int but is
// well-defined in unsigned. Ranks themselves stay within int range, so the
// final casts back are value-preserving.

int BinomialParent(int rel) {
  if (rel < 0) throw ConfigError("negative tree rank");
  if (rel == 0) return -1;
  const auto r = static_cast<unsigned>(rel);
  unsigned mask = 1;
  while ((mask << 1) <= r) mask <<= 1;  // highest set bit
  return static_cast<int>(r & ~mask);
}

std::vector<int> BinomialChildren(int rel, int n) {
  if (rel < 0 || rel >= n) throw ConfigError("tree rank out of range");
  std::vector<int> children;
  const auto r = static_cast<unsigned>(rel);
  const auto un = static_cast<unsigned>(n);
  // The first candidate mask is one above rel's highest set bit (1 for the
  // root).
  unsigned mask = 1;
  while (mask <= r) mask <<= 1;
  for (; mask < un; mask <<= 1) {
    const unsigned child = r | mask;
    if (child < un) children.push_back(static_cast<int>(child));
  }
  return children;
}

int BinomialDepth(int n) {
  if (n <= 1) return 0;
  int depth = 0;
  unsigned reach = 1;
  while (reach < static_cast<unsigned>(n)) {
    reach <<= 1;
    ++depth;
  }
  return depth;
}

namespace {

/// Root-relative rank -> global rank.
int RelToGlobal(const CollConfig& cfg, int rel) {
  const int n = static_cast<int>(cfg.comm_global.size());
  const int comm_rank = (rel + cfg.root_comm) % n;
  return cfg.comm_global[static_cast<std::size_t>(comm_rank)];
}

}  // namespace

TreeShape MakeTreeShape(CollAlgo algo, const CollConfig& cfg, int me) {
  const int n = static_cast<int>(cfg.comm_global.size());
  const int rel = (me - cfg.root_comm + n) % n;
  TreeShape shape;
  switch (algo) {
    case CollAlgo::kLinear:
      if (rel != 0) {
        shape.parent = RelToGlobal(cfg, 0);
        return shape;
      }
      for (int r = 0; r < n; ++r) {
        if (r != cfg.root_comm) {
          shape.children.push_back(
              cfg.comm_global[static_cast<std::size_t>(r)]);
        }
      }
      return shape;
    case CollAlgo::kTree:
      if (rel != 0) shape.parent = RelToGlobal(cfg, BinomialParent(rel));
      for (const int child : BinomialChildren(rel, n)) {
        shape.children.push_back(RelToGlobal(cfg, child));
      }
      return shape;
    case CollAlgo::kInnet:
      break;
  }
  throw ConfigError("the in-network algo has no support-kernel tree shape");
}

}  // namespace smi::core
