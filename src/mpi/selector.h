#ifndef SMI_MPI_SELECTOR_H
#define SMI_MPI_SELECTOR_H

/// \file selector.h
/// Per-size collective algorithm selection for the MPI shim.
///
/// Production MPI libraries pick a collective algorithm per call from the
/// message size and communicator size (Open MPI's "decision rules"); the
/// shim does the same for the choice SMI actually exposes: the linear
/// support kernels versus the binomial-tree variants. The policy is a
/// data-driven, first-match-wins rule table, so it can be tuned from bench
/// sweeps and overridden from a JSON file without recompiling.
///
/// Because the fabric is static (both algorithm variants are instantiated
/// as support kernels on distinct ports), the selector steers which port a
/// call uses — it is a routing decision, not a code-generation one.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/coll_token.h"

namespace smi::mpi {

/// One decision rule. A rule matches when the collective kind matches
/// (or the rule's kind is empty = "any"), and the communicator size and
/// per-rank message size in bytes fall inside the closed ranges. A max of 0
/// means unbounded.
struct SelectorRule {
  std::optional<core::CollKind> kind;  ///< empty = any collective
  int min_comm = 0;
  int max_comm = 0;  ///< 0 = unbounded
  std::uint64_t min_bytes = 0;
  std::uint64_t max_bytes = 0;  ///< 0 = unbounded
  core::CollAlgo algo = core::CollAlgo::kLinear;
};

/// First-match-wins rule table.
class Selector {
 public:
  Selector() = default;
  explicit Selector(std::vector<SelectorRule> rules)
      : rules_(std::move(rules)) {}

  /// Default table, tuned from `experiments collective_tree` sweeps on the
  /// torus topologies: tiny communicators never amortize the tree's extra
  /// hop latency; mid-size ones do from ~4 KiB per rank; at 8+ ranks the
  /// root serialization of the linear scheme loses from a few hundred bytes
  /// up.
  static Selector Defaults();

  /// Pick the algorithm for one collective call. `bytes` is the per-rank
  /// message size (count * sizeof element). Falls back to linear when no
  /// rule matches. Scatter and Gather only exist in the linear variant, so
  /// a tree verdict is clamped to linear for them.
  core::CollAlgo Choose(core::CollKind kind, std::uint64_t bytes,
                        int comm_size) const;

  const std::vector<SelectorRule>& rules() const { return rules_; }

  /// JSON round trip. The format is
  ///   {"rules": [{"collective": "any"|"Bcast"|..., "min_comm": N,
  ///               "max_comm": N, "min_bytes": N, "max_bytes": N,
  ///               "algorithm": "linear"|"tree"}, ...]}
  /// Unknown names, negative bounds, or max < min (when max != 0) are
  /// rejected with a ParseError naming the offending rule.
  json::Value ToJson() const;
  static Selector FromJson(const json::Value& v);
  static Selector FromFile(const std::string& path);

 private:
  std::vector<SelectorRule> rules_;
};

}  // namespace smi::mpi

#endif  // SMI_MPI_SELECTOR_H
