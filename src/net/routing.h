#ifndef SMI_NET_ROUTING_H
#define SMI_NET_ROUTING_H

/// \file routing.h
/// Static routing for the SMI transport layer.
///
/// Following §4.3 of the paper, routes between all rank pairs are computed
/// offline from the topology using a deadlock-free routing scheme (the paper
/// cites Domke et al.'s deadlock-free oblivious routing) and uploaded to the
/// communication kernels at runtime; changing the topology or rank count
/// never requires rebuilding the fabric.
///
/// Four schemes are provided:
///  * shortest-path (BFS with deterministic tie-breaking), verified
///    deadlock-free via a channel-dependency-graph acyclicity check;
///  * up*/down* routing over a BFS spanning tree, which is deadlock-free by
///    construction on any connected topology and is used as the fallback
///    when another scheme has a cyclic channel dependency graph;
///  * minimal-adaptive: per-hop choice among ALL minimal next-ports with a
///    deterministic seeded tie-break, spreading traffic across equal-cost
///    paths (e.g. fat-tree spines) instead of always picking the lowest
///    port. "Adaptive" in the offline, seeded sense: the choice varies per
///    (rank, destination, seed) but is fixed before upload so all three
///    simulator schedulers stay bit-identical;
///  * Valiant: route via a seeded random intermediate rank per destination
///    (minimal to the intermediate, then minimal onward), trading path
///    length for load balance on adversarial patterns.
///
/// Minimal-adaptive and Valiant tables are passed through the CDG
/// acyclicity check; when cyclic (e.g. torus rings, dragonfly global
/// loops), ComputeRoutes falls back to up*/down* as the escape path, like
/// kAuto does for shortest-path.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "net/topology.h"

namespace smi::net {

/// Next-hop routing: `next_port(r, d)` is the network port rank `r` uses to
/// forward a packet whose destination is rank `d`; -1 when r == d.
class RoutingTable {
 public:
  RoutingTable(int num_ranks);

  int next_port(int rank, int dst) const;
  void set_next_port(int rank, int dst, int port);

  int num_ranks() const { return num_ranks_; }

  /// Full path of ranks from src to dst (inclusive) under this table.
  /// Throws RoutingError if the walk does not terminate (broken table).
  std::vector<int> Path(const Topology& topo, int src, int dst) const;

  /// Number of link traversals from src to dst.
  int HopCount(const Topology& topo, int src, int dst) const;

  /// Check every entry against the topology: ports must lie in
  /// [-1, ports_per_rank), non-self entries must be wired ports, and the
  /// diagonal must be -1. Throws RoutingError on the first violation, so a
  /// corrupt uploaded table is diagnosed at load time instead of exploding
  /// mid-run inside Path()/Fabric (mirrors the Fabric endpoint checks).
  void Validate(const Topology& topo) const;

  /// JSON round-trip so routing tables can be written next to the bitstream
  /// and uploaded at application start, as in the paper's workflow.
  json::Value ToJson() const;
  static RoutingTable FromJson(const json::Value& v);

  /// FromJson plus Validate(topo): the load path used when the target
  /// topology is known (e.g. uploading routes into a Fabric).
  static RoutingTable FromJson(const json::Value& v, const Topology& topo);

 private:
  int num_ranks_;
  std::vector<int> table_;  // rank-major [rank * num_ranks + dst]
};

enum class RoutingScheme {
  kShortestPath,     ///< BFS shortest path, deterministic tie-break
  kUpDown,           ///< up*/down* over a BFS spanning tree
  kAuto,             ///< shortest path if its CDG is acyclic, else up*/down*
  kMinimalAdaptive,  ///< seeded choice among minimal ports, up*/down* escape
  kValiant,          ///< seeded random intermediate rank, up*/down* escape
};

const char* RoutingSchemeName(RoutingScheme scheme);

/// Compute a routing table for `topo` with the given scheme. Throws
/// RoutingError if the topology is disconnected, or if kShortestPath is
/// requested explicitly and its channel dependency graph has a cycle.
///
/// `seed` feeds the deterministic tie-breaks of kMinimalAdaptive and
/// kValiant (ignored by the other schemes). If `fell_back` is non-null it
/// is set to true when a kMinimalAdaptive/kValiant table failed the CDG
/// acyclicity check and the up*/down* escape table was returned instead
/// (and to false otherwise, including for kAuto's own fallback).
RoutingTable ComputeRoutes(const Topology& topo, RoutingScheme scheme,
                           std::uint64_t seed = 0,
                           bool* fell_back = nullptr);

/// Build the channel dependency graph of `routes` over `topo` and check it
/// for cycles. Channels are directed cable traversals; an edge connects two
/// channels used consecutively by some route (deduplicated, so the CDG
/// stays O(channels * degree) regardless of how many rank pairs share a
/// channel pair). Routes are destination-based, so each (rank, destination)
/// pair is walked once and the check costs O(ranks^2) table lookups plus
/// the DFS. Acyclicity implies freedom from routing-induced deadlock
/// (Dally & Seitz). Only compute-to-compute routes contribute edges:
/// switch ranks are forwarding-only, so no packet is ever injected at or
/// addressed to one, and their table entries are dead. Throws RoutingError
/// if a live route, while structurally valid, walks a packet in a cycle
/// (same guard as RoutingTable::Path).
bool IsDeadlockFree(const Topology& topo, const RoutingTable& routes);

}  // namespace smi::net

#endif  // SMI_NET_ROUTING_H
