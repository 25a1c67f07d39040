#ifndef SMI_NET_TOPOLOGY_H
#define SMI_NET_TOPOLOGY_H

/// \file topology.h
/// Cluster interconnect description.
///
/// A topology is a set of ranks (one per FPGA), each with a fixed number of
/// network ports (QSFP interfaces), plus a list of point-to-point cable
/// connections between ports. This mirrors the JSON connection list the
/// paper's route generator consumes ("the topology is provided as a JSON
/// file, which describes connections between FPGA network ports"), and can
/// be changed at runtime without rebuilding the fabric.
///
/// ## Switch ranks
///
/// The paper's experimental cluster is directly cabled (torus/bus/ring), so
/// every rank hosts application endpoints. Scale-out fabrics (fat-tree,
/// dragonfly) additionally contain *switch ranks*: forwarding-only ranks —
/// an FPGA or switch ASIC running nothing but CKS/CKR pairs — that never
/// host application endpoints and never appear as packet destinations. A
/// builder marks them with `MarkSwitch`; the Cluster runtime places
/// programs only on compute ranks, and the transport fabric builds switch
/// ranks sparsely (only the wired ports exist; see transport/fabric.h).

#include <optional>
#include <string>
#include <vector>

#include "common/json.h"

namespace smi::net {

/// A network port endpoint: (rank, port index).
struct PortId {
  int rank = -1;
  int port = -1;

  friend bool operator==(const PortId& a, const PortId& b) {
    return a.rank == b.rank && a.port == b.port;
  }
  friend bool operator<(const PortId& a, const PortId& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.port < b.port;
  }
};

class Topology {
 public:
  /// `num_ranks` FPGAs with `ports_per_rank` network ports each.
  Topology(int num_ranks, int ports_per_rank);

  /// Wire a bidirectional cable between two ports. Throws ConfigError if
  /// either port is out of range, already wired, or the two ends coincide.
  void Connect(PortId a, PortId b);

  int num_ranks() const { return num_ranks_; }
  int ports_per_rank() const { return ports_per_rank_; }

  /// The port on the far end of the cable plugged into `p`, if any.
  std::optional<PortId> Peer(PortId p) const;

  /// All wired connections, each reported once (a < b).
  std::vector<std::pair<PortId, PortId>> Connections() const;

  /// Neighbouring ranks of `rank` with the local out-port used to reach
  /// them, in ascending port order; a neighbour appears once per connecting
  /// cable. The list is kept up to date by Connect.
  const std::vector<std::pair<int, int>>& Neighbors(int rank) const;

  /// True if the connection graph is connected (ignoring isolated ranks is
  /// NOT allowed: every rank must be reachable from rank 0).
  bool IsConnected() const;

  /// --- Switch ranks (scale-out fabrics) ---

  /// Mark `rank` as a forwarding-only switch: it hosts no application
  /// endpoints and is never a packet destination, it only forwards.
  void MarkSwitch(int rank);
  bool is_switch(int rank) const;
  /// True if any rank is marked as a switch.
  bool has_switches() const { return num_switch_ranks_ > 0; }
  /// Number of ranks hosting application endpoints (non-switch ranks).
  int num_compute_ranks() const { return num_ranks_ - num_switch_ranks_; }
  /// The compute (non-switch) rank ids, ascending.
  std::vector<int> ComputeRankIds() const;

  /// --- Builders for the paper's experimental configurations ---

  /// 2D torus of `rows` x `cols` ranks, 4 ports per rank
  /// (0=north, 1=east, 2=south, 3=west). The paper's cluster is 2x4.
  static Topology Torus2D(int rows, int cols);

  /// Linear bus of `n` ranks: rank i's port 1 connects to rank i+1's port 0.
  /// Used by the paper to vary network distance without recabling.
  static Topology Bus(int n, int ports_per_rank = 4);

  /// Ring: like Bus plus a wrap-around cable.
  static Topology Ring(int n, int ports_per_rank = 4);

  /// Fully connected clique of `n` ranks (requires n-1 ports per rank).
  static Topology Clique(int n);

  /// --- Scale-out builders (forwarding-only switch ranks) ---

  /// Two-level fat-tree (leaf/spine Clos). `hosts_per_leaf * leaves`
  /// compute ranks come first ([0, H)), then `leaves` leaf switches
  /// ([H, H+leaves)), then `spines` spine switches. Host h hangs off leaf
  /// h / hosts_per_leaf on its port 0; every leaf connects to every spine.
  /// Full bisection bandwidth when spines >= hosts_per_leaf.
  static Topology FatTree(int hosts_per_leaf, int leaves, int spines);

  /// Dragonfly: `groups` groups of `routers_per_group` router switches,
  /// each with `hosts_per_router` compute ranks. Compute ranks come first
  /// ([0, G*A*P)), then the routers, group-major. Routers within a group
  /// form a clique; global links between groups are spread round-robin
  /// across each group's routers (ceil((groups-1)/routers_per_group)
  /// global ports per router), so every pair of groups is joined by
  /// exactly one global cable.
  static Topology Dragonfly(int groups, int routers_per_group,
                            int hosts_per_router);

  /// --- JSON (de)serialization, route-generator compatible ---
  static Topology FromJson(const json::Value& v);
  static Topology LoadFile(const std::string& path);
  json::Value ToJson() const;

 private:
  int Index(PortId p) const;

  int num_ranks_;
  int ports_per_rank_;
  int num_switch_ranks_ = 0;
  std::vector<std::optional<PortId>> peer_;  // indexed rank*P+port
  std::vector<std::vector<std::pair<int, int>>> adj_;  // (nbr, port) by rank
  std::vector<bool> switch_;                 // indexed by rank
};

}  // namespace smi::net

#endif  // SMI_NET_TOPOLOGY_H
