#include "net/routing.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>

#include "common/error.h"

namespace smi::net {

RoutingTable::RoutingTable(int num_ranks) : num_ranks_(num_ranks) {
  table_.assign(
      static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_ranks),
      -1);
}

int RoutingTable::next_port(int rank, int dst) const {
  return table_[static_cast<std::size_t>(rank) *
                    static_cast<std::size_t>(num_ranks_) +
                static_cast<std::size_t>(dst)];
}

void RoutingTable::set_next_port(int rank, int dst, int port) {
  table_[static_cast<std::size_t>(rank) *
             static_cast<std::size_t>(num_ranks_) +
         static_cast<std::size_t>(dst)] = port;
}

std::vector<int> RoutingTable::Path(const Topology& topo, int src,
                                    int dst) const {
  std::vector<int> path{src};
  int at = src;
  while (at != dst) {
    const int port = next_port(at, dst);
    if (port < 0) {
      throw RoutingError("no route from rank " + std::to_string(at) +
                         " to rank " + std::to_string(dst));
    }
    const std::optional<PortId> peer = topo.Peer(PortId{at, port});
    if (!peer) {
      throw RoutingError("routing table points at unwired port " +
                         std::to_string(port) + " of rank " +
                         std::to_string(at));
    }
    at = peer->rank;
    path.push_back(at);
    if (path.size() > static_cast<std::size_t>(topo.num_ranks()) + 1) {
      throw RoutingError("routing loop detected from rank " +
                         std::to_string(src) + " to rank " +
                         std::to_string(dst));
    }
  }
  return path;
}

int RoutingTable::HopCount(const Topology& topo, int src, int dst) const {
  return static_cast<int>(Path(topo, src, dst).size()) - 1;
}

json::Value RoutingTable::ToJson() const {
  json::Object root;
  root["ranks"] = json::Value(num_ranks_);
  json::Array rows;
  for (int r = 0; r < num_ranks_; ++r) {
    json::Array row;
    for (int d = 0; d < num_ranks_; ++d) {
      row.push_back(json::Value(next_port(r, d)));
    }
    rows.push_back(json::Value(std::move(row)));
  }
  root["next_port"] = json::Value(std::move(rows));
  return json::Value(std::move(root));
}

void RoutingTable::Validate(const Topology& topo) const {
  if (topo.num_ranks() != num_ranks_) {
    throw RoutingError("routing table is for " + std::to_string(num_ranks_) +
                       " ranks but the topology has " +
                       std::to_string(topo.num_ranks()));
  }
  for (int r = 0; r < num_ranks_; ++r) {
    for (int d = 0; d < num_ranks_; ++d) {
      const int port = next_port(r, d);
      if (r == d) {
        if (port != -1) {
          throw RoutingError("routing table entry (" + std::to_string(r) +
                             ", " + std::to_string(d) +
                             ") must be -1 on the diagonal, got " +
                             std::to_string(port));
        }
        continue;
      }
      if (port < -1 || port >= topo.ports_per_rank()) {
        throw RoutingError("routing table entry (" + std::to_string(r) + ", " +
                           std::to_string(d) + ") is out of range: port " +
                           std::to_string(port) + " with " +
                           std::to_string(topo.ports_per_rank()) +
                           " ports per rank");
      }
      if (port >= 0 && !topo.Peer(PortId{r, port})) {
        throw RoutingError("routing table entry (" + std::to_string(r) + ", " +
                           std::to_string(d) + ") points at unwired port " +
                           std::to_string(port) + " of rank " +
                           std::to_string(r));
      }
    }
  }
}

RoutingTable RoutingTable::FromJson(const json::Value& v) {
  const int ranks = static_cast<int>(v.at("ranks").as_int());
  if (ranks < 1) {
    throw ParseError("routing table rank count must be >= 1, got " +
                     std::to_string(ranks));
  }
  RoutingTable t(ranks);
  const json::Array& rows = v.at("next_port").as_array();
  if (rows.size() != static_cast<std::size_t>(ranks)) {
    throw ParseError("routing table row count mismatch");
  }
  for (int r = 0; r < ranks; ++r) {
    const json::Array& row = rows[static_cast<std::size_t>(r)].as_array();
    if (row.size() != static_cast<std::size_t>(ranks)) {
      throw ParseError("routing table column count mismatch");
    }
    for (int d = 0; d < ranks; ++d) {
      const int port =
          static_cast<int>(row[static_cast<std::size_t>(d)].as_int());
      if (port < -1) {
        throw ParseError("routing table entry (" + std::to_string(r) + ", " +
                         std::to_string(d) + ") is negative: " +
                         std::to_string(port));
      }
      t.set_next_port(r, d, port);
    }
  }
  return t;
}

RoutingTable RoutingTable::FromJson(const json::Value& v,
                                    const Topology& topo) {
  RoutingTable t = FromJson(v);
  t.Validate(topo);
  return t;
}

namespace {

/// BFS distances of every rank to `dst` (hop counts over the undirected
/// connection graph, whose neighbours are visited in (rank, port) order).
/// Throws if some rank cannot reach dst.
std::vector<int> DistancesTo(const Topology& topo, int dst) {
  const int n = topo.num_ranks();
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  std::queue<int> queue;
  dist[static_cast<std::size_t>(dst)] = 0;
  queue.push(dst);
  while (!queue.empty()) {
    const int at = queue.front();
    queue.pop();
    for (const auto& [nbr, port] : topo.Neighbors(at)) {
      (void)port;
      if (dist[static_cast<std::size_t>(nbr)] == -1) {
        dist[static_cast<std::size_t>(nbr)] =
            dist[static_cast<std::size_t>(at)] + 1;
        queue.push(nbr);
      }
    }
  }
  for (int r = 0; r < n; ++r) {
    if (dist[static_cast<std::size_t>(r)] == -1) {
      throw RoutingError("rank " + std::to_string(r) + " cannot reach rank " +
                         std::to_string(dst));
    }
  }
  return dist;
}

/// The ports of `r` leading one hop closer under the distance field
/// `dist`, in ascending port order, written into `ports`. Throws if there
/// is none (r is the BFS target).
void MinimalPorts(const Topology& topo, const std::vector<int>& dist, int r,
                  std::vector<int>& ports) {
  ports.clear();
  const int closer = dist[static_cast<std::size_t>(r)] - 1;
  for (const auto& [nbr, port] : topo.Neighbors(r)) {
    if (dist[static_cast<std::size_t>(nbr)] == closer) ports.push_back(port);
  }
  if (ports.empty()) {
    throw RoutingError("internal: no minimal port at rank " +
                       std::to_string(r));
  }
}

/// Shortest paths with a deterministic tie-break: every rank takes its
/// lowest-numbered port leading one hop closer to the destination.
RoutingTable ShortestPathRoutes(const Topology& topo) {
  const int n = topo.num_ranks();
  RoutingTable table(n);
  std::vector<int> ports;
  for (int dst = 0; dst < n; ++dst) {
    const std::vector<int> dist = DistancesTo(topo, dst);
    for (int r = 0; r < n; ++r) {
      if (r == dst) continue;
      MinimalPorts(topo, dist, r, ports);
      table.set_next_port(r, dst, ports.front());
    }
  }
  return table;
}

/// An edge u->v is "up" when v is closer to the root (lower level), with
/// rank id as tie-break. Legal up*/down* paths take zero or more up edges
/// followed by zero or more down edges, which makes the channel dependency
/// graph acyclic by construction.
bool IsUpEdge(const std::vector<int>& level, int u, int v) {
  const int lu = level[static_cast<std::size_t>(u)];
  const int lv = level[static_cast<std::size_t>(v)];
  return lv < lu || (lv == lu && v < u);
}

/// Destination-based up*/down* routing, one backward pass per destination
/// over (rank, phase) states — O(n * E) total, replacing the original
/// per-(src,dst) forward BFS whose O(n^2 * E) cost was prohibitive at 512
/// ranks.
///
/// Because the routing table is memoryless (one port per (rank, dst)), the
/// per-rank choices must COMPOSE into legal up*-then-down* trajectories; a
/// rank cannot know whether the packet already descended. The rule that
/// guarantees this: a rank forwards along an all-down path whenever one
/// exists (phase-1 state reachable backward from dst), and climbs otherwise.
/// A down-hop lands on a rank that again has an all-down path (one hop
/// shorter), so no realized trajectory ever turns back up after descending,
/// and every channel dependency is up->up, up->down or down->down — the
/// Dally & Seitz acyclicity argument for up*/down* applies verbatim.
///
/// Termination: up-hops strictly descend the (level, id) potential and
/// down-hops strictly shrink the all-down distance; climb ranks have no
/// all-down path while descent ranks do, so the two segments cannot share a
/// rank and every route is simple (at most n-1 hops).
RoutingTable UpDownRoutes(const Topology& topo) {
  const int n = topo.num_ranks();
  // BFS levels of the spanning tree rooted at rank 0.
  const std::vector<int> level = DistancesTo(topo, 0);
  // Ranks sorted by the up*/down* potential (level, id) ascending: every up
  // edge points to a rank strictly earlier in this order, so a single
  // in-order sweep resolves the climb lengths.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&level](int a, int b) {
    const int la = level[static_cast<std::size_t>(a)];
    const int lb = level[static_cast<std::size_t>(b)];
    return la != lb ? la < lb : a < b;
  });

  RoutingTable table(n);
  std::vector<int> down_dist(static_cast<std::size_t>(n));
  std::vector<int> route_len(static_cast<std::size_t>(n));
  for (int dst = 0; dst < n; ++dst) {
    // Backward BFS from dst over down edges (u -> v is down iff v -> u is
    // up): down_dist[r] = length of the shortest all-down path r -> dst,
    // -1 when none exists. This is the phase-1 half of the (rank, phase)
    // state space; the phase-0 (climb) half is resolved in the sweep below.
    std::fill(down_dist.begin(), down_dist.end(), -1);
    down_dist[static_cast<std::size_t>(dst)] = 0;
    std::queue<int> queue;
    queue.push(dst);
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop();
      for (const auto& [u, port_on_v] : topo.Neighbors(v)) {
        (void)port_on_v;
        if (IsUpEdge(level, v, u) &&
            down_dist[static_cast<std::size_t>(u)] == -1) {
          down_dist[static_cast<std::size_t>(u)] =
              down_dist[static_cast<std::size_t>(v)] + 1;
          queue.push(u);
        }
      }
    }
    // Rank 0 always has an all-down path (the BFS tree itself descends), so
    // climbs terminate; every other rank has an up edge (its tree parent).
    std::fill(route_len.begin(), route_len.end(), -1);
    for (const int r : order) {
      if (r == dst) {
        route_len[static_cast<std::size_t>(r)] = 0;
        continue;
      }
      if (down_dist[static_cast<std::size_t>(r)] >= 0) {
        // Descend: lowest port whose down peer is one hop closer to dst.
        route_len[static_cast<std::size_t>(r)] =
            down_dist[static_cast<std::size_t>(r)];
        for (const auto& [nbr, port] : topo.Neighbors(r)) {
          if (IsUpEdge(level, nbr, r) &&
              down_dist[static_cast<std::size_t>(nbr)] ==
                  down_dist[static_cast<std::size_t>(r)] - 1) {
            table.set_next_port(r, dst, port);
            break;
          }
        }
      } else {
        // Climb: lowest port among up neighbours with the shortest route.
        int best_len = -1;
        int best_port = -1;
        for (const auto& [nbr, port] : topo.Neighbors(r)) {
          if (!IsUpEdge(level, r, nbr)) continue;
          const int len = route_len[static_cast<std::size_t>(nbr)];
          if (len >= 0 && (best_len == -1 || len + 1 < best_len)) {
            best_len = len + 1;
            best_port = port;
          }
        }
        if (best_port == -1) {
          throw RoutingError("no up*/down* route from rank " +
                             std::to_string(r) + " to rank " +
                             std::to_string(dst));
        }
        route_len[static_cast<std::size_t>(r)] = best_len;
        table.set_next_port(r, dst, best_port);
      }
    }
  }
  return table;
}

/// SplitMix64 finalizer: the stateless counter-mode hash used for all
/// seeded routing tie-breaks, so tables depend only on (seed, rank, dst)
/// and stay bit-identical across schedulers and platforms.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded per-rank rotation for the minimal-port choice. The pick is
/// (rotation(seed, rank) + key) mod count: consecutive destinations
/// round-robin over the minimal ports (the classic D-mod-k fat-tree
/// spreading) instead of hashing each (rank, dst) independently. A pure
/// hash is balls-into-bins — with 8 flows over 8 spine links some link
/// draws 3 and the whole exchange runs at a third of the fabric rate —
/// while the rotation keeps any window of consecutive destinations spread
/// evenly; the seed still de-correlates the rotations across ranks.
std::uint64_t PortRotation(std::uint64_t seed, int rank) {
  return Mix(Mix(seed) ^
             (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank))
              << 32));
}

/// The seeded-minimal port of `r` under the distance field `dist`: among
/// all ports leading one hop closer, pick index (rotation(seed, r) + key)
/// mod count (see PortRotation). `key` identifies the routing decision
/// (the table destination), which may differ from the BFS target (Valiant
/// keys on the final destination while steering toward the intermediate).
/// `ports` is the caller's scratch buffer for MinimalPorts.
int SeededMinimalPort(const Topology& topo, const std::vector<int>& dist,
                      int r, int key, std::uint64_t seed,
                      std::vector<int>& ports) {
  MinimalPorts(topo, dist, r, ports);
  return ports[static_cast<std::size_t>(
      (PortRotation(seed, r) + static_cast<std::uint32_t>(key)) %
      ports.size())];
}

/// Minimal-adaptive: every (rank, dst) entry picks uniformly (seeded)
/// among ALL ports on shortest paths, instead of always the lowest one.
/// On multipath topologies (fat-tree spines, dragonfly gateways) this
/// spreads flows across equal-cost channels; plain BFS would funnel every
/// route through the lowest-numbered switch.
RoutingTable MinimalAdaptiveRoutes(const Topology& topo, std::uint64_t seed) {
  const int n = topo.num_ranks();
  RoutingTable table(n);
  std::vector<int> ports;
  for (int dst = 0; dst < n; ++dst) {
    const std::vector<int> dist = DistancesTo(topo, dst);
    for (int r = 0; r < n; ++r) {
      if (r == dst) continue;
      table.set_next_port(r, dst,
                          SeededMinimalPort(topo, dist, r, dst, seed, ports));
    }
  }
  return table;
}

/// Valiant routing: per destination, a seeded random intermediate rank w.
/// Ranks on the canonical (seeded-minimal) w -> dst path forward along it;
/// every other rank steers seeded-minimal toward w. Trajectories are
/// loop-free because the distance to w strictly shrinks until the packet
/// joins the canonical path (at w or earlier), after which the distance to
/// dst strictly shrinks along it.
RoutingTable ValiantRoutes(const Topology& topo, std::uint64_t seed) {
  const int n = topo.num_ranks();
  RoutingTable table(n);
  std::vector<int> ports;
  for (int dst = 0; dst < n; ++dst) {
    const std::vector<int> dist_dst = DistancesTo(topo, dst);
    const int w = static_cast<int>(Mix(Mix(seed ^ 0x76616c69616e74ull) ^
                                       static_cast<std::uint32_t>(dst)) %
                                   static_cast<unsigned>(n));
    // Canonical w -> dst path under the same seeded-minimal choices.
    std::vector<bool> on_path(static_cast<std::size_t>(n), false);
    on_path[static_cast<std::size_t>(dst)] = true;
    int at = w;
    while (at != dst) {
      const int port = SeededMinimalPort(topo, dist_dst, at, dst, seed, ports);
      on_path[static_cast<std::size_t>(at)] = true;
      table.set_next_port(at, dst, port);
      at = topo.Peer(PortId{at, port})->rank;
    }
    // Off-path ranks steer toward w (pure seeded-minimal toward dst when
    // the intermediate degenerates to dst itself).
    const std::vector<int> dist_w = w == dst ? dist_dst : DistancesTo(topo, w);
    for (int r = 0; r < n; ++r) {
      if (r == dst || on_path[static_cast<std::size_t>(r)]) continue;
      table.set_next_port(r, dst,
                          SeededMinimalPort(topo, dist_w, r, dst, seed, ports));
    }
  }
  return table;
}

}  // namespace

bool IsDeadlockFree(const Topology& topo, const RoutingTable& routes) {
  // Channels are directed cable traversals, identified by the sending
  // (rank, port). Build dependency edges: for every route, consecutive
  // channel uses depend on each other.
  //
  // Routes are destination-based: the channel a packet for `dst` leaves
  // rank `at` on depends only on (at, dst), so every walk that reaches
  // (at, dst) continues along the same suffix. Each (at, dst) pair is
  // therefore walked once: `reached` holds the 1-based source whose walk
  // first reached it. A walk that meets a pair stamped by an earlier source
  // adds the edge into it and stops, because that source already walked
  // (and added) the rest without error; a walk that meets its own stamp is
  // going round in a circle. The check costs O(n^2) table lookups instead
  // of O(n^2 * path length).
  const int n = topo.num_ranks();
  const int p = topo.ports_per_rank();
  const int channels = n * p;
  std::vector<std::vector<int>> deps(static_cast<std::size_t>(channels));
  std::vector<int> reached(static_cast<std::size_t>(n) *
                               static_cast<std::size_t>(n),
                           0);
  const auto chan_id = [p](int rank, int port) { return rank * p + port; };

  for (int src = 0; src < n; ++src) {
    // Traffic originates and terminates only at compute ranks: switch ranks
    // are forwarding-only (no endpoints), so routes addressed to or from
    // them carry no packets and must not contribute dependency edges. (On a
    // fat-tree, the spine-to-spine route dips down through a leaf and climbs
    // back up — a down->up edge that would close a cycle with the ordinary
    // up-then-down traffic even though no such packet can ever exist.)
    if (topo.is_switch(src)) continue;
    const int stamp = src + 1;
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst || topo.is_switch(dst)) continue;
      int at = src;
      int prev_chan = -1;
      while (at != dst) {
        int& first = reached[static_cast<std::size_t>(at) *
                                 static_cast<std::size_t>(n) +
                             static_cast<std::size_t>(dst)];
        // Same guard as Path(): a structurally valid table can still walk a
        // packet in a circle; without it this loop never exits.
        if (first == stamp) {
          throw RoutingError("routing loop detected from rank " +
                             std::to_string(src) + " to rank " +
                             std::to_string(dst));
        }
        const int port = routes.next_port(at, dst);
        if (port < 0) {
          throw RoutingError("incomplete routing table at rank " +
                             std::to_string(at));
        }
        const int cur_chan = chan_id(at, port);
        if (prev_chan != -1) {
          // Dedup dependency edges: a channel's out-degree is at most the
          // ports of the rank it leads to, so a linear scan suffices.
          std::vector<int>& out = deps[static_cast<std::size_t>(prev_chan)];
          if (std::find(out.begin(), out.end(), cur_chan) == out.end()) {
            out.push_back(cur_chan);
          }
        }
        if (first != 0) break;
        first = stamp;
        prev_chan = cur_chan;
        at = topo.Peer(PortId{at, port})->rank;
      }
    }
  }

  // DFS cycle detection on the dependency graph.
  enum class Mark : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Mark> mark(static_cast<std::size_t>(channels), Mark::kWhite);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int start = 0; start < channels; ++start) {
    if (mark[static_cast<std::size_t>(start)] != Mark::kWhite) continue;
    stack.emplace_back(start, 0);
    mark[static_cast<std::size_t>(start)] = Mark::kGray;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      if (edge < deps[static_cast<std::size_t>(node)].size()) {
        const int next = deps[static_cast<std::size_t>(node)][edge++];
        if (mark[static_cast<std::size_t>(next)] == Mark::kGray) {
          return false;  // back edge: cycle
        }
        if (mark[static_cast<std::size_t>(next)] == Mark::kWhite) {
          mark[static_cast<std::size_t>(next)] = Mark::kGray;
          stack.emplace_back(next, 0);
        }
      } else {
        mark[static_cast<std::size_t>(node)] = Mark::kBlack;
        stack.pop_back();
      }
    }
  }
  return true;
}

const char* RoutingSchemeName(RoutingScheme scheme) {
  switch (scheme) {
    case RoutingScheme::kShortestPath:
      return "shortest-path";
    case RoutingScheme::kUpDown:
      return "up-down";
    case RoutingScheme::kAuto:
      return "auto";
    case RoutingScheme::kMinimalAdaptive:
      return "minimal-adaptive";
    case RoutingScheme::kValiant:
      return "valiant";
  }
  return "unknown";
}

RoutingTable ComputeRoutes(const Topology& topo, RoutingScheme scheme,
                           std::uint64_t seed, bool* fell_back) {
  if (fell_back) *fell_back = false;
  if (!topo.IsConnected()) {
    throw RoutingError("topology is not connected");
  }
  switch (scheme) {
    case RoutingScheme::kShortestPath: {
      RoutingTable table = ShortestPathRoutes(topo);
      if (!IsDeadlockFree(topo, table)) {
        throw RoutingError(
            "shortest-path routing has a cyclic channel dependency graph on "
            "this topology; use kUpDown or kAuto");
      }
      return table;
    }
    case RoutingScheme::kUpDown:
      return UpDownRoutes(topo);
    case RoutingScheme::kAuto: {
      RoutingTable table = ShortestPathRoutes(topo);
      if (IsDeadlockFree(topo, table)) return table;
      return UpDownRoutes(topo);
    }
    case RoutingScheme::kMinimalAdaptive: {
      RoutingTable table = MinimalAdaptiveRoutes(topo, seed);
      if (IsDeadlockFree(topo, table)) return table;
      if (fell_back) *fell_back = true;
      return UpDownRoutes(topo);
    }
    case RoutingScheme::kValiant: {
      RoutingTable table = ValiantRoutes(topo, seed);
      if (IsDeadlockFree(topo, table)) return table;
      if (fell_back) *fell_back = true;
      return UpDownRoutes(topo);
    }
  }
  throw ConfigError("unknown routing scheme");
}

}  // namespace smi::net
