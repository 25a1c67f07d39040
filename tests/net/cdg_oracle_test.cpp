/// \file cdg_oracle_test.cpp
/// Differential test of the channel-dependency-graph check: IsDeadlockFree
/// walks each (rank, destination) pair once and stops at pairs an earlier
/// source already walked. The oracle below is the straightforward check it
/// replaced: every (source, destination) route walked hop by hop, every
/// consecutive channel pair deduplicated through a hash set. Both must give
/// the same verdict, or throw RoutingError with the same message, on every
/// builder and scheme and on seeded corruptions of their tables.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "net/routing.h"

namespace smi::net {
namespace {

bool OracleIsDeadlockFree(const Topology& topo, const RoutingTable& routes) {
  const int n = topo.num_ranks();
  const int p = topo.ports_per_rank();
  const int channels = n * p;
  std::vector<std::vector<int>> deps(static_cast<std::size_t>(channels));
  std::unordered_set<std::uint64_t> seen_edges;
  for (int src = 0; src < n; ++src) {
    if (topo.is_switch(src)) continue;
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst || topo.is_switch(dst)) continue;
      int at = src;
      int prev_chan = -1;
      int hops = 0;
      while (at != dst) {
        if (++hops > n) {
          throw RoutingError("routing loop detected from rank " +
                             std::to_string(src) + " to rank " +
                             std::to_string(dst));
        }
        const int port = routes.next_port(at, dst);
        if (port < 0) {
          throw RoutingError("incomplete routing table at rank " +
                             std::to_string(at));
        }
        const int cur_chan = at * p + port;
        if (prev_chan != -1) {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(prev_chan) << 32) |
              static_cast<std::uint32_t>(cur_chan);
          if (seen_edges.insert(key).second) {
            deps[static_cast<std::size_t>(prev_chan)].push_back(cur_chan);
          }
        }
        prev_chan = cur_chan;
        at = topo.Peer(PortId{at, port})->rank;
      }
    }
  }
  // Iterative three-colour DFS over the dependency graph.
  std::vector<int> mark(static_cast<std::size_t>(channels), 0);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int start = 0; start < channels; ++start) {
    if (mark[static_cast<std::size_t>(start)] != 0) continue;
    stack.emplace_back(start, 0);
    mark[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      const std::vector<int>& out = deps[static_cast<std::size_t>(node)];
      if (edge < out.size()) {
        const int next = out[edge++];
        if (mark[static_cast<std::size_t>(next)] == 1) return false;
        if (mark[static_cast<std::size_t>(next)] == 0) {
          mark[static_cast<std::size_t>(next)] = 1;
          stack.emplace_back(next, 0);
        }
      } else {
        mark[static_cast<std::size_t>(node)] = 2;
        stack.pop_back();
      }
    }
  }
  return true;
}

/// "acyclic", "cyclic" or "error: <RoutingError message>".
template <typename Check>
std::string Outcome(Check check, const Topology& topo,
                    const RoutingTable& routes) {
  try {
    return check(topo, routes) ? "acyclic" : "cyclic";
  } catch (const RoutingError& e) {
    return std::string("error: ") + e.what();
  }
}

std::string Expect(const Topology& topo, const RoutingTable& routes) {
  return Outcome(OracleIsDeadlockFree, topo, routes);
}
std::string Actual(const Topology& topo, const RoutingTable& routes) {
  return Outcome(IsDeadlockFree, topo, routes);
}

/// Shortest paths taking the lowest minimal port at every hop, with no CDG
/// check: cyclic on rings, tori and dragonflies, so the comparison also
/// covers tables the schemes would reject.
RoutingTable LowestPortMinimal(const Topology& topo) {
  const int n = topo.num_ranks();
  RoutingTable table(n);
  for (int dst = 0; dst < n; ++dst) {
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::queue<int> frontier;
    dist[static_cast<std::size_t>(dst)] = 0;
    frontier.push(dst);
    while (!frontier.empty()) {
      const int r = frontier.front();
      frontier.pop();
      for (const auto& [nbr, port] : topo.Neighbors(r)) {
        if (dist[static_cast<std::size_t>(nbr)] < 0) {
          dist[static_cast<std::size_t>(nbr)] =
              dist[static_cast<std::size_t>(r)] + 1;
          frontier.push(nbr);
        }
      }
    }
    for (int r = 0; r < n; ++r) {
      if (r == dst) continue;
      for (const auto& [nbr, port] : topo.Neighbors(r)) {
        if (dist[static_cast<std::size_t>(nbr)] ==
            dist[static_cast<std::size_t>(r)] - 1) {
          table.set_next_port(r, dst, port);
          break;
        }
      }
    }
  }
  return table;
}

struct NamedTopology {
  std::string name;
  Topology topo;
};

/// Every builder at 16, 64 and 256 compute ranks.
std::vector<NamedTopology> Builders() {
  return {
      {"torus-16", Topology::Torus2D(4, 4)},
      {"torus-64", Topology::Torus2D(8, 8)},
      {"torus-256", Topology::Torus2D(16, 16)},
      {"bus-16", Topology::Bus(16)},
      {"bus-64", Topology::Bus(64)},
      {"bus-256", Topology::Bus(256)},
      {"ring-16", Topology::Ring(16)},
      {"ring-64", Topology::Ring(64)},
      {"ring-256", Topology::Ring(256)},
      {"fat-tree-16", Topology::FatTree(4, 4, 4)},
      {"fat-tree-64", Topology::FatTree(8, 8, 8)},
      {"fat-tree-256", Topology::FatTree(8, 32, 8)},
      {"dragonfly-16", Topology::Dragonfly(4, 2, 2)},
      {"dragonfly-64", Topology::Dragonfly(4, 4, 4)},
      {"dragonfly-256", Topology::Dragonfly(16, 4, 4)},
  };
}

constexpr RoutingScheme kSchemes[] = {
    RoutingScheme::kShortestPath, RoutingScheme::kUpDown,
    RoutingScheme::kAuto, RoutingScheme::kMinimalAdaptive,
    RoutingScheme::kValiant};

TEST(CdgOracle, BuildersAndSchemesMatchTheOracle) {
  for (const NamedTopology& t : Builders()) {
    int accepted = 0;
    for (const RoutingScheme scheme : kSchemes) {
      RoutingTable routes(t.topo.num_ranks());
      try {
        routes = ComputeRoutes(t.topo, scheme, /*seed=*/5);
      } catch (const RoutingError&) {
        continue;  // explicit shortest-path rejects a cyclic CDG
      }
      ++accepted;
      EXPECT_EQ(Actual(t.topo, routes), Expect(t.topo, routes))
          << t.name << " " << RoutingSchemeName(scheme);
    }
    EXPECT_GE(accepted, 4) << t.name;
    const RoutingTable raw = LowestPortMinimal(t.topo);
    EXPECT_EQ(Actual(t.topo, raw), Expect(t.topo, raw))
        << t.name << " lowest-port minimal";
  }
}

TEST(CdgOracle, RawShortestPathsAreCyclicOnRingsAndTori) {
  // The comparison above must see both verdicts, not only "acyclic".
  for (const Topology& topo :
       {Topology::Ring(16), Topology::Ring(256), Topology::Torus2D(4, 4),
        Topology::Torus2D(16, 16)}) {
    const RoutingTable raw = LowestPortMinimal(topo);
    EXPECT_EQ(Expect(topo, raw), "cyclic");
    EXPECT_EQ(Actual(topo, raw), "cyclic");
  }
}

/// A random wired out-port of `rank`.
int RandomPort(const Topology& topo, int rank, std::mt19937_64& rng) {
  const auto& nbrs = topo.Neighbors(rank);
  return nbrs[static_cast<std::size_t>(rng() % nbrs.size())].second;
}

/// A random compute rank other than `not_this` (any compute rank when -1).
int RandomCompute(const std::vector<int>& compute, int not_this,
                  std::mt19937_64& rng) {
  while (true) {
    const int r = compute[static_cast<std::size_t>(rng() % compute.size())];
    if (r != not_this) return r;
  }
}

enum class Corruption { kRewire, kLoop, kHole };

/// Corrupts a valid table the way a bad upload could: `kRewire` points a
/// few entries at random wired ports (cyclic CDGs and loops), `kLoop` makes
/// two neighbours bounce one destination between them, `kHole` clears an
/// entry on a live route.
RoutingTable Corrupt(const Topology& topo, RoutingTable routes,
                     Corruption kind, std::mt19937_64& rng) {
  const int n = topo.num_ranks();
  const std::vector<int> compute = topo.ComputeRankIds();
  switch (kind) {
    case Corruption::kRewire: {
      const int edits = 1 + static_cast<int>(rng() % 6);
      for (int e = 0; e < edits; ++e) {
        const int dst = RandomCompute(compute, -1, rng);
        int at = static_cast<int>(rng() % static_cast<unsigned>(n));
        if (at == dst) at = (at + 1) % n;
        routes.set_next_port(at, dst, RandomPort(topo, at, rng));
      }
      break;
    }
    case Corruption::kLoop: {
      const int dst = RandomCompute(compute, -1, rng);
      int a = static_cast<int>(rng() % static_cast<unsigned>(n));
      if (a == dst) a = (a + 1) % n;
      for (const auto& [b, port] : topo.Neighbors(a)) {
        if (b == dst) continue;
        routes.set_next_port(a, dst, port);
        for (const auto& [back, back_port] : topo.Neighbors(b)) {
          if (back == a) {
            routes.set_next_port(b, dst, back_port);
            break;
          }
        }
        break;
      }
      break;
    }
    case Corruption::kHole: {
      const int src = RandomCompute(compute, -1, rng);
      const int dst = RandomCompute(compute, src, rng);
      const std::vector<int> path = routes.Path(topo, src, dst);
      const int at =
          path[static_cast<std::size_t>(rng() % (path.size() - 1))];
      routes.set_next_port(at, dst, -1);
      break;
    }
  }
  return routes;
}

TEST(CdgOracle, SeededCorruptedTablesMatchTheOracle) {
  const std::vector<NamedTopology> topos = {
      {"torus-16", Topology::Torus2D(4, 4)},
      {"torus-64", Topology::Torus2D(8, 8)},
      {"ring-16", Topology::Ring(16)},
      {"bus-16", Topology::Bus(16)},
      {"fat-tree-16", Topology::FatTree(4, 4, 4)},
      {"fat-tree-64", Topology::FatTree(8, 8, 8)},
      {"dragonfly-16", Topology::Dragonfly(4, 2, 2)},
      {"dragonfly-64", Topology::Dragonfly(4, 4, 4)},
  };
  int cyclic = 0, loops = 0, holes = 0, acyclic = 0;
  for (const NamedTopology& t : topos) {
    for (const RoutingScheme scheme :
         {RoutingScheme::kUpDown, RoutingScheme::kMinimalAdaptive}) {
      const RoutingTable base = ComputeRoutes(t.topo, scheme, /*seed=*/9);
      for (std::uint64_t seed = 0; seed < 40; ++seed) {
        std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
        const auto kind = static_cast<Corruption>(seed % 3);
        const RoutingTable bad = Corrupt(t.topo, base, kind, rng);
        const std::string expect = Expect(t.topo, bad);
        EXPECT_EQ(Actual(t.topo, bad), expect)
            << t.name << " " << RoutingSchemeName(scheme) << " seed "
            << seed;
        if (expect == "cyclic") ++cyclic;
        if (expect == "acyclic") ++acyclic;
        if (expect.find("routing loop") != std::string::npos) ++loops;
        if (expect.find("incomplete") != std::string::npos) ++holes;
      }
    }
  }
  // Every outcome the check can have is exercised.
  EXPECT_GT(cyclic, 0);
  EXPECT_GT(acyclic, 0);
  EXPECT_GT(loops, 0);
  EXPECT_GT(holes, 0);
}

TEST(CdgOracle, FirstErrorIsTheFirstBrokenPairInSourceMajorOrder) {
  // Two faults on a bus, both on routes toward rank 0: ranks 2 and 3 bounce
  // the packet between them (hit first by source 2), and rank 6 has no
  // entry (hit first by source 6). Sources are walked in ascending order,
  // so the loop is reported; once it is mended, the hole is.
  const Topology topo = Topology::Bus(8);
  RoutingTable routes = ComputeRoutes(topo, RoutingScheme::kShortestPath);
  const auto port_toward = [&](int from, int to) {
    for (const auto& [nbr, port] : topo.Neighbors(from)) {
      if (nbr == to) return port;
    }
    throw RoutingError("not adjacent");
  };
  routes.set_next_port(6, 0, -1);
  routes.set_next_port(2, 0, port_toward(2, 3));
  EXPECT_EQ(Expect(topo, routes),
            "error: routing loop detected from rank 2 to rank 0");
  EXPECT_EQ(Actual(topo, routes), Expect(topo, routes));
  routes.set_next_port(2, 0, port_toward(2, 1));
  EXPECT_EQ(Expect(topo, routes), "error: incomplete routing table at rank 6");
  EXPECT_EQ(Actual(topo, routes), Expect(topo, routes));
}

}  // namespace
}  // namespace smi::net
