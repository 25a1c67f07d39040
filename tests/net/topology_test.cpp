#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

namespace smi::net {
namespace {

TEST(Topology, ConnectAndPeer) {
  Topology t(4, 2);
  t.Connect(PortId{0, 1}, PortId{1, 0});
  ASSERT_TRUE(t.Peer(PortId{0, 1}).has_value());
  EXPECT_EQ(t.Peer(PortId{0, 1})->rank, 1);
  EXPECT_EQ(t.Peer(PortId{1, 0})->rank, 0);
  EXPECT_FALSE(t.Peer(PortId{0, 0}).has_value());
}

TEST(Topology, RejectsInvalidWiring) {
  Topology t(2, 2);
  EXPECT_THROW(t.Connect(PortId{0, 0}, PortId{0, 1}), ConfigError);  // same rank
  EXPECT_THROW(t.Connect(PortId{0, 0}, PortId{2, 0}), ConfigError);  // range
  EXPECT_THROW(t.Connect(PortId{0, 5}, PortId{1, 0}), ConfigError);  // range
  t.Connect(PortId{0, 0}, PortId{1, 0});
  EXPECT_THROW(t.Connect(PortId{0, 0}, PortId{1, 1}), ConfigError);  // rewire
  EXPECT_THROW(Topology(0, 1), ConfigError);
  EXPECT_THROW(Topology(1, 0), ConfigError);
}

/// Runs `wire` and expects a ConfigError whose message names every needle.
template <class F>
void ExpectWiringError(F wire, std::initializer_list<const char*> needles) {
  try {
    wire();
    FAIL() << "invalid wiring accepted";
  } catch (const ConfigError& e) {
    for (const char* needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

/// Machine-generated cabling: a JSON cable list as the route generator
/// reads it, validated by the same Connect.
Topology FromCables(const std::string& ranks_ports,
                    const std::string& connections) {
  return Topology::FromJson(
      json::Parse("{" + ranks_ports + R"(,"connections":[)" + connections +
                  "]}"));
}

TEST(Topology, RejectsOutOfRangeConnectionPort) {
  // Every port index is bounds-checked against ports_per_rank and every
  // rank against num_ranks, whether cabled in code or from JSON.
  ExpectWiringError(
      [] { Topology(2, 2).Connect(PortId{0, 0}, PortId{1, 2}); },
      {"rank 1", "port 2"});
  ExpectWiringError(
      [] {
        FromCables(R"("ranks":2,"ports_per_rank":2)",
                   R"({"a":[0,0],"b":[1,2]})");
      },
      {"rank 1", "port 2"});
  ExpectWiringError(
      [] { Topology(2, 2).Connect(PortId{0, 0}, PortId{3, 0}); },
      {"rank 3", "port 0"});
  ExpectWiringError(
      [] {
        FromCables(R"("ranks":2,"ports_per_rank":2)",
                   R"({"a":[0,0],"b":[3,0]})");
      },
      {"rank 3", "port 0"});
}

TEST(Topology, RejectsDoublyWiredNetworkInterface) {
  // Each (rank, port) network interface carries exactly one cable, and a
  // cable cannot join two ports of one rank.
  ExpectWiringError(
      [] {
        Topology t(3, 1);
        t.Connect(PortId{0, 0}, PortId{1, 0});
        t.Connect(PortId{0, 0}, PortId{2, 0});
      },
      {"already wired", "rank 0", "port 0"});
  ExpectWiringError(
      [] {
        FromCables(R"("ranks":3,"ports_per_rank":1)",
                   R"({"a":[0,0],"b":[1,0]},{"a":[0,0],"b":[2,0]})");
      },
      {"already wired", "rank 0", "port 0"});
  ExpectWiringError(
      [] { Topology(2, 2).Connect(PortId{0, 0}, PortId{0, 1}); },
      {"same rank", "rank 0"});
  ExpectWiringError(
      [] {
        FromCables(R"("ranks":2,"ports_per_rank":2)",
                   R"({"a":[0,0],"b":[0,1]})");
      },
      {"same rank", "rank 0"});
}

TEST(Topology, NeighborsFollowPortOrderWhateverTheCablingOrder) {
  Topology t(4, 4);
  t.Connect(PortId{0, 3}, PortId{1, 0});
  t.Connect(PortId{0, 0}, PortId{2, 2});
  t.Connect(PortId{3, 1}, PortId{0, 2});
  const std::vector<std::pair<int, int>> expected = {{2, 0}, {3, 2}, {1, 3}};
  EXPECT_EQ(t.Neighbors(0), expected);
  // Same list as scanning the ports for peers.
  for (int r = 0; r < t.num_ranks(); ++r) {
    std::vector<std::pair<int, int>> scanned;
    for (int q = 0; q < t.ports_per_rank(); ++q) {
      if (const auto b = t.Peer(PortId{r, q})) scanned.emplace_back(b->rank, q);
    }
    EXPECT_EQ(t.Neighbors(r), scanned) << "rank " << r;
  }
  EXPECT_THROW(t.Neighbors(4), ConfigError);
  EXPECT_THROW(t.Neighbors(-1), ConfigError);
}

TEST(Topology, BusShape) {
  const Topology t = Topology::Bus(8);
  EXPECT_EQ(t.num_ranks(), 8);
  EXPECT_EQ(t.Connections().size(), 7u);
  EXPECT_TRUE(t.IsConnected());
  // Interior rank: two neighbours; end ranks: one.
  EXPECT_EQ(t.Neighbors(0).size(), 1u);
  EXPECT_EQ(t.Neighbors(3).size(), 2u);
  EXPECT_EQ(t.Neighbors(7).size(), 1u);
}

TEST(Topology, RingShape) {
  const Topology t = Topology::Ring(6);
  EXPECT_EQ(t.Connections().size(), 6u);
  for (int r = 0; r < 6; ++r) EXPECT_EQ(t.Neighbors(r).size(), 2u);
}

TEST(Topology, Torus2x4MatchesPaperCluster) {
  // The paper's cluster: 8 FPGAs in a 2D torus, all 4 QSFP ports of each
  // FPGA wired to 4 distinct other FPGAs.
  const Topology t = Topology::Torus2D(2, 4);
  EXPECT_EQ(t.num_ranks(), 8);
  EXPECT_EQ(t.ports_per_rank(), 4);
  EXPECT_EQ(t.Connections().size(), 16u);  // 2 cables per rank average * 8
  EXPECT_TRUE(t.IsConnected());
  for (int r = 0; r < 8; ++r) {
    const auto neighbors = t.Neighbors(r);
    EXPECT_EQ(neighbors.size(), 4u);  // every port wired
  }
}

TEST(Topology, Torus4x4EveryRankHasFourDistinctNeighbors) {
  const Topology t = Topology::Torus2D(4, 4);
  for (int r = 0; r < 16; ++r) {
    std::set<int> distinct;
    for (const auto& [nbr, port] : t.Neighbors(r)) distinct.insert(nbr);
    EXPECT_EQ(distinct.size(), 4u);
  }
}

TEST(Topology, CliqueShape) {
  const Topology t = Topology::Clique(5);
  EXPECT_EQ(t.ports_per_rank(), 4);
  EXPECT_EQ(t.Connections().size(), 10u);
  for (int r = 0; r < 5; ++r) EXPECT_EQ(t.Neighbors(r).size(), 4u);
}

TEST(Topology, DisconnectedIsDetected) {
  Topology t(4, 2);
  t.Connect(PortId{0, 0}, PortId{1, 0});
  t.Connect(PortId{2, 0}, PortId{3, 0});
  EXPECT_FALSE(t.IsConnected());
}

TEST(Topology, JsonRoundTrip) {
  const Topology t = Topology::Torus2D(2, 4);
  const Topology u = Topology::FromJson(t.ToJson());
  EXPECT_EQ(u.num_ranks(), t.num_ranks());
  EXPECT_EQ(u.ports_per_rank(), t.ports_per_rank());
  EXPECT_EQ(u.Connections(), t.Connections());
}

TEST(Topology, JsonFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/smi_topo_test.json";
  const Topology t = Topology::Bus(4);
  json::WriteFile(path, t.ToJson());
  const Topology u = Topology::LoadFile(path);
  EXPECT_EQ(u.Connections(), t.Connections());
}

TEST(Topology, JsonRejectsMalformedConnections) {
  EXPECT_THROW(
      Topology::FromJson(json::Parse(
          R"({"ranks":2,"ports_per_rank":1,"connections":[{"a":[0],"b":[1,0]}]})")),
      ParseError);
}

TEST(Topology, SwitchRankMarking) {
  Topology t(4, 2);
  EXPECT_FALSE(t.has_switches());
  EXPECT_EQ(t.num_compute_ranks(), 4);
  t.MarkSwitch(2);
  EXPECT_TRUE(t.has_switches());
  EXPECT_TRUE(t.is_switch(2));
  EXPECT_FALSE(t.is_switch(0));
  EXPECT_EQ(t.num_compute_ranks(), 3);
  EXPECT_EQ(t.ComputeRankIds(), (std::vector<int>{0, 1, 3}));
  t.MarkSwitch(2);  // idempotent
  EXPECT_EQ(t.num_compute_ranks(), 3);
  EXPECT_THROW(t.MarkSwitch(4), ConfigError);
  // A fabric with no compute ranks at all is rejected.
  t.MarkSwitch(0);
  t.MarkSwitch(1);
  EXPECT_THROW(t.MarkSwitch(3), ConfigError);
}

TEST(Topology, FatTreeShape) {
  // 2 hosts per leaf, 2 leaves, 2 spines: hosts [0,4), leaves 4-5,
  // spines 6-7.
  const Topology t = Topology::FatTree(2, 2, 2);
  EXPECT_EQ(t.num_ranks(), 8);
  EXPECT_EQ(t.num_compute_ranks(), 4);
  for (int h = 0; h < 4; ++h) {
    EXPECT_FALSE(t.is_switch(h));
    const auto peer = t.Peer(PortId{h, 0});
    ASSERT_TRUE(peer.has_value());
    EXPECT_EQ(peer->rank, 4 + h / 2);  // host's leaf
  }
  for (int sw = 4; sw < 8; ++sw) EXPECT_TRUE(t.is_switch(sw));
  // Every leaf reaches every spine exactly once.
  for (int leaf = 4; leaf < 6; ++leaf) {
    std::set<int> spines;
    for (const auto& [nbr, port] : t.Neighbors(leaf)) {
      if (nbr >= 6) spines.insert(nbr);
    }
    EXPECT_EQ(spines, (std::set<int>{6, 7}));
  }
  EXPECT_TRUE(t.IsConnected());
  EXPECT_THROW(Topology::FatTree(0, 2, 2), ConfigError);
  EXPECT_THROW(Topology::FatTree(2, 2, 0), ConfigError);
}

TEST(Topology, DragonflyShape) {
  // 3 groups, 2 routers each, 2 hosts per router: hosts [0,12), routers
  // 12-17 group-major.
  const Topology t = Topology::Dragonfly(3, 2, 2);
  EXPECT_EQ(t.num_ranks(), 18);
  EXPECT_EQ(t.num_compute_ranks(), 12);
  for (int r = 12; r < 18; ++r) EXPECT_TRUE(t.is_switch(r));
  EXPECT_TRUE(t.IsConnected());
  // Every group pair is joined by exactly one global cable: collect
  // router-router edges whose endpoints sit in different groups.
  std::map<std::pair<int, int>, int> group_links;
  for (const auto& conn : t.Connections()) {
    const int ra = conn.first.rank, rb = conn.second.rank;
    if (ra < 12 || rb < 12) continue;  // host cable
    const int ga = (ra - 12) / 2, gb = (rb - 12) / 2;
    if (ga == gb) continue;  // local clique cable
    group_links[{std::min(ga, gb), std::max(ga, gb)}]++;
  }
  EXPECT_EQ(group_links.size(), 3u);  // 3 choose 2
  for (const auto& [pair, count] : group_links) EXPECT_EQ(count, 1);
  EXPECT_THROW(Topology::Dragonfly(1, 2, 2), ConfigError);
  EXPECT_THROW(Topology::Dragonfly(3, 0, 2), ConfigError);
}

TEST(Topology, SwitchesSurviveJsonRoundTrip) {
  const Topology t = Topology::FatTree(2, 2, 2);
  const Topology u = Topology::FromJson(t.ToJson());
  EXPECT_EQ(u.Connections(), t.Connections());
  EXPECT_EQ(u.num_compute_ranks(), t.num_compute_ranks());
  for (int r = 0; r < t.num_ranks(); ++r) {
    EXPECT_EQ(u.is_switch(r), t.is_switch(r));
  }
}

}  // namespace
}  // namespace smi::net
