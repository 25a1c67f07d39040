#include "net/topology.h"

#include <algorithm>
#include <queue>

#include "common/error.h"

namespace smi::net {

Topology::Topology(int num_ranks, int ports_per_rank)
    : num_ranks_(num_ranks), ports_per_rank_(ports_per_rank) {
  if (num_ranks < 1) throw ConfigError("topology needs at least one rank");
  if (ports_per_rank < 1) {
    throw ConfigError("topology needs at least one port per rank");
  }
  peer_.resize(static_cast<std::size_t>(num_ranks) *
               static_cast<std::size_t>(ports_per_rank));
  switch_.assign(static_cast<std::size_t>(num_ranks), false);
  adj_.resize(static_cast<std::size_t>(num_ranks));
}

void Topology::MarkSwitch(int rank) {
  if (rank < 0 || rank >= num_ranks_) {
    throw ConfigError("switch rank out of range: " + std::to_string(rank));
  }
  if (!switch_[static_cast<std::size_t>(rank)]) {
    switch_[static_cast<std::size_t>(rank)] = true;
    ++num_switch_ranks_;
    if (num_switch_ranks_ == num_ranks_) {
      throw ConfigError("topology cannot be all switch ranks");
    }
  }
}

bool Topology::is_switch(int rank) const {
  if (rank < 0 || rank >= num_ranks_) {
    throw ConfigError("rank out of range: " + std::to_string(rank));
  }
  return switch_[static_cast<std::size_t>(rank)];
}

std::vector<int> Topology::ComputeRankIds() const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(num_compute_ranks()));
  for (int r = 0; r < num_ranks_; ++r) {
    if (!switch_[static_cast<std::size_t>(r)]) out.push_back(r);
  }
  return out;
}

int Topology::Index(PortId p) const {
  if (p.rank < 0 || p.rank >= num_ranks_ || p.port < 0 ||
      p.port >= ports_per_rank_) {
    throw ConfigError("port out of range: rank " + std::to_string(p.rank) +
                      " port " + std::to_string(p.port));
  }
  return p.rank * ports_per_rank_ + p.port;
}

void Topology::Connect(PortId a, PortId b) {
  const int ia = Index(a);
  const int ib = Index(b);
  if (ia == ib) throw ConfigError("cannot connect a port to itself");
  if (a.rank == b.rank) {
    throw ConfigError("cannot cable two ports of the same rank: rank " +
                      std::to_string(a.rank));
  }
  for (const PortId p : {a, b}) {
    if (peer_[static_cast<std::size_t>(Index(p))]) {
      throw ConfigError("port already wired: rank " + std::to_string(p.rank) +
                        " port " + std::to_string(p.port));
    }
  }
  peer_[static_cast<std::size_t>(ia)] = b;
  peer_[static_cast<std::size_t>(ib)] = a;
  // Keep each rank's neighbour list in port order.
  const auto link = [this](PortId from, PortId to) {
    auto& nbrs = adj_[static_cast<std::size_t>(from.rank)];
    const auto at = std::find_if(
        nbrs.begin(), nbrs.end(),
        [&](const std::pair<int, int>& e) { return e.second > from.port; });
    nbrs.insert(at, {to.rank, from.port});
  };
  link(a, b);
  link(b, a);
}

std::optional<PortId> Topology::Peer(PortId p) const {
  return peer_[static_cast<std::size_t>(Index(p))];
}

std::vector<std::pair<PortId, PortId>> Topology::Connections() const {
  std::vector<std::pair<PortId, PortId>> out;
  for (int r = 0; r < num_ranks_; ++r) {
    for (int q = 0; q < ports_per_rank_; ++q) {
      const PortId a{r, q};
      const std::optional<PortId> b = Peer(a);
      if (b && a < *b) out.emplace_back(a, *b);
    }
  }
  return out;
}

const std::vector<std::pair<int, int>>& Topology::Neighbors(int rank) const {
  if (rank < 0 || rank >= num_ranks_) {
    throw ConfigError("rank out of range: " + std::to_string(rank));
  }
  return adj_[static_cast<std::size_t>(rank)];
}

bool Topology::IsConnected() const {
  std::vector<bool> seen(static_cast<std::size_t>(num_ranks_), false);
  std::queue<int> queue;
  queue.push(0);
  seen[0] = true;
  int count = 1;
  while (!queue.empty()) {
    const int r = queue.front();
    queue.pop();
    for (const auto& [nbr, port] : Neighbors(r)) {
      if (!seen[static_cast<std::size_t>(nbr)]) {
        seen[static_cast<std::size_t>(nbr)] = true;
        ++count;
        queue.push(nbr);
      }
    }
  }
  return count == num_ranks_;
}

Topology Topology::Torus2D(int rows, int cols) {
  if (rows < 2 || cols < 2) {
    throw ConfigError("2D torus needs at least 2x2 ranks");
  }
  Topology t(rows * cols, 4);
  const auto id = [cols](int r, int c) { return r * cols + c; };
  // Port plan: 0=north, 1=east, 2=south, 3=west. Each cable connects a
  // south port to the north port of the rank below, and an east port to the
  // west port of the rank to the right (with wraparound).
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int south = id((r + 1) % rows, c);
      const int east = id(r, (c + 1) % cols);
      t.Connect(PortId{id(r, c), 2}, PortId{south, 0});
      t.Connect(PortId{id(r, c), 1}, PortId{east, 3});
    }
  }
  return t;
}

Topology Topology::Bus(int n, int ports_per_rank) {
  if (n < 2) throw ConfigError("bus needs at least 2 ranks");
  if (ports_per_rank < 2) throw ConfigError("bus needs >= 2 ports per rank");
  Topology t(n, ports_per_rank);
  for (int r = 0; r + 1 < n; ++r) {
    t.Connect(PortId{r, 1}, PortId{r + 1, 0});
  }
  return t;
}

Topology Topology::Ring(int n, int ports_per_rank) {
  if (n < 3) throw ConfigError("ring needs at least 3 ranks");
  Topology t = Bus(n, ports_per_rank);
  t.Connect(PortId{n - 1, 1}, PortId{0, 0});
  return t;
}

Topology Topology::Clique(int n) {
  if (n < 2) throw ConfigError("clique needs at least 2 ranks");
  Topology t(n, n - 1);
  // Port q of rank r connects to the q-th other rank (skipping r itself);
  // this uses every port exactly once.
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      t.Connect(PortId{a, b - 1}, PortId{b, a});
    }
  }
  return t;
}

Topology Topology::FatTree(int hosts_per_leaf, int leaves, int spines) {
  if (hosts_per_leaf < 1 || leaves < 1 || spines < 1) {
    throw ConfigError("fat-tree needs hosts_per_leaf, leaves, spines >= 1");
  }
  const int hosts = hosts_per_leaf * leaves;
  const int num_ranks = hosts + leaves + spines;
  // Hosts need 1 port; leaves need hosts_per_leaf (down) + spines (up);
  // spines need one port per leaf. Port counts are uniform per rank, so use
  // the max; unused ports stay unwired.
  const int ports = std::max(hosts_per_leaf + spines, std::max(leaves, 1));
  Topology t(num_ranks, ports);
  // Host h -> its leaf: host port 0, leaf port (h mod hosts_per_leaf).
  for (int h = 0; h < hosts; ++h) {
    const int leaf = hosts + h / hosts_per_leaf;
    t.Connect(PortId{h, 0}, PortId{leaf, h % hosts_per_leaf});
  }
  // Leaf l -> spine s: leaf port hosts_per_leaf + s, spine port l.
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < spines; ++s) {
      t.Connect(PortId{hosts + l, hosts_per_leaf + s},
                PortId{hosts + leaves + s, l});
    }
  }
  for (int r = hosts; r < num_ranks; ++r) t.MarkSwitch(r);
  return t;
}

Topology Topology::Dragonfly(int groups, int routers_per_group,
                             int hosts_per_router) {
  if (groups < 2) throw ConfigError("dragonfly needs at least 2 groups");
  if (routers_per_group < 1 || hosts_per_router < 1) {
    throw ConfigError("dragonfly needs routers_per_group, hosts_per_router >= 1");
  }
  const int a = routers_per_group;
  const int p = hosts_per_router;
  const int hosts = groups * a * p;
  const int num_ranks = hosts + groups * a;
  // Global channels are spread round-robin over a group's routers: channel
  // k of a group lands on router k % a, global-port slot k / a.
  const int h_global = (groups - 1 + a - 1) / a;
  const int ports = std::max(p + (a - 1) + h_global, 1);
  Topology t(num_ranks, ports);
  const auto router_rank = [&](int g, int i) { return hosts + g * a + i; };
  for (int g = 0; g < groups; ++g) {
    // Hosts hang off their router on ports [0, p).
    for (int i = 0; i < a; ++i) {
      for (int x = 0; x < p; ++x) {
        const int host = (g * a + i) * p + x;
        t.Connect(PortId{host, 0}, PortId{router_rank(g, i), x});
      }
    }
    // Local clique over the group's routers on ports [p, p + a - 1).
    for (int i = 0; i < a; ++i) {
      for (int j = i + 1; j < a; ++j) {
        t.Connect(PortId{router_rank(g, i), p + (j - 1)},
                  PortId{router_rank(g, j), p + i});
      }
    }
  }
  // One global cable per group pair. Group g's channel index for peer group
  // g2 is g2's position in g's ascending peer list.
  const auto channel = [&](int g, int peer) { return peer < g ? peer : peer - 1; };
  for (int g1 = 0; g1 < groups; ++g1) {
    for (int g2 = g1 + 1; g2 < groups; ++g2) {
      const int k1 = channel(g1, g2);
      const int k2 = channel(g2, g1);
      t.Connect(PortId{router_rank(g1, k1 % a), p + (a - 1) + k1 / a},
                PortId{router_rank(g2, k2 % a), p + (a - 1) + k2 / a});
    }
  }
  for (int r = hosts; r < num_ranks; ++r) t.MarkSwitch(r);
  return t;
}

Topology Topology::FromJson(const json::Value& v) {
  const int ranks = static_cast<int>(v.at("ranks").as_int());
  const int ports = static_cast<int>(v.at("ports_per_rank").as_int());
  Topology t(ranks, ports);
  for (const json::Value& conn : v.at("connections").as_array()) {
    const json::Array& a = conn.at("a").as_array();
    const json::Array& b = conn.at("b").as_array();
    if (a.size() != 2 || b.size() != 2) {
      throw ParseError("connection endpoints must be [rank, port] pairs");
    }
    t.Connect(PortId{static_cast<int>(a[0].as_int()),
                     static_cast<int>(a[1].as_int())},
              PortId{static_cast<int>(b[0].as_int()),
                     static_cast<int>(b[1].as_int())});
  }
  // "switches" is optional for compatibility with pre-scale-out files.
  if (v.contains("switches")) {
    for (const json::Value& r : v.at("switches").as_array()) {
      t.MarkSwitch(static_cast<int>(r.as_int()));
    }
  }
  return t;
}

Topology Topology::LoadFile(const std::string& path) {
  return FromJson(json::ParseFile(path));
}

json::Value Topology::ToJson() const {
  json::Object root;
  root["ranks"] = json::Value(num_ranks_);
  root["ports_per_rank"] = json::Value(ports_per_rank_);
  json::Array conns;
  for (const auto& [a, b] : Connections()) {
    json::Object c;
    c["a"] = json::Value(json::Array{json::Value(a.rank), json::Value(a.port)});
    c["b"] = json::Value(json::Array{json::Value(b.rank), json::Value(b.port)});
    conns.push_back(json::Value(std::move(c)));
  }
  root["connections"] = json::Value(std::move(conns));
  if (num_switch_ranks_ > 0) {
    json::Array switches;
    for (int r = 0; r < num_ranks_; ++r) {
      if (switch_[static_cast<std::size_t>(r)]) switches.push_back(json::Value(r));
    }
    root["switches"] = json::Value(std::move(switches));
  }
  return json::Value(std::move(root));
}

}  // namespace smi::net
