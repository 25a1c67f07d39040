#include "transport/fabric.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/smi.h"
#include "obs/recorder.h"

namespace smi::transport {
namespace {

using net::Header;
using net::OpType;
using net::Packet;
using net::RoutingScheme;
using net::RoutingTable;
using net::Topology;
using sim::Cycle;
using sim::Engine;
using sim::Kernel;
using sim::fifo_pop;
using sim::fifo_push;

Packet MakePacket(int src, int dst, int port, std::uint32_t seq) {
  Packet p;
  p.hdr = Header{static_cast<std::uint8_t>(src),
                 static_cast<std::uint8_t>(dst),
                 static_cast<std::uint8_t>(port), OpType::kData, 7};
  p.StoreBytes(0, &seq, sizeof(seq));
  return p;
}

std::uint32_t Seq(const Packet& p) {
  std::uint32_t seq = 0;
  p.LoadBytes(0, &seq, sizeof(seq));
  return seq;
}

Kernel SendPackets(PacketFifo& out, int src, int dst, int port, int n) {
  for (int i = 0; i < n; ++i) {
    co_await fifo_push(out, MakePacket(src, dst, port, static_cast<std::uint32_t>(i)));
  }
}

Kernel RecvPackets(PacketFifo& in, int n, std::vector<std::uint32_t>& sink) {
  for (int i = 0; i < n; ++i) {
    sink.push_back(Seq(co_await fifo_pop(in)));
  }
}

/// A fabric over `topo` with one send endpoint at `src_port` on every rank
/// and one recv endpoint at the same port number.
Fabric MakeSimpleFabric(Engine& engine, const Topology& topo, int port,
                        FabricConfig config = {}) {
  RankEndpoints eps;
  eps.send_ports.push_back(port);
  eps.recv_ports.push_back(port);
  std::vector<RankEndpoints> all(static_cast<std::size_t>(topo.num_ranks()),
                                 eps);
  Fabric fabric(engine, topo, std::move(all), config);
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));
  return fabric;
}

TEST(Fabric, OneHopDelivery) {
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, 50), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), 50, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Fabric, MultiHopDeliveryOnBus) {
  Engine engine;
  const Topology topo = Topology::Bus(8);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 7, 0, 100), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(7, 0), 100, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Fabric, SameRankLoopback) {
  // §3.1: channels can communicate between two applications within the same
  // rank using matching ports.
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 3);
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 3), 0, 0, 3, 20), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(0, 3), 20, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 20u);
}

TEST(Fabric, CrossCkrPortForwarding) {
  // Recv port 5 is owned by CKR 1 (5 mod 4); a packet arriving on a
  // different network interface must cross the CKR crossbar to reach it.
  Engine engine;
  const Topology topo = Topology::Torus2D(2, 4);
  RankEndpoints eps;
  eps.send_ports.push_back(5);
  eps.recv_ports.push_back(5);
  std::vector<RankEndpoints> all(8, eps);
  Fabric fabric(engine, topo, std::move(all));
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 5), 0, 6, 5, 40), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(6, 5), 40, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 40u);
  for (std::uint32_t i = 0; i < 40; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Fabric, AllPairsOnTorus) {
  // Every (src, dst) pair on the paper's 2x4 torus must deliver, in order.
  Engine engine;
  const Topology topo = Topology::Torus2D(2, 4);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  // One pair at a time to keep the check simple and deterministic.
  for (int src = 0; src < 8; ++src) {
    for (int dst = 0; dst < 8; ++dst) {
      if (src == dst) continue;
      Engine e2;
      Fabric f2 = MakeSimpleFabric(e2, topo, 0);
      std::vector<std::uint32_t> sink;
      e2.AddKernel(SendPackets(f2.SendEndpoint(src, 0), src, dst, 0, 10), "s");
      e2.AddKernel(RecvPackets(f2.RecvEndpoint(dst, 0), 10, sink), "r");
      e2.Run();
      ASSERT_EQ(sink.size(), 10u) << "src=" << src << " dst=" << dst;
      for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sink[i], i);
    }
  }
}

TEST(Fabric, TwoStreamsShareALinkFairly) {
  // Two senders on rank 0 and rank 1, both sending to rank 3 on a bus:
  // rank 1's CKS must interleave transit packets with local ones (packet
  // switching, §4.2) and both streams must arrive completely.
  Engine engine;
  const Topology topo = Topology::Bus(4);
  RankEndpoints eps;
  eps.send_ports.push_back(0);
  eps.send_ports.push_back(1);
  eps.recv_ports.push_back(0);
  eps.recv_ports.push_back(1);
  std::vector<RankEndpoints> all(4, eps);
  Fabric fabric(engine, topo, std::move(all));
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));
  std::vector<std::uint32_t> sink0, sink1;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 3, 0, 200), "s0");
  engine.AddKernel(SendPackets(fabric.SendEndpoint(1, 1), 1, 3, 1, 200), "s1");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(3, 0), 200, sink0), "r0");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(3, 1), 200, sink1), "r1");
  engine.Run();
  ASSERT_EQ(sink0.size(), 200u);
  ASSERT_EQ(sink1.size(), 200u);
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(sink0[i], i);  // per-channel FIFO order preserved
    EXPECT_EQ(sink1[i], i);
  }
}

TEST(Fabric, RoutesReplaceableWithoutRebuild) {
  // "If the interconnection topology changes ... the routing scheme merely
  // needs to be recomputed and uploaded": replace torus routes with routes
  // computed for a bus overlay of the same cabling subset.
  Engine engine;
  const Topology topo = Topology::Bus(4);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  // Upload a *different* valid table (recomputed; identical topology here,
  // but exercising the upload path twice).
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kUpDown));
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 3, 0, 30), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(3, 0), 30, sink), "r");
  engine.Run();
  EXPECT_EQ(sink.size(), 30u);
}

TEST(Fabric, MissingEndpointThrows) {
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  EXPECT_THROW(fabric.SendEndpoint(0, 9), ConfigError);
  EXPECT_THROW(fabric.RecvEndpoint(1, 9), ConfigError);
}

/// Runs `access` and expects a ConfigError whose message names `rank` and
/// `port`.
template <class F>
void ExpectRejected(F access, int rank, int port) {
  try {
    access();
    ADD_FAILURE() << "rank " << rank << " port " << port << " was accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank " + std::to_string(rank)), std::string::npos)
        << what;
    EXPECT_NE(what.find("port " + std::to_string(port)), std::string::npos)
        << what;
  }
}

TEST(Fabric, AccessorsRejectOutOfRangeRankAndPort) {
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  const int ranks = fabric.num_ranks();
  const int ports = fabric.ports_per_rank();
  const std::pair<int, int> bad[] = {{-1, 0}, {ranks, 0}, {0, ports}};
  for (const auto& [r, p] : bad) {
    ExpectRejected([&, r = r, p = p] { fabric.SendEndpoint(r, p); }, r, p);
    ExpectRejected([&, r = r, p = p] { fabric.RecvEndpoint(r, p); }, r, p);
    ExpectRejected([&, r = r, p = p] { fabric.cks(r, p); }, r, p);
    ExpectRejected([&, r = r, p = p] { fabric.ckr(r, p); }, r, p);
  }
}

TEST(Fabric, PacketForUndeclaredRecvPortThrowsAtFirstCkr) {
  // Rank 1 declares receive port 0 only; a packet for its port 3 is
  // rejected by the CKR it first reaches, the one on rank 1's end of the
  // cable from rank 0.
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  int entry_port = -1;
  for (const auto& [a, b] : topo.Connections()) {
    if (a.rank == 1) entry_port = a.port;
    if (b.rank == 1) entry_port = b.port;
  }
  ASSERT_GE(entry_port, 0);
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 3, 1), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), 1, sink), "r");
  try {
    engine.Run();
    ADD_FAILURE() << "the packet for port 3 was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "r1.ckr" + std::to_string(entry_port) +
                  ": packet for unknown port 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(sink.empty());
}

TEST(Fabric, RejectsOversizedWireFields) {
  Engine engine;
  RankEndpoints eps;
  eps.send_ports.push_back(300);  // > 255
  const Topology topo = Topology::Bus(2);
  std::vector<RankEndpoints> all(2, eps);
  EXPECT_THROW(Fabric(engine, topo, std::move(all)), ConfigError);
}

TEST(Fabric, RejectsDuplicateEndpointPort) {
  // A duplicate port in an endpoint list would silently overwrite the first
  // endpoint FIFO; construction must fail and name the rank and port.
  Engine engine;
  const Topology topo = Topology::Bus(2);
  RankEndpoints eps;
  eps.send_ports.push_back(4);
  eps.send_ports.push_back(4);
  std::vector<RankEndpoints> all(2, eps);
  try {
    Fabric fabric(engine, topo, std::move(all));
    FAIL() << "duplicate send port accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("port 4"), std::string::npos);
  }

  Engine engine2;
  RankEndpoints reps;
  reps.recv_ports.push_back(2);
  reps.recv_ports.push_back(2);
  std::vector<RankEndpoints> all2(2, reps);
  EXPECT_THROW(Fabric(engine2, topo, std::move(all2)), ConfigError);
}

TEST(Fabric, UploadRoutesRejectsCorruptTableBeforeUploading) {
  // A corrupt table must be rejected whole — validated against the wiring
  // before any CKS is touched — so a failed upload leaves the previously
  // uploaded routes fully intact.
  Engine engine;
  const Topology topo = Topology::Bus(3);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));

  RoutingTable wrong_ranks(2);
  EXPECT_THROW(fabric.UploadRoutes(wrong_ranks), ConfigError);

  RoutingTable oor = net::ComputeRoutes(topo, RoutingScheme::kAuto);
  oor.set_next_port(2, 0, topo.ports_per_rank());  // out of range
  EXPECT_THROW(fabric.UploadRoutes(oor), ConfigError);

  RoutingTable unwired = net::ComputeRoutes(topo, RoutingScheme::kAuto);
  unwired.set_next_port(0, 2, 3);  // rank 0 port 3 carries no cable on a bus
  try {
    fabric.UploadRoutes(unwired);
    FAIL() << "unwired port accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unwired"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos);
  }

  // Missing route (-1 off the diagonal) is likewise rejected up front.
  RoutingTable incomplete = net::ComputeRoutes(topo, RoutingScheme::kAuto);
  incomplete.set_next_port(1, 2, -1);
  EXPECT_THROW(fabric.UploadRoutes(incomplete), ConfigError);

  // The original routes survived every failed upload: traffic still flows.
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 2, 0, 10), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(2, 0), 10, sink), "r");
  engine.Run();
  EXPECT_EQ(sink.size(), 10u);
}

TEST(Fabric, JsonCablingMatchesTopologyBuild) {
  // Machine-generated cabling enters through Topology::FromJson: a fabric
  // built from the JSON cable list delivers end to end like one built from
  // the topology itself.
  Engine engine;
  const Topology topo = Topology::FromJson(Topology::Bus(3).ToJson());
  RankEndpoints eps;
  eps.send_ports.push_back(0);
  eps.recv_ports.push_back(0);
  std::vector<RankEndpoints> all(3, eps);
  Fabric fabric(engine, topo, std::move(all));
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 2, 0, 25), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(2, 0), 25, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 25u);
  for (std::uint32_t i = 0; i < 25; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Fabric, InjectionLatencyIsFiveCyclesAtREqualsOne) {
  // Table 4, R=1: the CKS has 5 incoming connections (1 application, the
  // paired CKR, 3 other CKS) and polls one per cycle, so a lone saturating
  // sender is serviced once every 5 cycles.
  Engine engine;
  const Topology topo = Topology::Torus2D(2, 4);
  FabricConfig config;
  config.poll_r = 1;
  Fabric fabric = MakeSimpleFabric(engine, topo, 0, config);
  std::vector<std::uint32_t> sink;
  const int n = 400;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, n), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), n, sink), "r");
  const sim::RunStats stats = engine.Run();
  const double cycles_per_packet =
      static_cast<double>(stats.cycles) / static_cast<double>(n);
  EXPECT_NEAR(cycles_per_packet, 5.0, 0.5);
}

TEST(Fabric, HigherRImprovesInjectionRate) {
  const Topology topo = Topology::Torus2D(2, 4);
  auto measure = [&](int r) {
    Engine engine;
    FabricConfig config;
    config.poll_r = r;
    Fabric fabric = MakeSimpleFabric(engine, topo, 0, config);
    std::vector<std::uint32_t> sink;
    const int n = 800;
    engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, n), "s");
    engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), n, sink), "r");
    const sim::RunStats stats = engine.Run();
    return static_cast<double>(stats.cycles) / static_cast<double>(n);
  };
  const double r1 = measure(1);
  const double r4 = measure(4);
  const double r8 = measure(8);
  const double r16 = measure(16);
  EXPECT_GT(r1, r4);
  EXPECT_GT(r4, r8);
  EXPECT_GE(r8, r16 - 0.01);
}

TEST(Fabric, WireFormatFollowsRankCount) {
  Engine engine;
  Fabric small = MakeSimpleFabric(engine, Topology::Bus(2), 0);
  EXPECT_EQ(small.wire_format(), net::WireFormat::kCompact);
  Engine engine2;
  Fabric big = MakeSimpleFabric(engine2, Topology::Ring(300), 0);
  EXPECT_EQ(big.wire_format(), net::WireFormat::kWide);
}

TEST(Fabric, RejectsRanksBeyondWideLimitAndFaultyWideFabrics) {
  RankEndpoints eps;
  eps.send_ports.push_back(0);
  {
    Engine engine;
    std::vector<RankEndpoints> all(4100, eps);
    EXPECT_THROW(Fabric(engine, Topology::Ring(4100), std::move(all)),
                 ConfigError);
  }
  {
    // Fault plans rewrite the compact 8-bit wire header; a wide fabric with
    // a plan enabled must be rejected rather than corrupting ranks > 255.
    Engine engine;
    std::vector<RankEndpoints> all(300, eps);
    FabricConfig config;
    config.fault.enabled = true;
    EXPECT_THROW(
        Fabric(engine, Topology::Ring(300), std::move(all), config),
        ConfigError);
  }
}

TEST(Fabric, SparseWiringSkipsUncabledPorts) {
  // A fat-tree wires only a fraction of each rank's uniform port count;
  // its switch ranks make the fabric wire sparsely, so the unwired ports
  // carry no CKS/CKR and their accessors say so, while cabled traffic still
  // flows end to end.
  Engine engine;
  const Topology topo = Topology::FatTree(2, 2, 2);
  FabricConfig config;
  RankEndpoints eps;
  eps.send_ports.push_back(0);
  eps.recv_ports.push_back(0);
  std::vector<RankEndpoints> all(static_cast<std::size_t>(topo.num_ranks()),
                                 eps);
  Fabric fabric(engine, topo, std::move(all), config);
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kUpDown));
  // Host 0 wires only port 0 of 4; ports 1..3 are holes.
  EXPECT_NO_THROW(fabric.cks(0, 0));
  EXPECT_THROW(fabric.cks(0, 3), ConfigError);
  EXPECT_THROW(fabric.ckr(0, 3), ConfigError);

  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 3, 0, 20), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(3, 0), 20, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(sink[i], i);
}

/// Runs a 4-rank bus stream with counters on and reports, per fidelity
/// mode, the engine's flow-link registry size, the fabric's fidelity report
/// and how many counter rows carry a "fidelity" key.
struct FidelityTrace {
  std::size_t flow_links = 0;
  json::Value report;
  std::size_t link_rows = 0;
  std::size_t fidelity_rows = 0;
};

FidelityTrace RunBusStream(sim::FidelityMode mode) {
  sim::EngineConfig config;
  config.collect_counters = true;
  config.fidelity.mode = mode;
  Engine engine(config);
  const Topology topo = Topology::Bus(4);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 3, 0, 50), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(3, 0), 50, sink), "r");
  engine.Run();
  EXPECT_EQ(sink.size(), 50u);
  FidelityTrace trace;
  trace.flow_links = engine.flow_links().size();
  trace.report = fabric.FidelityJson();
  const json::Value counters = engine.recorder()->CountersJson();
  for (const json::Value& row : counters.at("links").as_array()) {
    ++trace.link_rows;
    if (row.contains("fidelity")) ++trace.fidelity_rows;
  }
  return trace;
}

TEST(Fabric, CycleFidelityLeavesNoFidelityTrace) {
  // Every clean cable is a FlowLink; under the default kCycle policy it must
  // stay invisible to the fidelity machinery so counter documents keep the
  // shape of a purely cycle-accurate fabric.
  const FidelityTrace cycle = RunBusStream(sim::FidelityMode::kCycle);
  EXPECT_EQ(cycle.flow_links, 0u);
  EXPECT_TRUE(cycle.report.is_null());
  EXPECT_EQ(cycle.link_rows, 6u);  // 3 cables, 2 directed links each
  EXPECT_EQ(cycle.fidelity_rows, 0u);

  // The same fabric under kAuto shows every trace, so the checks above are
  // not vacuous.
  const FidelityTrace hybrid = RunBusStream(sim::FidelityMode::kAuto);
  EXPECT_EQ(hybrid.flow_links, 6u);
  EXPECT_TRUE(hybrid.report.is_object());
  EXPECT_EQ(hybrid.fidelity_rows, 6u);
}

/// FIFO rows of a counters document by kind, the name up to ".r<rank>"
/// ("ckr->ckr.r3.1->2" is a "ckr->ckr").
std::map<std::string, int> FifoCensus(const json::Value& counters) {
  std::map<std::string, int> census;
  for (const json::Value& row : counters.at("fifos").as_array()) {
    const std::string& name = row.at("name").as_string();
    ++census[name.substr(0, name.find(".r"))];
  }
  return census;
}

TEST(Fabric, FatTreeBuildsNoCkrEdgeOnSwitches) {
  // fat_tree_256's fabric: 256 hosts under 32 leaves and 8 spines, one SPMD
  // send/recv pair on port 0. No packet can enter a switch's CKR crossbar or
  // its CKS -> CKR edge (a switch has no endpoint), and a host has one
  // active port, so the only CKR edges built are the hosts' CKS -> CKR.
  sim::EngineConfig config;
  config.collect_counters = true;
  Engine engine(config);
  const Topology topo = Topology::FatTree(8, 32, 8);
  std::vector<RankEndpoints> all(static_cast<std::size_t>(topo.num_ranks()));
  for (const int host : topo.ComputeRankIds()) {
    all[static_cast<std::size_t>(host)] = RankEndpoints{{0}, {0}};
  }
  Fabric fabric(engine, topo, std::move(all));
  engine.Run();  // no kernels: attaches the counters and returns
  const std::map<std::string, int> census =
      FifoCensus(engine.recorder()->CountersJson());
  const std::map<std::string, int> want = {
      {"app->cks", 256},  {"ckr->app", 256},  {"ckr->cks", 1024},
      {"cks->cks", 15616}, {"cks->ckr", 256}, {"cks->net", 1024},
      {"net->ckr", 1024}};
  EXPECT_EQ(census, want);
  int total = 0;
  for (const auto& [kind, n] : census) total += n;
  // Building every CKR edge of the active ports gives 35,840: 15,616 more
  // ckr->ckr and 768 more cks->ckr.
  EXPECT_EQ(total, 19456);
}

sim::Kernel StreamInts(core::Context& ctx, int dst, int port, int n) {
  core::SendChannel ch = ctx.OpenSendChannel(n, core::DataType::kInt, dst,
                                             port, ctx.world());
  for (int i = 0; i < n; ++i) {
    co_await ch.Push<std::int32_t>(ctx.rank() * 1000 + i);
  }
}

sim::Kernel CollectInts(core::Context& ctx, int src, int port, int n,
                        std::vector<std::int32_t>& sink) {
  core::RecvChannel ch = ctx.OpenRecvChannel(n, core::DataType::kInt, src,
                                             port, ctx.world());
  for (int i = 0; i < n; ++i) sink.push_back(co_await ch.Pop<std::int32_t>());
}

TEST(Fabric, CkrCrossbarOnlyTowardCkrsThatOwnARecvPort) {
  // Recv ports 0 and 5 of a 4-port torus rank are owned by CKRs 0 and 1
  // (5 mod 4), send ports 0 and 5 by CKSes 0 and 1: the CKR crossbar has
  // edges only toward CKRs 0 and 1, the CKS -> CKR edge only at ports 0
  // and 1. Port-5 traffic (rank r to r + 5, one row down and one column
  // right for most ranks) arrives on network ports other than 1 and crosses
  // that crossbar to CKR 1 past the empty slots; it must deliver the
  // host-reference payloads under every scheduler.
  core::ProgramSpec spec;
  for (const int port : {0, 5}) {
    spec.Add(core::OpSpec::Send(port, core::DataType::kInt));
    spec.Add(core::OpSpec::Recv(port, core::DataType::kInt));
  }
  constexpr int kRanks = 16;
  constexpr int kInts = 300;
  const struct {
    sim::SchedulerKind kind;
    unsigned threads;
    const char* label;
  } runs[] = {{sim::SchedulerKind::kSynchronous, 1, "sync"},
              {sim::SchedulerKind::kEventDriven, 1, "event"},
              {sim::SchedulerKind::kParallel, 2, "parallel"}};
  for (const auto& run : runs) {
    core::ClusterConfig config;
    config.engine.scheduler = run.kind;
    config.engine.threads = run.threads;
    config.engine.collect_counters = true;
    core::Cluster cluster(Topology::Torus2D(4, 4), spec, config);
    std::vector<std::vector<std::int32_t>> sinks(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      cluster.AddKernel(
          r, StreamInts(cluster.context(r), (r + 5) % kRanks, 5, kInts), "s");
      cluster.AddKernel(r,
                        CollectInts(cluster.context(r), (r + 11) % kRanks, 5,
                                    kInts, sinks[static_cast<std::size_t>(r)]),
                        "r");
    }
    cluster.Run();
    for (int r = 0; r < kRanks; ++r) {
      const std::vector<std::int32_t>& got =
          sinks[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kInts)) << run.label;
      for (int i = 0; i < kInts; ++i) {
        ASSERT_EQ(got[static_cast<std::size_t>(i)],
                  (r + 11) % kRanks * 1000 + i)
            << run.label << " rank " << r << " element " << i;
      }
    }

    const json::Value counters = cluster.CaptureTelemetry().counters;
    int toward_owners = 0;
    for (const json::Value& row : counters.at("fifos").as_array()) {
      const std::string& name = row.at("name").as_string();
      if (name.rfind("ckr->ckr.", 0) != 0) continue;
      const int target = std::stoi(name.substr(name.rfind("->") + 2));
      EXPECT_TRUE(target == 0 || target == 1) << name;
      ++toward_owners;
    }
    EXPECT_EQ(toward_owners, kRanks * 2 * 3) << run.label;
    EXPECT_EQ(FifoCensus(counters).at("cks->ckr"), kRanks * 2) << run.label;
  }
}

}  // namespace
}  // namespace smi::transport
