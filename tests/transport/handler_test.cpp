/// \file handler_test.cpp
/// Unit and behavioral tests for the in-network packet handlers
/// (transport/handler.h): table lookup and validation, the count/filter
/// predicate at the CKS, and locally-delivered-packet fan-out at the CKR.
/// The reduce-combine handler is exercised end to end by the in-network
/// Reduce tests (tests/core/innet_test.cpp).

#include "transport/handler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "obs/recorder.h"
#include "transport/fabric.h"

namespace smi::transport {
namespace {

using net::Header;
using net::OpType;
using net::Packet;
using net::RoutingScheme;
using net::Topology;
using sim::Engine;
using sim::Kernel;
using sim::fifo_pop;
using sim::fifo_push;

void NoopCombine(Packet&, const Packet&) {}

// ---------------------------------------------------------------------------
// Table lookup and validation.

TEST(HandlerTable, FindMatchesClassPortAndOp) {
  HandlerTable table;
  HandlerEntry filter;
  filter.cls = HandlerClass::kFilter;
  filter.port = 2;
  filter.op = OpType::kData;
  table.Add(filter);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.port = 2;
  fan.op = OpType::kCredit;
  fan.fan_dsts = {1};
  table.Add(fan);

  EXPECT_EQ(table.size(), 2u);
  EXPECT_NE(table.Find(HandlerClass::kFilter, 2, OpType::kData), nullptr);
  EXPECT_EQ(table.Find(HandlerClass::kFilter, 2, OpType::kCredit), nullptr);
  EXPECT_EQ(table.Find(HandlerClass::kFilter, 3, OpType::kData), nullptr);
  EXPECT_NE(table.Find(HandlerClass::kFanOut, 2, OpType::kCredit), nullptr);
  EXPECT_EQ(table.Find(HandlerClass::kReduceCombine, 2, OpType::kData),
            nullptr);
}

TEST(HandlerTable, ValidateRejectsInconsistentEntries) {
  const auto tableWith = [](HandlerEntry e) {
    HandlerTable t;
    t.Add(std::move(e));
    return t;
  };

  HandlerEntry combine;
  combine.cls = HandlerClass::kReduceCombine;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);  // no fn
  combine.combine = NoopCombine;
  combine.hold_cycles = 0;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);  // hold < 1
  combine.hold_cycles = 8;
  combine.max_contribs = -1;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);
  combine.max_contribs = 3;
  EXPECT_NO_THROW(tableWith(combine).Validate(4));
  combine.port = -1;
  EXPECT_THROW(tableWith(combine).Validate(4), ConfigError);

  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  EXPECT_THROW(tableWith(fan).Validate(4), ConfigError);  // no children
  fan.fan_dsts = {4};
  EXPECT_THROW(tableWith(fan).Validate(4), ConfigError);  // out of range
  fan.fan_dsts = {-1};
  EXPECT_THROW(tableWith(fan).Validate(4), ConfigError);
  fan.fan_dsts = {1, 3};
  EXPECT_NO_THROW(tableWith(fan).Validate(4));

  HandlerEntry filter;
  filter.cls = HandlerClass::kFilter;
  filter.pass_every = -2;
  EXPECT_THROW(tableWith(filter).Validate(4), ConfigError);
  filter.pass_every = 0;  // drop-all is a valid predicate
  EXPECT_NO_THROW(tableWith(filter).Validate(4));
}

// ---------------------------------------------------------------------------
// Behavioral: filter at the CKS, fan-out at the CKR.

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
    co_await fifo_push(out,
                       MakePacket(src, dst, port, static_cast<std::uint32_t>(i)));
  }
}

Kernel RecvPackets(PacketFifo& in, int n, std::vector<std::uint32_t>& sink) {
  for (int i = 0; i < n; ++i) {
    sink.push_back(Seq(co_await fifo_pop(in)));
  }
}

/// An engine that collects the telemetry counters the checks read.
sim::EngineConfig WithCounters() {
  sim::EngineConfig config;
  config.collect_counters = true;
  return config;
}

/// The handler-side and forwarding numbers of CK `name` in the engine's
/// counter document: `passed` is the CK's forwarded data packets,
/// `dropped` its filtered packets and `splits` its fan-out copies.
struct CkActivity {
  std::int64_t passed = 0;
  std::int64_t dropped = 0;
  std::int64_t splits = 0;
};
CkActivity ActivityOf(const Engine& engine, const std::string& name) {
  const json::Value doc = engine.recorder()->CountersJson();
  for (const json::Value& row : doc.at("cks").as_array()) {
    if (row.get_string("name", "") != name) continue;
    CkActivity a;
    a.passed = row.at("forwarded").get_int("data", 0);
    if (row.contains("handler")) {
      a.dropped = row.at("handler").get_int("filtered", 0);
      a.splits = row.at("handler").get_int("splits", 0);
    }
    return a;
  }
  ADD_FAILURE() << "no counter row for " << name;
  return {};
}

/// Keeps the run alive (bounded) until CKS r0.cks0's filter has dropped
/// `n` packets — for scenarios where nothing ever reaches a receiver.
Kernel TickWhileDroppedBelow(const Engine& engine, std::int64_t n) {
  for (int i = 0; i < 2000 && ActivityOf(engine, "r0.cks0").dropped < n;
       ++i) {
    co_await sim::WaitCycles{1};
  }
}

Fabric MakeSimpleFabric(Engine& engine, const Topology& topo, int port) {
  RankEndpoints eps;
  eps.send_ports.push_back(port);
  eps.recv_ports.push_back(port);
  std::vector<RankEndpoints> all(static_cast<std::size_t>(topo.num_ranks()),
                                 eps);
  Fabric fabric(engine, topo, std::move(all));
  fabric.UploadRoutes(net::ComputeRoutes(topo, RoutingScheme::kAuto));
  return fabric;
}

TEST(HandlerFilter, PassEveryTwoForwardsAlternatePackets) {
  Engine engine(WithCounters());
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(2);
  HandlerEntry filter;
  filter.cls = HandlerClass::kFilter;
  filter.port = 0;
  filter.op = OpType::kData;
  filter.pass_every = 2;
  tables[0].Add(filter);
  fabric.UploadHandlers(tables);

  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, 40), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), 20, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 20u);
  for (std::uint32_t i = 0; i < 20; ++i) EXPECT_EQ(sink[i], 2 * i);
  const CkActivity cks = ActivityOf(engine, "r0.cks0");
  EXPECT_EQ(cks.passed, 20);
  EXPECT_EQ(cks.dropped, 20);
}

TEST(HandlerFilter, PassEveryZeroDropsEverything) {
  Engine engine(WithCounters());
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(2);
  HandlerEntry filter;
  filter.cls = HandlerClass::kFilter;
  filter.port = 0;
  filter.op = OpType::kData;
  filter.pass_every = 0;
  tables[0].Add(filter);
  fabric.UploadHandlers(tables);

  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, 25), "s");
  // Nothing ever arrives, so no receiver can keep the run alive (the engine
  // stops the moment the last kernel completes); tick until the CKS has
  // swallowed the whole stream.
  engine.AddKernel(TickWhileDroppedBelow(engine, 25), "tick");
  engine.Run();
  const CkActivity cks = ActivityOf(engine, "r0.cks0");
  EXPECT_EQ(cks.dropped, 25);
  EXPECT_EQ(cks.passed, 0);
}

TEST(HandlerFilter, UploadRejectsInvalidTable) {
  Engine engine;
  const Topology topo = Topology::Bus(2);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(2);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.fan_dsts = {7};  // out of range for 2 ranks
  tables[1].Add(fan);
  EXPECT_THROW(fabric.UploadHandlers(tables), ConfigError);
  EXPECT_THROW(fabric.UploadHandlers({HandlerTable{}}), ConfigError);  // size
}

TEST(HandlerFanOut, LocallyDeliveredPacketIsReplicatedToChildren) {
  // Bus(3): one packet 0 -> 1; rank 1 holds a fan entry toward rank 2, so
  // both 1 and 2 receive the payload and the source address is preserved.
  Engine engine(WithCounters());
  const Topology topo = Topology::Bus(3);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(3);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.port = 0;
  fan.op = OpType::kData;
  fan.fan_dsts = {2};
  tables[1].Add(fan);
  fabric.UploadHandlers(tables);

  std::vector<std::uint32_t> sink1, sink2;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 1, 0, 10), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(1, 0), 10, sink1), "r1");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(2, 0), 10, sink2), "r2");
  engine.Run();
  ASSERT_EQ(sink1.size(), 10u);
  ASSERT_EQ(sink2.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sink1[i], i);
    EXPECT_EQ(sink2[i], i);
  }
  EXPECT_EQ(ActivityOf(engine, "r1.ckr0").splits, 10);
  EXPECT_EQ(ActivityOf(engine, "r2.ckr0").splits, 0);
}

TEST(HandlerFanOut, TransitPacketsAreNotReplicated) {
  // Bus(3) again, but the stream is 0 -> 2, passing *through* rank 1. The
  // fan entry keys on local delivery only, so rank 1 must not replicate.
  Engine engine(WithCounters());
  const Topology topo = Topology::Bus(3);
  Fabric fabric = MakeSimpleFabric(engine, topo, 0);
  std::vector<HandlerTable> tables(3);
  HandlerEntry fan;
  fan.cls = HandlerClass::kFanOut;
  fan.port = 0;
  fan.op = OpType::kData;
  fan.fan_dsts = {0};
  tables[1].Add(fan);
  fabric.UploadHandlers(tables);

  std::vector<std::uint32_t> sink;
  engine.AddKernel(SendPackets(fabric.SendEndpoint(0, 0), 0, 2, 0, 15), "s");
  engine.AddKernel(RecvPackets(fabric.RecvEndpoint(2, 0), 15, sink), "r");
  engine.Run();
  ASSERT_EQ(sink.size(), 15u);
  EXPECT_EQ(ActivityOf(engine, "r1.ckr0").splits, 0);
}

}  // namespace
}  // namespace smi::transport
