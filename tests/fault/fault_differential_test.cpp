/// \file fault_differential_test.cpp
/// Differential tests for fault injection and the reliability protocol at
/// cluster level: a seeded fault plan (drops, corruption, outages, permanent
/// cable death with failover) must leave the application result exactly
/// equal to the lossless reference — every payload delivered exactly once,
/// in order — and the run must be bit-identical (cycles, traffic, fault
/// telemetry) under the synchronous, event-driven, and parallel schedulers
/// at several worker-thread counts. This extends the exactness guarantee of
/// engine_differential_test.cpp to faulty runs, which is the point of making
/// fault decisions pure functions of (seed, link, cycle).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/smi.h"
#include "fault/fault.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Cycle;
using sim::Kernel;
using sim::SchedulerKind;

const unsigned kThreadCounts[] = {1, 2, 3, 4, 8};

Kernel Sender(Context& ctx, int n) {
  SendChannel ch = ctx.OpenSendChannel(n, DataType::kInt, /*destination=*/1,
                                       /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) co_await ch.Push<std::int32_t>(i * 3);
}

/// Pops `n` values from `source`, one every `every` cycles.
Kernel Receiver(Context& ctx, int n, int source, Cycle every,
                std::vector<std::int32_t>& sink) {
  RecvChannel ch = ctx.OpenRecvChannel(n, DataType::kInt, source,
                                       /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) {
    sink.push_back(co_await ch.Pop<std::int32_t>());
    if (every > 1) co_await sim::WaitCycles{every - 1};
  }
}

struct FaultObservation {
  Cycle cycles = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t kernel_resumes = 0;
  std::string faults;    ///< Fabric::FaultsJson() serialization
  std::string counters;  ///< per-entity telemetry counters, when collected
  std::string routes;    ///< the routing table in force after the run
};

ClusterConfig WithScheduler(SchedulerKind kind, unsigned threads = 1) {
  ClusterConfig config;
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  return config;
}

/// The stream under test: `n` ints from `source` to rank 1, popped every
/// `every` cycles. A slow receiver backs the stream up, so CKs stall on full
/// FIFOs and sleep through the stall.
struct StreamShape {
  int n = 400;
  int source = 0;
  Cycle every = 1;
};

/// One sender->receiver stream over `topo` under `config`; returns the run
/// observation including the serialized fault report.
FaultObservation RunStream(ClusterConfig config, const Topology& topo,
                           const StreamShape& shape,
                           std::vector<std::int32_t>& sink) {
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  Cluster cluster(topo, spec, config);
  cluster.AddKernel(shape.source,
                    Sender(cluster.context(shape.source), shape.n), "s");
  cluster.AddKernel(1,
                    Receiver(cluster.context(1), shape.n, shape.source,
                             shape.every, sink),
                    "r");
  const RunResult result = cluster.Run();
  FaultObservation obs{result.cycles, result.link_packets,
                       result.kernel_resumes, cluster.FaultsJson().dump(),
                       "", cluster.routes().ToJson().dump()};
  if (config.engine.collect_counters) {
    obs.counters = cluster.CaptureTelemetry().counters.dump();
  }
  return obs;
}

/// Runs the stream under all three schedulers with the given fault plan and
/// checks payloads and the full observation against the synchronous
/// reference. Returns the synchronous observation. With `in_order` false
/// the faulty run need only deliver the reference payloads exactly once,
/// in any order (still the same order under every scheduler).
FaultObservation ExpectFaultySchedulersIdentical(const fault::FaultPlan& plan,
                                                 const Topology& topo,
                                                 const StreamShape& shape,
                                                 bool collect_counters = false,
                                                 bool in_order = true) {
  // The lossless reference result the faulty runs must reproduce.
  std::vector<std::int32_t> reference;
  RunStream(WithScheduler(SchedulerKind::kSynchronous), topo, shape,
            reference);
  EXPECT_EQ(reference.size(), static_cast<std::size_t>(shape.n));

  const auto config = [&](SchedulerKind kind, unsigned threads = 1) {
    ClusterConfig c = WithScheduler(kind, threads);
    c.fabric.fault = plan;
    c.engine.collect_counters = collect_counters;
    return c;
  };

  std::vector<std::int32_t> sync_sink;
  const FaultObservation sync =
      RunStream(config(SchedulerKind::kSynchronous), topo, shape, sync_sink);
  // Exactly-once, in-order delivery despite the faults.
  std::vector<std::int32_t> delivered = sync_sink;
  if (!in_order) std::sort(delivered.begin(), delivered.end());
  EXPECT_EQ(delivered, reference);

  std::vector<std::int32_t> event_sink;
  const FaultObservation event =
      RunStream(config(SchedulerKind::kEventDriven), topo, shape, event_sink);
  EXPECT_EQ(event_sink, sync_sink);
  EXPECT_EQ(event.cycles, sync.cycles);
  EXPECT_EQ(event.link_packets, sync.link_packets);
  EXPECT_EQ(event.kernel_resumes, sync.kernel_resumes);
  EXPECT_EQ(event.faults, sync.faults);
  EXPECT_EQ(event.counters, sync.counters);
  EXPECT_EQ(event.routes, sync.routes);

  for (const unsigned threads : kThreadCounts) {
    std::vector<std::int32_t> par_sink;
    const FaultObservation par =
        RunStream(config(SchedulerKind::kParallel, threads), topo, shape,
                  par_sink);
    EXPECT_EQ(par_sink, sync_sink) << "threads=" << threads;
    EXPECT_EQ(par.cycles, sync.cycles) << "threads=" << threads;
    EXPECT_EQ(par.link_packets, sync.link_packets) << "threads=" << threads;
    EXPECT_EQ(par.kernel_resumes, sync.kernel_resumes)
        << "threads=" << threads;
    EXPECT_EQ(par.faults, sync.faults) << "threads=" << threads;
    EXPECT_EQ(par.counters, sync.counters) << "threads=" << threads;
    EXPECT_EQ(par.routes, sync.routes) << "threads=" << threads;
  }
  return sync;
}

// ---------------------------------------------------------------------------
// Seeded drop + corruption plans.

TEST(FaultDifferential, LossyStreamMatchesLosslessReference) {
  const fault::FaultPlan plan =
      fault::FaultPlan::Parse("drop=0.05,corrupt=0.01,seed=3");
  const FaultObservation obs =
      ExpectFaultySchedulersIdentical(plan, Topology::Ring(4), {});
  // The plan actually bit: the report shows wire losses and recovery work.
  const json::Value faults = json::Parse(obs.faults);
  EXPECT_TRUE(faults.get_bool("enabled", false));
  EXPECT_GT(faults.at("totals").get_int("wire_drops", 0), 0);
  EXPECT_GT(faults.at("totals").get_int("retransmits", 0), 0);
  EXPECT_EQ(faults.at("failovers").as_array().size(), 0u);
}

TEST(FaultDifferential, DifferentSeedsGiveDifferentFaultsSameResult) {
  std::vector<std::int32_t> a_sink, b_sink;
  const Topology topo = Topology::Ring(4);
  ClusterConfig a = WithScheduler(SchedulerKind::kSynchronous);
  a.fabric.fault = fault::FaultPlan::Parse("drop=0.08,seed=1");
  ClusterConfig b = WithScheduler(SchedulerKind::kSynchronous);
  b.fabric.fault = fault::FaultPlan::Parse("drop=0.08,seed=2");
  const FaultObservation oa = RunStream(a, topo, {}, a_sink);
  const FaultObservation ob = RunStream(b, topo, {}, b_sink);
  EXPECT_EQ(a_sink, b_sink);       // the application result is seed-blind
  EXPECT_NE(oa.faults, ob.faults);  // but the fault trace is not
}

TEST(FaultDifferential, TelemetryCountersAreBitIdenticalUnderFaults) {
  const fault::FaultPlan plan =
      fault::FaultPlan::Parse("drop=0.03,corrupt=0.01,seed=11");
  ExpectFaultySchedulersIdentical(plan, Topology::Ring(4), {.n = 200},
                                  /*collect_counters=*/true);
}

// ---------------------------------------------------------------------------
// Transient outage windows.

TEST(FaultDifferential, OutageWindowIsRiddenOut) {
  // Frames enter the wire from roughly cycle 10; the outage swallows most
  // of the stream and the retransmission timer replays it once it lifts.
  const fault::FaultPlan plan = fault::FaultPlan::Parse("outage=20:300,seed=5");
  const FaultObservation obs =
      ExpectFaultySchedulersIdentical(plan, Topology::Ring(4), {});
  const json::Value faults = json::Parse(obs.faults);
  EXPECT_GT(faults.at("totals").get_int("timeouts", 0), 0);
  EXPECT_EQ(faults.at("failovers").as_array().size(), 0u);
}

// ---------------------------------------------------------------------------
// Permanent cable death -> reroute -> completion (graceful degradation).

fault::FaultPlan KillCablePlan(const std::string& cable_key, Cycle kill_at) {
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 9;
  plan.reliability.retx_timeout = 250;  // > RTT at the default 105-cycle latency
  plan.reliability.backoff_cap = 1;
  plan.reliability.retry_budget = 1;
  fault::LinkFaultSpec spec;
  spec.kill_at = kill_at;
  plan.links[cable_key] = spec;
  return plan;
}

FaultObservation ExpectFailoverCompletes(const fault::FaultPlan& plan,
                                         const Topology& topo,
                                         const std::string& cable_key,
                                         const StreamShape& shape = {},
                                         bool in_order = true) {
  const FaultObservation obs = ExpectFaultySchedulersIdentical(
      plan, topo, shape, /*collect_counters=*/shape.every > 1, in_order);
  const json::Value faults = json::Parse(obs.faults);
  const json::Array& failovers = faults.at("failovers").as_array();
  EXPECT_EQ(failovers.size(), 1u);
  if (failovers.size() != 1) return obs;
  EXPECT_EQ(failovers[0].get_string("cable", ""), cable_key);
  EXPECT_GT(failovers[0].get_int("failover_cycle", 0),
            failovers[0].get_int("death_cycle", 0));
  // The dead link shows up as dead in the per-link report.
  bool saw_dead = false;
  for (const json::Value& row : faults.at("links").as_array()) {
    saw_dead |= row.get_bool("dead", false);
  }
  EXPECT_TRUE(saw_dead);
  return obs;
}

TEST(FaultDifferential, RingSurvivesCableDeathByRerouting) {
  // Ring(4): route 0->1 uses the direct cable; after its death at cycle 30
  // (mid-stream: frames enter the wire from ~cycle 10) the remainder must
  // complete over 0->3->2->1.
  ExpectFailoverCompletes(KillCablePlan("0:1<->1:0", 30), Topology::Ring(4),
                          "0:1<->1:0");
}

TEST(FaultDifferential, TorusSurvivesCableDeathByRerouting) {
  // 2x2 torus: ranks 0 and 1 are connected by two parallel cables (east and
  // the wraparound west); the route uses the east one, and killing it
  // leaves a detour.
  ExpectFailoverCompletes(KillCablePlan("0:1<->1:3", 30),
                          Topology::Torus2D(2, 2), "0:1<->1:3");
}

TEST(FaultDifferential, StalledCksSurviveCableDeathByRerouting) {
  // Ring(4): the stream 3 -> 1 transits rank 0 and the 0 -> 1 cable dies
  // under it. The stream outgrows the dead link's 8-frame window, so rank
  // 0's transit CKS sleeps on a packet stalled on the full crossbar FIFO
  // toward the dead link's CKS. The failover's new table routes that packet
  // back out of the transit CKS's own port, so the failover must wake it:
  // per-cycle stepping retries the packet with the new table at once.
  //
  // The rerouted transit packets overtake the recovered window, which
  // re-enters at the dead link's CKS: delivery is exactly-once but out of
  // order under every scheduler (a known failover defect), so only the
  // payload set is checked against the reference.
  fault::FaultPlan plan = KillCablePlan("0:1<->1:0", 30);
  plan.reliability.window = 8;
  ExpectFailoverCompletes(plan, Topology::Ring(4), "0:1<->1:0",
                          {.n = 1000, .source = 3, .every = 2},
                          /*in_order=*/false);
}

TEST(FaultDifferential, RoutesAfterFailoverAvoidTheDeadCable) {
  // 2x4 torus: the stream 0 -> 1 uses the east cable 0:1 <-> 1:3, which dies
  // mid-stream. After the run the cluster reports the table the failover
  // uploaded, identical under every scheduler: kAuto over the surviving
  // cables, which no compute pair routes across the dead cable with.
  const Topology torus = Topology::Torus2D(2, 4);
  const net::PortId dead_a{0, 1};
  const net::PortId dead_b{1, 3};
  const FaultObservation obs = ExpectFailoverCompletes(
      KillCablePlan("0:1<->1:3", 30), torus, "0:1<->1:3");
  Topology survivors(torus.num_ranks(), torus.ports_per_rank());
  for (const auto& [a, b] : torus.Connections()) {
    if (!(a == dead_a)) survivors.Connect(a, b);
  }
  EXPECT_EQ(obs.routes,
            net::ComputeRoutes(survivors, net::RoutingScheme::kAuto)
                .ToJson()
                .dump());
  const net::RoutingTable routes =
      net::RoutingTable::FromJson(json::Parse(obs.routes));
  for (int s = 0; s < torus.num_ranks(); ++s) {
    for (int d = 0; d < torus.num_ranks(); ++d) {
      for (int at = s; at != d;) {
        const net::PortId out{at, routes.next_port(at, d)};
        ASSERT_FALSE(out == dead_a || out == dead_b)
            << "route " << s << " -> " << d << " leaves rank " << at
            << " over the dead cable";
        at = torus.Peer(out)->rank;
      }
    }
  }
}

TEST(FaultDifferential, DisconnectingFailureIsReportedNotHung) {
  // Bus(4): the 0<->1 cable is the only path; its death must surface as a
  // routing error rather than a silent hang or a wrong result.
  ClusterConfig config = WithScheduler(SchedulerKind::kSynchronous);
  config.fabric.fault = KillCablePlan("0:1<->1:0", 30);
  std::vector<std::int32_t> sink;
  EXPECT_THROW(RunStream(config, Topology::Bus(4), {}, sink), RoutingError);
}

}  // namespace
}  // namespace smi::core
