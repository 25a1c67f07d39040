/// \file engine_differential_test.cpp
/// Differential test for the three engine schedulers: every scenario is run
/// under SchedulerKind::kSynchronous (the reference step-everything
/// implementation), under kEventDriven (the active-set scheduler), and under
/// kParallel at several worker-thread counts — including counts that do not
/// divide the rank count — and the results must be bit-identical: same cycle
/// counts, same kernel resume counts, same link traffic, same payloads. This
/// is the executable form of the exactness guarantee documented in engine.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "apps/gesummv.h"
#include "apps/stencil.h"
#include "common/error.h"
#include "common/json.h"
#include "core/smi.h"
#include "fault/fault.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Cycle;
using sim::Engine;
using sim::EngineConfig;
using sim::Kernel;
using sim::RunStats;
using sim::SchedulerKind;
using sim::WaitCycles;
using sim::fifo_pop;
using sim::fifo_push;

/// Worker-thread counts exercised for kParallel. 3 never divides the 4- and
/// 8-rank scenarios below, so it exercises the uneven contiguous partition
/// mapping; 8 exceeds the rank count of the 4-rank scenarios, exercising the
/// clamp to one partition per rank.
const unsigned kThreadCounts[] = {1, 2, 3, 4, 8};

ClusterConfig WithScheduler(SchedulerKind kind, unsigned threads = 1) {
  ClusterConfig config;
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  return config;
}

struct ClusterObservation {
  Cycle cycles = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t kernel_resumes = 0;
};

/// Runs `scenario(config, payload_sink)` under all three schedulers (the
/// parallel one at every entry of kThreadCounts) and checks that cycles,
/// link packets, kernel resumes, and payloads are bit-identical to the
/// synchronous reference.
template <typename Payload, typename Scenario>
ClusterObservation ExpectAllSchedulersIdentical(Scenario&& scenario) {
  Payload sync_payload{};
  const ClusterObservation sync =
      scenario(WithScheduler(SchedulerKind::kSynchronous), sync_payload);

  Payload event_payload{};
  const ClusterObservation event =
      scenario(WithScheduler(SchedulerKind::kEventDriven), event_payload);
  EXPECT_EQ(event.cycles, sync.cycles);
  EXPECT_EQ(event.link_packets, sync.link_packets);
  EXPECT_EQ(event.kernel_resumes, sync.kernel_resumes);
  EXPECT_EQ(event_payload, sync_payload);

  for (const unsigned threads : kThreadCounts) {
    Payload par_payload{};
    const ClusterObservation par = scenario(
        WithScheduler(SchedulerKind::kParallel, threads), par_payload);
    EXPECT_EQ(par.cycles, sync.cycles) << "threads=" << threads;
    EXPECT_EQ(par.link_packets, sync.link_packets) << "threads=" << threads;
    EXPECT_EQ(par.kernel_resumes, sync.kernel_resumes)
        << "threads=" << threads;
    EXPECT_EQ(par_payload, sync_payload) << "threads=" << threads;
  }
  return sync;
}

// ---------------------------------------------------------------------------
// Point-to-point stream (Listing 1 of the paper).

Kernel P2pSender(Context& ctx, int n, int destination = 1) {
  SendChannel ch = ctx.OpenSendChannel(n, DataType::kInt, destination,
                                       /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) co_await ch.Push<std::int32_t>(i * 3);
}

Kernel P2pReceiver(Context& ctx, int n, std::vector<std::int32_t>& sink,
                   int source = 0) {
  RecvChannel ch = ctx.OpenRecvChannel(n, DataType::kInt, source,
                                       /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) sink.push_back(co_await ch.Pop<std::int32_t>());
}

ClusterObservation RunP2p(const ClusterConfig& config,
                          std::vector<std::int32_t>& sink) {
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  Cluster cluster(Topology::Bus(4), spec, config);
  cluster.AddKernel(0, P2pSender(cluster.context(0), 150), "s");
  cluster.AddKernel(1, P2pReceiver(cluster.context(1), 150, sink), "r");
  const RunResult result = cluster.Run();
  return {result.cycles, result.link_packets, result.kernel_resumes};
}

TEST(EngineDifferential, P2pStreamIsCycleIdentical) {
  std::vector<std::int32_t> sink;
  RunP2p(WithScheduler(SchedulerKind::kSynchronous), sink);
  ASSERT_EQ(sink.size(), 150u);
  ExpectAllSchedulersIdentical<std::vector<std::int32_t>>(RunP2p);
}

// ---------------------------------------------------------------------------
// Fire-and-forget: rank 0 finishes while its packets are still on the first
// link and no kernel ever receives them. With one worker thread the
// parallel scheduler splits no link, so the deliveries it makes past the
// finish cycle must be trimmed on unsplit links too.

Kernel FireAndForgetSender(Context& ctx, int n) {
  SendChannel ch = ctx.OpenSendChannel(n, DataType::kInt, /*destination=*/1,
                                       /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) co_await ch.Push<std::int32_t>(i);
}

ClusterObservation RunFireAndForget(const ClusterConfig& config,
                                    std::vector<std::int32_t>& /*sink*/) {
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  Cluster cluster(Topology::Bus(4), spec, config);
  cluster.AddKernel(0, FireAndForgetSender(cluster.context(0), 14), "s");
  const RunResult result = cluster.Run();
  return {result.cycles, result.link_packets, result.kernel_resumes};
}

TEST(EngineDifferential, FireAndForgetLinkPacketsAreIdentical) {
  ExpectAllSchedulersIdentical<std::vector<std::int32_t>>(RunFireAndForget);
}

// ---------------------------------------------------------------------------
// Broadcast on the paper's 2x4 torus (Listing 2).

Kernel BcastApp(Context& ctx, int n, int root, std::vector<float>& sink) {
  BcastChannel chan =
      ctx.OpenBcastChannel(n, DataType::kFloat, /*port=*/0, root, ctx.world());
  for (int i = 0; i < n; ++i) {
    float data =
        ctx.rank() == root ? static_cast<float>(i) * 0.25f : 0.0f;
    co_await chan.Bcast(data);
    sink.push_back(data);
  }
}

ClusterObservation RunBcast(const ClusterConfig& config,
                            std::vector<std::vector<float>>& sinks) {
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kFloat));
  Cluster cluster(Topology::Torus2D(2, 4), spec, config);
  sinks.resize(8);
  for (int r = 0; r < 8; ++r) {
    cluster.AddKernel(
        r, BcastApp(cluster.context(r), 48, /*root=*/2,
                    sinks[static_cast<std::size_t>(r)]),
        "bcast");
  }
  const RunResult result = cluster.Run();
  return {result.cycles, result.link_packets, result.kernel_resumes};
}

TEST(EngineDifferential, BcastOnTorusIsCycleIdentical) {
  ExpectAllSchedulersIdentical<std::vector<std::vector<float>>>(RunBcast);
}

// ---------------------------------------------------------------------------
// Reduce: exercises the credit-based flow control and the root-side support
// kernel, whose busy-poll keeps the default every-cycle wake hint.

Kernel ReduceApp(Context& ctx, int n, int root, std::vector<float>& results) {
  ReduceChannel chan =
      ctx.OpenReduceChannel(n, DataType::kFloat, ReduceOp::kAdd, /*port=*/1,
                            root, ctx.world(), /*credits=*/8);
  for (int i = 0; i < n; ++i) {
    const float snd =
        static_cast<float>(i) + static_cast<float>(ctx.rank() * 100);
    float result = 0.0f;
    co_await chan.Reduce(snd, result);
    if (ctx.rank() == root) results.push_back(result);
  }
}

ClusterObservation RunReduce(const ClusterConfig& config,
                             std::vector<float>& results) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(1, DataType::kFloat));
  Cluster cluster(Topology::Bus(4), spec, config);
  for (int r = 0; r < 4; ++r) {
    cluster.AddKernel(r, ReduceApp(cluster.context(r), 30, /*root=*/1,
                                   results),
                      "reduce");
  }
  const RunResult result = cluster.Run();
  return {result.cycles, result.link_packets, result.kernel_resumes};
}

TEST(EngineDifferential, ReduceIsCycleIdentical) {
  std::vector<float> probe;
  RunReduce(WithScheduler(SchedulerKind::kSynchronous), probe);
  ASSERT_EQ(probe.size(), 30u);
  ExpectAllSchedulersIdentical<std::vector<float>>(RunReduce);
}

// ---------------------------------------------------------------------------
// GESUMMV (§5.4.1): the distributed MPMD variant mixes SMI traffic with
// DRAM streaming and local FIFOs, so the memory subsystem and the channel
// layer both cross the differential.

ClusterObservation RunGesummv(const ClusterConfig& config,
                              std::vector<float>& y) {
  apps::GesummvConfig gc;
  gc.rows = 32;
  gc.cols = 32;
  gc.banks = 2;
  gc.cluster = config;
  apps::GesummvResult result = apps::RunGesummvDistributed(gc);
  y = std::move(result.y);
  return {result.run.cycles, result.run.link_packets,
          result.run.kernel_resumes};
}

TEST(EngineDifferential, GesummvDistributedIsCycleIdentical) {
  ExpectAllSchedulersIdentical<std::vector<float>>(RunGesummv);
}

// ---------------------------------------------------------------------------
// Stencil (§5.4.2): SPMD halo exchange on a 2x2 rank grid — transient
// channels opened per timestep, four directions per rank, plus the DRAM
// read/write streams. The heaviest scenario in this file.

ClusterObservation RunStencil(const ClusterConfig& config,
                              std::vector<float>& grid) {
  apps::StencilConfig sc;
  sc.nx_global = 16;
  sc.ny_global = 32;
  sc.rx = 2;
  sc.ry = 2;
  sc.timesteps = 2;
  sc.cluster = config;
  apps::StencilResult result = apps::RunStencilSmi(sc);
  grid = std::move(result.grid);
  return {result.run.cycles, result.run.link_packets,
          result.run.kernel_resumes};
}

TEST(EngineDifferential, StencilHaloExchangeIsCycleIdentical) {
  ExpectAllSchedulersIdentical<std::vector<float>>(RunStencil);
}

// ---------------------------------------------------------------------------
// Switch bisection: a FatTree(4, 4, 2) whose 16 hosts all stream across the
// bisection through two spines (2:1 oversubscribed). Spine CKs poll up to
// five inputs, leaf CKs six, with data arriving on one connection at a time
// and outputs backing up, so poll-skipping, bursts and stall retries all
// cross the differential. The payload carries every CK counter.

struct SwitchPayload {
  std::vector<std::vector<std::int32_t>> received;
  std::string cks;  ///< the telemetry document's "cks" array

  friend bool operator==(const SwitchPayload&,
                         const SwitchPayload&) = default;
  friend std::ostream& operator<<(std::ostream& os, const SwitchPayload& p) {
    return os << p.cks;
  }
};

ClusterObservation RunSwitchBisection(const ClusterConfig& base,
                                      SwitchPayload& payload) {
  const Topology topo = Topology::FatTree(4, 4, 2);
  const int hosts = topo.num_compute_ranks();
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  ClusterConfig config = base;
  config.engine.collect_counters = true;
  Cluster cluster(topo, spec, config);
  payload.received.assign(static_cast<std::size_t>(hosts), {});
  for (int h = 0; h < hosts; ++h) {
    const int peer = (h + hosts / 2) % hosts;
    cluster.AddKernel(h, P2pSender(cluster.context(h), 120, peer), "s");
    cluster.AddKernel(
        h, P2pReceiver(cluster.context(h), 120,
                       payload.received[static_cast<std::size_t>(h)], peer),
        "r");
  }
  const RunResult result = cluster.Run();
  payload.cks = cluster.CaptureTelemetry().counters.at("cks").dump();
  return {result.cycles, result.link_packets, result.kernel_resumes};
}

TEST(EngineDifferential, SwitchBisectionCkCountersAreIdentical) {
  SwitchPayload probe;
  RunSwitchBisection(WithScheduler(SchedulerKind::kSynchronous), probe);
  ASSERT_EQ(probe.received[0].size(), 120u);
  // The scenario must reach the paths under test: empty polls, bursts and
  // stall retries on the switch CKs.
  std::uint64_t polls = 0, hits = 0, bursts = 0, stalls = 0;
  const json::Value cks = json::Parse(probe.cks);
  for (const json::Value& ck : cks.as_array()) {
    polls += static_cast<std::uint64_t>(ck.at("polls").as_int());
    hits += static_cast<std::uint64_t>(ck.at("hits").as_int());
    bursts += static_cast<std::uint64_t>(ck.at("bursts").as_int());
    stalls += static_cast<std::uint64_t>(ck.at("stalls").as_int());
  }
  EXPECT_GT(polls, hits);
  EXPECT_GT(bursts, 0u);
  EXPECT_GT(stalls, 0u);
  ExpectAllSchedulersIdentical<SwitchPayload>(RunSwitchBisection);
}

// ---------------------------------------------------------------------------
// Idle-heavy raw-engine scenario: long WaitCycles gaps between sparse FIFO
// transfers — the case the active-set scheduler is built for. Compared at
// the RunStats level (cycles AND kernel resume counts must match). With no
// partition tags the parallel scheduler collapses to a single partition and
// must still match the reference exactly.

Kernel SparseProducer(sim::Fifo<int>& out, int bursts, Cycle gap) {
  for (int b = 0; b < bursts; ++b) {
    co_await WaitCycles{gap};
    for (int i = 0; i < 4; ++i) co_await fifo_push(out, b * 10 + i);
  }
}

Kernel SparseConsumer(sim::Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) sink.push_back(co_await fifo_pop(in));
}

RunStats RunIdleHeavy(SchedulerKind kind, unsigned threads,
                      std::vector<int>& sink) {
  EngineConfig config;
  config.scheduler = kind;
  config.threads = threads;
  Engine engine(config);
  sim::Fifo<int>& fifo = engine.MakeFifo<int>("sparse", 8);
  engine.AddKernel(SparseProducer(fifo, 12, 977), "producer");
  engine.AddKernel(SparseConsumer(fifo, 48, sink), "consumer");
  return engine.Run();
}

TEST(EngineDifferential, IdleHeavyRunStatsAreIdentical) {
  std::vector<int> sync_sink, event_sink;
  const RunStats sync =
      RunIdleHeavy(SchedulerKind::kSynchronous, 1, sync_sink);
  const RunStats event =
      RunIdleHeavy(SchedulerKind::kEventDriven, 1, event_sink);
  EXPECT_EQ(event.cycles, sync.cycles);
  EXPECT_EQ(event.kernel_resumes, sync.kernel_resumes);
  EXPECT_EQ(event.seconds, sync.seconds);
  EXPECT_EQ(event_sink, sync_sink);
  EXPECT_GT(sync.cycles, 12u * 977u);  // the gaps dominate the run
  for (const unsigned threads : kThreadCounts) {
    std::vector<int> par_sink;
    const RunStats par =
        RunIdleHeavy(SchedulerKind::kParallel, threads, par_sink);
    EXPECT_EQ(par.cycles, sync.cycles) << "threads=" << threads;
    EXPECT_EQ(par.kernel_resumes, sync.kernel_resumes)
        << "threads=" << threads;
    EXPECT_EQ(par.seconds, sync.seconds) << "threads=" << threads;
    EXPECT_EQ(par_sink, sync_sink) << "threads=" << threads;
    EXPECT_EQ(par.partitions, 1u);  // no tags -> one partition
  }
}

// ---------------------------------------------------------------------------
// Deadlock diagnostics must fire at the same cycle under all three
// schedulers: the watchdog accounting during idle jumps (and across epoch
// barriers) has to reproduce the synchronous firing point exactly.

Cycle RunDeadlocked(SchedulerKind kind, unsigned threads = 1) {
  EngineConfig config;
  config.scheduler = kind;
  config.threads = threads;
  config.watchdog_cycles = 5000;
  Engine engine(config);
  sim::Fifo<int>& fifo = engine.MakeFifo<int>("stuck", 2);
  std::vector<int> sink;
  engine.AddKernel(SparseConsumer(fifo, 1, sink), "stuck");
  EXPECT_THROW(engine.Run(), DeadlockError);
  return engine.now();
}

TEST(EngineDifferential, DeadlockFiresAtTheSameCycle) {
  const Cycle sync_cycle = RunDeadlocked(SchedulerKind::kSynchronous);
  const Cycle event_cycle = RunDeadlocked(SchedulerKind::kEventDriven);
  EXPECT_EQ(event_cycle, sync_cycle);
  EXPECT_GT(sync_cycle, 0u);
  for (const unsigned threads : kThreadCounts) {
    EXPECT_EQ(RunDeadlocked(SchedulerKind::kParallel, threads), sync_cycle)
        << "threads=" << threads;
  }
}

/// Multi-rank deadlock (§3.3 shape: a receiver whose matching sender never
/// pushes): the parallel scheduler must fire at the same cycle as the
/// sequential ones even when the blocked kernels live in different
/// partitions, and the diagnostic must carry the same content.
Cycle RunClusterDeadlocked(const ClusterConfig& base, std::string& message) {
  ClusterConfig config = base;
  config.engine.watchdog_cycles = 4000;
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  Cluster cluster(Topology::Bus(4), spec, config);
  // Receiver expects 8 values but the sender only ever pushes 4.
  cluster.AddKernel(0, P2pSender(cluster.context(0), 4), "s");
  std::vector<std::int32_t> sink;
  cluster.AddKernel(1, P2pReceiver(cluster.context(1), 8, sink), "r");
  try {
    cluster.Run();
  } catch (const DeadlockError& e) {
    message = e.what();
    return cluster.engine().now();
  }
  ADD_FAILURE() << "expected DeadlockError";
  return 0;
}

/// Strips every " [partition N, thread N]" annotation the parallel
/// scheduler appends to its blocked-kernel report, leaving the sequential
/// report text.
std::string StripPartitionAnnotations(std::string message) {
  const std::string open = " [partition ";
  for (std::size_t at = message.find(open); at != std::string::npos;
       at = message.find(open, at)) {
    const std::size_t close = message.find(']', at);
    if (close == std::string::npos) break;
    message.erase(at, close - at + 1);
  }
  return message;
}

TEST(EngineDifferential, ClusterDeadlockFiresAtTheSameCycleAcrossPartitions) {
  std::string sync_message;
  const Cycle sync_cycle = RunClusterDeadlocked(
      WithScheduler(SchedulerKind::kSynchronous), sync_message);
  EXPECT_GT(sync_cycle, 0u);
  // The starved receiver must be named in the report.
  EXPECT_NE(sync_message.find("\n  - r1.r "), std::string::npos)
      << sync_message;
  for (const unsigned threads : kThreadCounts) {
    std::string par_message;
    const Cycle par_cycle = RunClusterDeadlocked(
        WithScheduler(SchedulerKind::kParallel, threads), par_message);
    EXPECT_EQ(par_cycle, sync_cycle) << "threads=" << threads;
    // The parallel report annotates each blocked kernel with its owning
    // partition/thread; the content must otherwise be byte-identical.
    EXPECT_NE(par_message.find(" [partition "), std::string::npos)
        << par_message;
    EXPECT_EQ(StripPartitionAnnotations(par_message), sync_message)
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Stall sleep: receivers pop only every `every`-th cycle, so endpoint FIFOs
// fill, CKRs' latched packets stall on them, and the backpressure stalls
// CKs and links upstream. A stalled CK sleeps until its output has room and
// the arbiter replays the retries; every CK, link, FIFO, kernel and fault
// counter must come out exactly as under per-cycle stepping.

Kernel SlowReceiver(Context& ctx, int n, int source, Cycle every,
                    std::vector<std::int32_t>& sink) {
  RecvChannel ch = ctx.OpenRecvChannel(n, DataType::kInt, source,
                                       /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) {
    sink.push_back(co_await ch.Pop<std::int32_t>());
    co_await WaitCycles{every - 1};
  }
}

struct StallPayload {
  std::vector<std::vector<std::int32_t>> received;
  std::string counters;  ///< the whole telemetry counter document
  std::string faults;    ///< the fault report (null without a plan)

  friend bool operator==(const StallPayload&,
                         const StallPayload&) = default;
  friend std::ostream& operator<<(std::ostream& os, const StallPayload& p) {
    return os << p.counters << "\n" << p.faults;
  }
};

/// Every compute rank h of `topo` streams `n` ints to h + H/2 (mod H) over
/// its own connection; with `one_way` only the first half sends. Receivers
/// pop every `every` cycles.
ClusterObservation RunSlowReceivers(ClusterConfig config, const Topology& topo,
                                    bool one_way, int n, Cycle every,
                                    StallPayload& payload) {
  const int hosts = topo.num_compute_ranks();
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  config.engine.collect_counters = true;
  Cluster cluster(topo, spec, config);
  payload.received.assign(static_cast<std::size_t>(hosts), {});
  for (int h = 0; h < hosts; ++h) {
    const int peer = (h + hosts / 2) % hosts;
    if (!one_way || h < hosts / 2) {
      cluster.AddKernel(h, P2pSender(cluster.context(h), n, peer), "s");
    }
    if (!one_way || h >= hosts / 2) {
      cluster.AddKernel(
          h, SlowReceiver(cluster.context(h), n, peer, every,
                          payload.received[static_cast<std::size_t>(h)]),
          "r");
    }
  }
  const RunResult result = cluster.Run();
  payload.counters = cluster.CaptureTelemetry().counters.dump();
  payload.faults = cluster.FaultsJson().dump();
  return {result.cycles, result.link_packets, result.kernel_resumes};
}

/// Total CK stalls in a counter document.
std::uint64_t CkStalls(const std::string& counters) {
  std::uint64_t stalls = 0;
  const json::Value doc = json::Parse(counters);
  for (const json::Value& ck : doc.at("cks").as_array()) {
    stalls += static_cast<std::uint64_t>(ck.at("stalls").as_int());
  }
  return stalls;
}

/// Total credit-stall cycles of the links in a counter document.
std::uint64_t LinkCreditStalls(const std::string& counters) {
  std::uint64_t stalls = 0;
  const json::Value doc = json::Parse(counters);
  for (const json::Value& link : doc.at("links").as_array()) {
    stalls += static_cast<std::uint64_t>(
        link.at("credit_stall_cycles").as_int());
  }
  return stalls;
}

TEST(EngineDifferential, StallSleepOnTorusIsCycleIdentical) {
  // Long enough that blocked deliveries fill the links' credit windows too.
  const auto run = [](const ClusterConfig& config, StallPayload& payload) {
    return RunSlowReceivers(config, Topology::Torus2D(2, 4), /*one_way=*/false,
                            1500, 5, payload);
  };
  StallPayload probe;
  run(WithScheduler(SchedulerKind::kSynchronous), probe);
  ASSERT_EQ(probe.received[0].size(), 1500u);
  EXPECT_GT(CkStalls(probe.counters), 1000u);
  EXPECT_GT(LinkCreditStalls(probe.counters), 0u);
  ExpectAllSchedulersIdentical<StallPayload>(run);
}

TEST(EngineDifferential, StallSleepOnFatTreeIsCycleIdentical) {
  const auto run = [](const ClusterConfig& config, StallPayload& payload) {
    return RunSlowReceivers(config, Topology::FatTree(4, 4, 2),
                            /*one_way=*/true, 300, 4, payload);
  };
  StallPayload probe;
  run(WithScheduler(SchedulerKind::kSynchronous), probe);
  ASSERT_EQ(probe.received[8].size(), 300u);
  EXPECT_GT(CkStalls(probe.counters), 1000u);
  ExpectAllSchedulersIdentical<StallPayload>(run);
}

TEST(EngineDifferential, StallSleepOverReliableLinksIsCycleIdentical) {
  const auto run = [](ClusterConfig config, StallPayload& payload) {
    config.fabric.fault =
        fault::FaultPlan::Parse("drop=0.02,corrupt=0.005,seed=4");
    return RunSlowReceivers(config, Topology::Torus2D(2, 4), /*one_way=*/false,
                            200, 6, payload);
  };
  StallPayload probe;
  run(WithScheduler(SchedulerKind::kSynchronous), probe);
  ASSERT_EQ(probe.received[0].size(), 200u);
  EXPECT_GT(CkStalls(probe.counters), 1000u);
  const json::Value faults = json::Parse(probe.faults);
  EXPECT_GT(faults.at("totals").get_int("retransmits", 0), 0);
  ExpectAllSchedulersIdentical<StallPayload>(run);
}

/// The outcome of a run that may end in a simulated deadlock.
struct Outcome {
  bool deadlocked = false;
  Cycle cycle = 0;     ///< completion cycle (a deadlock report names its own)
  std::string detail;  ///< deadlock report without partition annotations,
                       ///< or the counter document of a completed run

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <typename Scenario>
Outcome RunToOutcome(Scenario&& scenario, SchedulerKind kind,
                     unsigned threads = 1) {
  ClusterConfig config = WithScheduler(kind, threads);
  config.engine.watchdog_cycles = 3000;
  Outcome outcome;
  StallPayload payload;
  try {
    outcome.cycle = scenario(config, payload).cycles;
    outcome.detail = payload.counters;
  } catch (const DeadlockError& e) {
    outcome.deadlocked = true;
    outcome.detail = StripPartitionAnnotations(e.what());
  }
  return outcome;
}

template <typename Scenario>
Outcome ExpectSameOutcome(Scenario&& scenario) {
  const Outcome sync = RunToOutcome(scenario, SchedulerKind::kSynchronous);
  const Outcome event = RunToOutcome(scenario, SchedulerKind::kEventDriven);
  EXPECT_EQ(event.deadlocked, sync.deadlocked);
  EXPECT_EQ(event.cycle, sync.cycle);
  EXPECT_EQ(event.detail, sync.detail);
  for (const unsigned threads : kThreadCounts) {
    const Outcome par =
        RunToOutcome(scenario, SchedulerKind::kParallel, threads);
    EXPECT_EQ(par.deadlocked, sync.deadlocked) << "threads=" << threads;
    EXPECT_EQ(par.cycle, sync.cycle) << "threads=" << threads;
    EXPECT_EQ(par.detail, sync.detail) << "threads=" << threads;
  }
  return sync;
}

TEST(EngineDifferential, GivingUpReceiversDeadlockAtTheSameCycle) {
  // Receivers stop after half the stream: the rest backs up into full
  // FIFOs, every CK on the way sleeps on a stalled packet, and the
  // watchdog must still fire at the per-cycle stepping's cycle.
  const auto run = [](const ClusterConfig& config, StallPayload& payload) {
    const Topology topo = Topology::FatTree(4, 4, 2);
    ProgramSpec spec;
    spec.Add(OpSpec::Send(0, DataType::kInt));
    spec.Add(OpSpec::Recv(0, DataType::kInt));
    Cluster cluster(topo, spec, config);
    payload.received.assign(16, {});
    for (int h = 0; h < 8; ++h) {
      cluster.AddKernel(h, P2pSender(cluster.context(h), 4000, h + 8), "s");
      cluster.AddKernel(
          h + 8,
          SlowReceiver(cluster.context(h + 8), 300, h, 3,
                       payload.received[static_cast<std::size_t>(h + 8)]),
          "r");
    }
    const RunResult result = cluster.Run();
    return ClusterObservation{result.cycles, result.link_packets,
                              result.kernel_resumes};
  };
  const Outcome sync = ExpectSameOutcome(run);
  EXPECT_TRUE(sync.deadlocked);
}

TEST(EngineDifferential, TwoWaySwitchTrafficHasTheSameOutcome) {
  // Every host of FatTree(4, 4, 2) streams 1,029 ints (147 packets) to
  // host h + 8 (mod 16), so both directions cross every switch. This shape
  // deadlocks in the CK layer (a known defect); whatever the outcome, it must
  // be the same under every scheduler.
  const auto run = [](const ClusterConfig& config, StallPayload& payload) {
    ClusterConfig c = config;
    c.engine.collect_counters = true;
    const Topology topo = Topology::FatTree(4, 4, 2);
    ProgramSpec spec;
    spec.Add(OpSpec::Send(0, DataType::kInt));
    spec.Add(OpSpec::Recv(0, DataType::kInt));
    Cluster cluster(topo, spec, c);
    payload.received.assign(16, {});
    for (int h = 0; h < 16; ++h) {
      const int peer = (h + 8) % 16;
      cluster.AddKernel(h, P2pSender(cluster.context(h), 1029, peer), "s");
      cluster.AddKernel(
          h, P2pReceiver(cluster.context(h), 1029,
                         payload.received[static_cast<std::size_t>(h)], peer),
          "r");
    }
    const RunResult result = cluster.Run();
    payload.counters = cluster.CaptureTelemetry().counters.dump();
    return ClusterObservation{result.cycles, result.link_packets,
                              result.kernel_resumes};
  };
  ExpectSameOutcome(run);
}

// ---------------------------------------------------------------------------
// Telemetry differential: with counter and trace collection enabled, the
// exported documents (per-entity counters and the Chrome trace timeline)
// must be BIT-identical across the three schedulers — duration counters are
// span-accounted in the event-driven scheduler and journal-trimmed after
// partition overshoot in the parallel one, and this is the executable check
// that both reductions reproduce the synchronous per-cycle accounting.

struct TelemetryDocs {
  std::string counters;
  std::string trace;
};

ClusterConfig WithTelemetry(ClusterConfig config) {
  config.engine.collect_counters = true;
  config.engine.collect_trace = true;
  return config;
}

template <typename Scenario>
void ExpectTelemetryIdentical(Scenario&& scenario) {
  const TelemetryDocs sync =
      scenario(WithTelemetry(WithScheduler(SchedulerKind::kSynchronous)));
  // The documents are substantive, not empty shells.
  const json::Value counters = json::Parse(sync.counters);
  EXPECT_GT(counters.at("total_cycles").as_int(), 0);
  EXPECT_FALSE(counters.at("fifos").as_array().empty());
  EXPECT_FALSE(counters.at("kernels").as_array().empty());
  const json::Value trace = json::Parse(sync.trace);
  EXPECT_FALSE(trace.at("traceEvents").as_array().empty());

  const TelemetryDocs event =
      scenario(WithTelemetry(WithScheduler(SchedulerKind::kEventDriven)));
  EXPECT_EQ(event.counters, sync.counters);
  EXPECT_EQ(event.trace, sync.trace);

  for (const unsigned threads : kThreadCounts) {
    const TelemetryDocs par = scenario(
        WithTelemetry(WithScheduler(SchedulerKind::kParallel, threads)));
    EXPECT_EQ(par.counters, sync.counters) << "threads=" << threads;
    EXPECT_EQ(par.trace, sync.trace) << "threads=" << threads;
  }
}

TEST(EngineDifferential, P2pTelemetryIsBitIdentical) {
  ExpectTelemetryIdentical([](const ClusterConfig& config) {
    ProgramSpec spec;
    spec.Add(OpSpec::Send(0, DataType::kInt));
    spec.Add(OpSpec::Recv(0, DataType::kInt));
    Cluster cluster(Topology::Bus(4), spec, config);
    std::vector<std::int32_t> sink;
    cluster.AddKernel(0, P2pSender(cluster.context(0), 150), "s");
    cluster.AddKernel(1, P2pReceiver(cluster.context(1), 150, sink), "r");
    cluster.Run();
    const RunTelemetry t = cluster.CaptureTelemetry();
    return TelemetryDocs{t.counters.dump(), t.trace.dump()};
  });
}

TEST(EngineDifferential, ReduceTelemetryIsBitIdentical) {
  // Reduce exercises CK forwarding of all three wire ops (data, sync,
  // credit), the arbiter stall path at the root, and — under kParallel —
  // journaled counters on split cut-links.
  ExpectTelemetryIdentical([](const ClusterConfig& config) {
    ProgramSpec spec;
    spec.Add(OpSpec::Reduce(1, DataType::kFloat));
    Cluster cluster(Topology::Bus(4), spec, config);
    std::vector<float> results;
    for (int r = 0; r < 4; ++r) {
      cluster.AddKernel(r, ReduceApp(cluster.context(r), 30, /*root=*/1,
                                     results),
                        "reduce");
    }
    cluster.Run();
    const RunTelemetry t = cluster.CaptureTelemetry();
    return TelemetryDocs{t.counters.dump(), t.trace.dump()};
  });
}

TEST(EngineDifferential, StencilTelemetryIsBitIdentical) {
  // Transient channels, daemon support kernels finishing in overshoot, DRAM
  // streams: the heaviest telemetry scenario.
  ExpectTelemetryIdentical([](const ClusterConfig& config) {
    apps::StencilConfig sc;
    sc.nx_global = 16;
    sc.ny_global = 32;
    sc.rx = 2;
    sc.ry = 2;
    sc.timesteps = 2;
    sc.cluster = config;
    const apps::StencilResult result = apps::RunStencilSmi(sc);
    return TelemetryDocs{result.telemetry.counters.dump(),
                         result.telemetry.trace.dump()};
  });
}

// ---------------------------------------------------------------------------
// Wake-queue edges of the event-driven engine: a watch set that changes on
// every park, a component wake from a global event on an idle-jump target,
// far timed wakes overtaken by FIFO activity, and one-cycle RunFor steps.
// Each raw-engine scenario is built once per partition tag 0..3, so under
// kParallel with two or more threads several partitions run their own wake
// queues side by side.

constexpr int kRawTags = 4;

struct RawObservation {
  RunStats stats;
  std::vector<std::vector<std::int64_t>> sinks;
};

/// Builds `build(engine, tag, sink)` for every tag and runs the engine.
/// With `one_cycle_steps` the engine is first driven by RunFor(1) until
/// every kernel is done, and the closing Run only reports the statistics.
template <typename Build>
RawObservation RunRaw(SchedulerKind kind, unsigned threads, Build& build,
                      bool one_cycle_steps = false) {
  EngineConfig config;
  config.scheduler = kind;
  config.threads = threads;
  Engine engine(config);
  RawObservation obs;
  obs.sinks.resize(kRawTags);
  for (int tag = 0; tag < kRawTags; ++tag) {
    sim::PartitionTagScope scope(engine, tag);
    build(engine, tag, obs.sinks[static_cast<std::size_t>(tag)]);
  }
  if (one_cycle_steps) {
    while (!engine.RunFor(1)) {
    }
  }
  obs.stats = engine.Run();
  return obs;
}

void ExpectSameRun(const RawObservation& got, const RawObservation& want,
                   const std::string& label) {
  EXPECT_EQ(got.stats.cycles, want.stats.cycles) << label;
  EXPECT_EQ(got.stats.kernel_resumes, want.stats.kernel_resumes) << label;
  EXPECT_EQ(got.stats.seconds, want.stats.seconds) << label;
  EXPECT_EQ(got.sinks, want.sinks) << label;
}

/// Runs a raw-engine scenario under all three schedulers and checks RunStats
/// and payloads against the synchronous reference; returns the reference.
template <typename Build>
RawObservation ExpectRawSchedulersIdentical(Build build) {
  const RawObservation sync = RunRaw(SchedulerKind::kSynchronous, 1, build);
  ExpectSameRun(RunRaw(SchedulerKind::kEventDriven, 1, build), sync,
                "event");
  for (const unsigned threads : kThreadCounts) {
    const RawObservation par = RunRaw(SchedulerKind::kParallel, threads, build);
    ExpectSameRun(par, sync, "threads=" + std::to_string(threads));
    EXPECT_EQ(par.stats.partitions,
              std::min(threads, static_cast<unsigned>(kRawTags)));
  }
  return sync;
}

Kernel PacedProducer(sim::Fifo<std::int64_t>& out, int n, Cycle period,
                     std::int64_t base) {
  for (int i = 0; i < n; ++i) {
    co_await WaitCycles{period};
    co_await fifo_push(out, base + i);
  }
}

/// Pops alternately from `a` and `b`, so every park watches a different FIFO
/// than the previous one.
Kernel AlternatingConsumer(sim::Fifo<std::int64_t>& a,
                           sim::Fifo<std::int64_t>& b, int n,
                           std::vector<std::int64_t>& sink) {
  for (int i = 0; i < n; ++i) {
    sink.push_back(co_await fifo_pop(a));
    sink.push_back(co_await fifo_pop(b));
  }
}

TEST(EngineDifferential, AlternatingWatchSetIsCycleIdentical) {
  const RawObservation sync = ExpectRawSchedulersIdentical(
      [](Engine& engine, int tag, std::vector<std::int64_t>& sink) {
        auto& a = engine.MakeFifo<std::int64_t>("a", 2);
        auto& b = engine.MakeFifo<std::int64_t>("b", 2);
        const int n = 40;
        engine.AddKernel(PacedProducer(a, n, 1, 1000), "fast");
        engine.AddKernel(
            PacedProducer(b, n, 5 + static_cast<Cycle>(tag) * 4, 2000),
            "slow");
        engine.AddKernel(AlternatingConsumer(a, b, n, sink), "alternate");
      });
  // The slowest producer (period 17) paces the run.
  EXPECT_GT(sync.stats.cycles, 40u * 17u);
  EXPECT_EQ(sync.sinks[3].size(), 80u);
}

/// Pushes the cycle it steps at into `out` once per Arm(). It declares no
/// self-wake while idle, so under the event-driven schedulers only
/// Engine::WakeComponentAt (or a pop from its output) can step it.
class ArmedSource final : public sim::Component {
 public:
  ArmedSource(std::string name, sim::Fifo<std::int64_t>& out)
      : Component(std::move(name)), out_(&out) {}
  void Arm() { ++armed_; }
  void Step(Cycle now) override {
    if (armed_ == 0 || !out_->CanPush(now)) return;
    out_->Push(static_cast<std::int64_t>(now), now);
    --armed_;
  }
  void DeclareFifos(sim::FifoRoles& roles) override {
    roles.outputs.push_back(out_);
  }
  Cycle NextSelfWake(Cycle now) const override {
    return armed_ != 0 ? now + 1 : sim::kNeverCycle;
  }

 private:
  sim::Fifo<std::int64_t>* out_;
  int armed_ = 0;
};

/// Pops `n` values; after each one it sleeps until the next event cycle, so
/// the engine idles between events and jumps straight to them.
Kernel SleepyConsumer(sim::Fifo<std::int64_t>& in, int n, Cycle sleep,
                      std::vector<std::int64_t>& sink) {
  for (int i = 0; i < n; ++i) {
    sink.push_back(co_await fifo_pop(in));
    co_await WaitCycles{sleep};
  }
}

TEST(EngineDifferential, GlobalEventWakeOnIdleJumpTargetIsCycleIdentical) {
  const RawObservation sync = ExpectRawSchedulersIdentical(
      [](Engine& engine, int tag, std::vector<std::int64_t>& sink) {
        auto& fifo = engine.MakeFifo<std::int64_t>("armed", 2);
        auto& source = engine.MakeComponent<ArmedSource>("source", fifo);
        const int n = 5;
        const Cycle period = 400 + static_cast<Cycle>(tag) * 37;
        for (int k = 1; k <= n; ++k) {
          // Nothing else is due at these cycles: the event-driven loop
          // reaches each one by an idle jump whose target is the event.
          const Cycle at = static_cast<Cycle>(k) * period;
          engine.ScheduleGlobalEvent(
              at, static_cast<std::uint64_t>(tag),
              [&engine, &source](Cycle now) {
                source.Arm();
                engine.WakeComponentAt(source, now);
              });
        }
        // The first event is reached by a jump to the event alone. Each
        // sleep after a pop ends exactly at the next event's cycle, so the
        // later events share their cycle with a kernel's timed wake.
        engine.AddKernel(SleepyConsumer(fifo, n, period - 1, sink),
                         "consumer");
      });
  // The source stepped exactly at the event cycles.
  const std::vector<std::int64_t> want0 = {400, 800, 1200, 1600, 2000};
  EXPECT_EQ(sync.sinks[0], want0);
}

/// Pops one value, or gives up `timeout` cycles after the wait began:
/// a FIFO watch plus a far timed poll. Completion yields the value or -1,
/// followed by the completion cycle.
struct PopOrTimeout final : sim::detail::AwaitableBase<PopOrTimeout> {
  PopOrTimeout(sim::Fifo<std::int64_t>& f, Cycle t) : fifo(&f), timeout(t) {}
  bool TryComplete(Cycle now) override {
    if (!armed) {
      armed = true;
      deadline = now + timeout;
    }
    if (fifo->CanPop(now)) {
      value = fifo->Pop(now);
    } else if (now < deadline) {
      return false;
    }
    at = now;
    return true;
  }
  std::string Describe() const override { return "pop or timeout"; }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    out.push_back(fifo);
  }
  Cycle NextPollCycle(Cycle now) const override {
    return deadline > now ? deadline : now + 1;
  }
  std::pair<std::int64_t, Cycle> await_resume() const noexcept {
    return {value, at};
  }

  sim::Fifo<std::int64_t>* fifo;
  Cycle timeout;
  Cycle deadline = 0;
  bool armed = false;
  std::int64_t value = -1;
  Cycle at = 0;
};

/// Waits until it has received `n` non-negative values, recording every
/// completion (value or -1, then cycle) on the way.
Kernel TimeoutConsumer(sim::Fifo<std::int64_t>& in, int n, Cycle timeout,
                       std::vector<std::int64_t>& sink) {
  for (int values = 0; values < n;) {
    const auto [value, at] = co_await PopOrTimeout(in, timeout);
    sink.push_back(value);
    sink.push_back(static_cast<std::int64_t>(at));
    if (value >= 0) ++values;
  }
}

/// Forwards `in` to `out`; when nothing arrived for `period` cycles it
/// forwards a -1 tick instead. Its far self-wake is usually overtaken by an
/// arrival on `in`, which leaves a stale entry in the component wake heap.
class TickingForwarder final : public sim::Component {
 public:
  TickingForwarder(std::string name, sim::Fifo<std::int64_t>& in,
                   sim::Fifo<std::int64_t>& out, Cycle period)
      : Component(std::move(name)), in_(&in), out_(&out), period_(period) {}
  void Step(Cycle now) override {
    if (!out_->CanPush(now)) return;
    if (in_->CanPop(now)) {
      out_->Push(in_->Pop(now), now);
      last_ = now;
    } else if (now >= last_ + period_) {
      out_->Push(-1, now);
      last_ = now;
    }
  }
  void DeclareFifos(sim::FifoRoles& roles) override {
    roles.inputs.push_back(in_);
    roles.outputs.push_back(out_);
  }
  Cycle NextSelfWake(Cycle now) const override {
    if (in_->occupancy() > 0 && out_->occupancy() < out_->capacity()) {
      return now + 1;
    }
    return last_ + period_ > now ? last_ + period_ : now + 1;
  }

 private:
  sim::Fifo<std::int64_t>* in_;
  sim::Fifo<std::int64_t>* out_;
  Cycle period_;
  Cycle last_ = 0;
};

/// Pushes 0..n-1 after irregular gaps, some shorter than the consumer's
/// timeout and the forwarder's tick period, some longer.
Kernel IrregularProducer(sim::Fifo<std::int64_t>& out, int n, Cycle seed) {
  for (int i = 0; i < n; ++i) {
    co_await WaitCycles{(static_cast<Cycle>(i) * 7919 + seed) % 1300 + 1};
    co_await fifo_push(out, std::int64_t{i});
  }
}

TEST(EngineDifferential, OvertakenFarWakesAreCycleIdentical) {
  const RawObservation sync = ExpectRawSchedulersIdentical(
      [](Engine& engine, int tag, std::vector<std::int64_t>& sink) {
        auto& raw = engine.MakeFifo<std::int64_t>("raw", 2);
        auto& ticks = engine.MakeFifo<std::int64_t>("ticks", 2);
        engine.MakeComponent<TickingForwarder>("forwarder", raw, ticks, 700);
        const int n = 30;
        engine.AddKernel(
            IrregularProducer(raw, n, static_cast<Cycle>(tag) * 131),
            "producer");
        engine.AddKernel(TimeoutConsumer(ticks, n, 900, sink), "consumer");
      });
  // Both kinds of completion happen: values, and timeouts or ticks (-1).
  const std::vector<std::int64_t>& sink = sync.sinks[0];
  int values = 0;
  int gaps = 0;
  for (std::size_t i = 0; i < sink.size(); i += 2) {
    (sink[i] >= 0 ? values : gaps) += 1;
  }
  EXPECT_EQ(values, 30);
  EXPECT_GT(gaps, 8);
}

TEST(EngineDifferential, RunForOneCycleStepsMatchOneRun) {
  auto build = [](Engine& engine, int tag, std::vector<std::int64_t>& sink) {
    auto& a = engine.MakeFifo<std::int64_t>("a", 2);
    auto& b = engine.MakeFifo<std::int64_t>("b", 2);
    engine.AddKernel(PacedProducer(a, 12, 1, 0), "fast");
    engine.AddKernel(
        IrregularProducer(b, 12, static_cast<Cycle>(tag) * 61), "slow");
    engine.AddKernel(AlternatingConsumer(a, b, 12, sink), "alternate");
  };
  const RawObservation whole = RunRaw(SchedulerKind::kSynchronous, 1, build);
  ExpectSameRun(RunRaw(SchedulerKind::kSynchronous, 1, build, true), whole,
                "sync");
  ExpectSameRun(RunRaw(SchedulerKind::kEventDriven, 1, build, true), whole,
                "event");
  for (const unsigned threads : kThreadCounts) {
    ExpectSameRun(RunRaw(SchedulerKind::kParallel, threads, build, true),
                  whole, "threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// RunFor must advance `now` identically even when nothing finishes.

TEST(EngineDifferential, RunForAdvancesIdentically) {
  auto run = [](SchedulerKind kind, std::vector<Cycle>& trace) {
    EngineConfig config;
    config.scheduler = kind;
    Engine engine(config);
    sim::Fifo<int>& fifo = engine.MakeFifo<int>("sparse", 8);
    std::vector<int> sink;
    engine.AddKernel(SparseProducer(fifo, 3, 137), "producer");
    engine.AddKernel(SparseConsumer(fifo, 12, sink), "consumer");
    bool done = false;
    while (!done) {
      done = engine.RunFor(50);
      trace.push_back(engine.now());
    }
    return sink;
  };
  std::vector<Cycle> sync_trace, event_trace;
  const std::vector<int> sync_sink = run(SchedulerKind::kSynchronous,
                                         sync_trace);
  const std::vector<int> event_sink = run(SchedulerKind::kEventDriven,
                                          event_trace);
  EXPECT_EQ(event_trace, sync_trace);
  EXPECT_EQ(event_sink, sync_sink);
}

}  // namespace
}  // namespace smi::core
