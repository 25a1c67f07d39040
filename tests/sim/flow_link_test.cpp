/// \file flow_link_test.cpp
/// The lossless serial link under the default cycle-accurate fidelity
/// policy: delivery order, latency, line rate, backpressure, the exact
/// credit window and wake contract. Typed over both serial links: the
/// parallel scheduler's split halves against the fused step and the
/// overshoot trim of an unsplit link. The flow-mode state machine is
/// covered by fidelity_test.cpp.

#include "sim/flow_link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/engine.h"
#include "sim/reliable_link.h"

namespace smi::sim {
namespace {

Kernel Produce(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) co_await fifo_push(out, i);
}

Kernel Consume(Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) sink.push_back(co_await fifo_pop(in));
}

Kernel TimestampedConsume(Fifo<int>& in, const Cycle* now, Cycle& first_pop) {
  (void)co_await fifo_pop(in);
  first_pop = *now;
}

void MakeLink(Engine& engine, Fifo<int>& tx, Fifo<int>& rx, Cycle latency) {
  engine.MakeComponent<FlowLink<int>>(engine, "link", tx, rx, latency,
                                      FidelityPolicy{});
}

TEST(Link, DeliversInOrder) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  MakeLink(engine, tx, rx, 10);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 200), "p");
  engine.AddKernel(Consume(rx, 200, sink), "c");
  engine.Run();
  ASSERT_EQ(sink.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(sink[i], i);
}

TEST(Link, LatencyIsRespected) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  const Cycle latency = 100;
  MakeLink(engine, tx, rx, latency);
  Cycle first_pop = 0;
  engine.AddKernel(Produce(tx, 1), "p");
  engine.AddKernel(TimestampedConsume(rx, engine.now_ptr(), first_pop), "c");
  engine.Run();
  // Push at cycle 0 -> visible to link at 1 -> accepted at 1 -> delivered at
  // >= 1+latency -> visible to consumer one commit later.
  EXPECT_GE(first_pop, latency);
  EXPECT_LE(first_pop, latency + 5);
}

TEST(Link, SustainsOnePayloadPerCycle) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 8);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 8);
  MakeLink(engine, tx, rx, 50);
  std::vector<int> sink;
  const int n = 2000;
  engine.AddKernel(Produce(tx, n), "p");
  engine.AddKernel(Consume(rx, n, sink), "c");
  const RunStats stats = engine.Run();
  // Time ~ n + latency + small constant; far below 2n.
  EXPECT_LE(stats.cycles, static_cast<Cycle>(n) + 100);
}

TEST(Link, BackpressuresWhenReceiverStalls) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 2);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 2);
  MakeLink(engine, tx, rx, 5);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 100), "p");
  // Slow consumer: one pop every 4 cycles.
  engine.AddKernel(
      [](Fifo<int>& in, std::vector<int>& s) -> Kernel {
        for (int i = 0; i < 100; ++i) {
          s.push_back(co_await fifo_pop(in));
          co_await WaitCycles{3};
        }
      }(rx, sink),
      "slow-consumer");
  engine.Run();
  ASSERT_EQ(sink.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sink[i], i);  // lossless
}

// ---------------------------------------------------------------------------
// Manually clocked unit tests for the credit window, the event-driven wake
// contract and the split halves of the parallel scheduler (see CutLink in
// component.h).

/// One simulated cycle: step the link, then commit both FIFOs (the cycle
/// boundary the engine would apply).
void StepManually(FlowLink<int>& link, Fifo<int>& tx, Fifo<int>& rx,
                  Cycle now) {
  link.Step(now);
  tx.Commit(now);
  rx.Commit(now);
}

TEST(Link, CreditWindowIsExactlyLatencyPlusOneUnderRxStall) {
  Engine engine;
  Fifo<int> tx("tx", 16);
  Fifo<int> rx("rx", 1);
  const Cycle latency = 4;
  FlowLink<int> link(engine, "link", tx, rx, latency, FidelityPolicy{});
  // Saturate TX and never pop RX: one delivery fills the RX FIFO, after
  // which the pipeline must stall holding exactly latency+1 payloads —
  // the credit window of the physical transceiver.
  int next = 0;
  for (Cycle now = 0; now < 200; ++now) {
    if (tx.CanPush(now)) tx.Push(next++, now);
    StepManually(link, tx, rx, now);
  }
  EXPECT_EQ(link.delivered(), 1u);
  EXPECT_EQ(tx.total_pops() - link.delivered(),
            static_cast<std::uint64_t>(latency) + 1);
  // Not latency, not latency+2: the accept count pins the window size.
  EXPECT_EQ(tx.total_pops(), static_cast<std::uint64_t>(latency) + 2);
}

TEST(Link, NextSelfWakeCoversMaturityButNotRxStall) {
  Engine engine;
  Fifo<int> tx("tx", 4);
  Fifo<int> rx("rx", 1);
  const Cycle latency = 3;
  FlowLink<int> link(engine, "link", tx, rx, latency, FidelityPolicy{});

  // Empty pipeline: no timed wake.
  EXPECT_EQ(link.NextSelfWake(0), kNeverCycle);

  // Two payloads, one push per cycle; the link accepts them at cycles 1
  // and 2, so they mature at 4 and 5.
  tx.Push(1, 0);
  StepManually(link, tx, rx, 0);
  tx.Push(2, 1);
  StepManually(link, tx, rx, 1);
  StepManually(link, tx, rx, 2);

  // In-flight head not yet matured: the wake is its maturity cycle.
  EXPECT_EQ(link.NextSelfWake(2), Cycle{4});
  StepManually(link, tx, rx, 3);
  EXPECT_EQ(link.NextSelfWake(3), Cycle{4});

  // Cycle 4 delivers the first payload, filling the depth-1 RX FIFO; the
  // second payload matures at 5 but finds RX full.
  StepManually(link, tx, rx, 4);
  EXPECT_EQ(link.delivered(), 1u);
  // Matured-but-stalled head: NO timed wake, already when the full RX FIFO
  // is visible before the head matures. Only an RX pop can unstall it, and
  // a pop from the link's output re-asks NextSelfWake, so a timer here
  // would be a pure busy-poll.
  EXPECT_EQ(link.NextSelfWake(4), kNeverCycle);
  StepManually(link, tx, rx, 5);
  EXPECT_EQ(link.delivered(), 1u);  // stalled
  EXPECT_EQ(link.NextSelfWake(5), kNeverCycle);

  // An RX pop unstalls the delivery on the following cycle.
  (void)rx.Pop(6);
  StepManually(link, tx, rx, 6);
  StepManually(link, tx, rx, 7);
  EXPECT_EQ(link.delivered(), 2u);
  EXPECT_EQ(link.NextSelfWake(7), kNeverCycle);  // pipeline drained
}

// ---------------------------------------------------------------------------
// Both serial links over the shared core (sim/serial_link.h): the parallel
// scheduler's split halves against the fused step, and the final-epoch
// overshoot trim on a link that is never split.

template <typename L>
class SerialLinkTest : public ::testing::Test {};

using SerialLinkTypes = ::testing::Types<FlowLink<int>, ReliableLink<int>>;
TYPED_TEST_SUITE(SerialLinkTest, SerialLinkTypes);

/// The link under test, owned by `engine`; `hook` injects faults into a
/// reliable link.
template <typename L>
L& MakeSerialLink(Engine& engine, Fifo<int>& tx, Fifo<int>& rx,
                  Cycle latency, LinkFaultHook* hook) {
  if constexpr (std::is_same_v<L, FlowLink<int>>) {
    return engine.MakeComponent<L>(engine, "link", tx, rx, latency,
                                   FidelityPolicy{});
  } else {
    ReliableLinkConfig config;
    config.latency = latency;
    L& link = engine.MakeComponent<L>("link", tx, rx, config);
    link.set_fault_hook(hook);
    return link;
  }
}

/// Every link-owned counter, in declaration order.
std::vector<std::uint64_t> Counters(const obs::ReliabilityCounters& s) {
  return {s.frames_sent,       s.retransmits,  s.timeouts,
          s.wire_drops,        s.wire_corruptions,
          s.checksum_failures, s.seq_discards, s.acks_sent,
          s.acks_dropped,      s.delivered,    s.recovered};
}

/// Per-cycle trace of one manually clocked link: cumulative accepts and
/// every link counter after each cycle, plus the payloads in delivery order.
struct LinkTrace {
  std::vector<std::uint64_t> accepted;
  std::vector<std::vector<std::uint64_t>> counters;
  std::vector<int> sink;
};

constexpr Cycle kSplitLatency = 8;
constexpr int kSplitPayloads = 40;
constexpr Cycle kSplitCycles = 100;  // ends while the drain still delivers

/// The producer pushes whenever TX has room; the consumer pops RX only
/// every third cycle until cycle 90 — RX stays full and the credit window
/// saturates — and every cycle afterwards, draining the pipeline.
void DriveFifos(Fifo<int>& tx, Fifo<int>& rx, Cycle now, int& next,
                std::vector<int>& sink) {
  if (next < kSplitPayloads && tx.CanPush(now)) tx.Push(next++, now);
  if ((now >= 90 || now % 3 == 0) && rx.CanPop(now)) {
    sink.push_back(rx.Pop(now));
  }
}

template <typename L>
LinkTrace RunFused(LinkFaultHook* hook) {
  Engine engine;
  Fifo<int> tx("tx", 16);
  Fifo<int> rx("rx", 2);
  L& link = MakeSerialLink<L>(engine, tx, rx, kSplitLatency, hook);
  LinkTrace trace;
  int next = 0;
  for (Cycle now = 0; now < kSplitCycles; ++now) {
    DriveFifos(tx, rx, now, next, trace.sink);
    link.Step(now);
    tx.Commit(now);
    rx.Commit(now);
    trace.accepted.push_back(tx.total_pops());
    trace.counters.push_back(Counters(link.stats()));
  }
  return trace;
}

/// One split run as the parallel scheduler drives it: barriers every
/// `every` cycles, shortened to the slack each barrier reports. With
/// `trim_at` set, the overshoot past it is trimmed at the end.
struct SplitRun {
  LinkTrace trace;
  Cycle last_barrier = 0;
  Cycle longest_epoch = 0;
  std::vector<std::uint64_t> trimmed;  ///< counters after the trim
};

template <typename L>
SplitRun RunSplit(LinkFaultHook* hook, Cycle every,
                  Cycle trim_at = kNeverCycle) {
  Engine engine;
  Fifo<int> tx("tx", 16);
  Fifo<int> rx("rx", 2);
  L& link = MakeSerialLink<L>(engine, tx, rx, kSplitLatency, hook);
  SplitRun run;
  int next = 0;
  link.BeginSplit();
  link.BeginParallelRun();
  for (Cycle barrier = 0; barrier < kSplitCycles;) {
    run.last_barrier = barrier;
    const Cycle slack = link.ExchangeAtBarrier(barrier);
    EXPECT_GE(slack, Cycle{1});
    const Cycle end = std::min(kSplitCycles, barrier + std::min(every, slack));
    run.longest_epoch = std::max(run.longest_epoch, end - barrier);
    for (Cycle now = barrier; now < end; ++now) {
      DriveFifos(tx, rx, now, next, run.trace.sink);
      link.StepTx(now);
      link.StepRx(now);
      tx.Commit(now);
      rx.Commit(now);
      run.trace.accepted.push_back(tx.total_pops());
      run.trace.counters.push_back(Counters(link.stats()));
    }
    barrier = end;
  }
  if (trim_at != kNeverCycle) link.TrimDeliveriesAtOrAfter(trim_at);
  run.trimmed = Counters(link.stats());
  link.EndSplit();
  link.EndParallelRun();
  return run;
}

TYPED_TEST(SerialLinkTest, SplitHalvesMatchTheFusedStep) {
  using L = TypeParam;
  constexpr bool reliable = std::is_same_v<L, ReliableLink<int>>;
  // The reliable link runs once clean and once with seeded drops and
  // corruptions, so retransmits and acks cross the barriers.
  fault::LinkFaultSpec spec;
  spec.drop_rate = 0.08;
  spec.corrupt_rate = 0.04;
  fault::LinkFaultModel faults(spec, 11, "link");
  std::vector<LinkFaultHook*> hooks = {nullptr};
  if (reliable) hooks.push_back(&faults);
  for (LinkFaultHook* hook : hooks) {
    SCOPED_TRACE(hook != nullptr ? "faulted" : "clean");
    const LinkTrace fused = RunFused<L>(hook);
    constexpr std::size_t kDelivered = 9;  // index in Counters()
    if (!reliable) {
      // The stall phase must really saturate the window for the check to
      // bite.
      ASSERT_EQ(fused.accepted[60] - fused.counters[60][kDelivered],
                static_cast<std::uint64_t>(kSplitLatency) + 1);
    } else if (hook != nullptr) {
      ASSERT_GT(fused.counters.back()[1], 0u) << "no retransmits";
      ASSERT_GT(fused.counters.back()[3], 0u) << "no wire drops";
    }
    for (const Cycle every : {Cycle{1}, Cycle{3}, kSplitLatency}) {
      SCOPED_TRACE(every);
      const SplitRun split = RunSplit<L>(hook, every);
      EXPECT_EQ(split.longest_epoch, every);
      EXPECT_EQ(split.trace.accepted, fused.accepted);
      EXPECT_EQ(split.trace.counters, fused.counters);
      EXPECT_EQ(split.trace.sink, fused.sink);

      // Overshoot trim inside the final epoch: trimming at c leaves
      // exactly the counters the fused link had before cycle c.
      const Cycle last = split.last_barrier;
      ASSERT_GT(last, Cycle{0});
      ASSERT_NE(fused.counters[kSplitCycles - 1], fused.counters[last - 1])
          << "the final epoch must count something to trim";
      for (Cycle c = kSplitCycles; c >= last; --c) {
        EXPECT_EQ(RunSplit<L>(hook, every, c).trimmed, fused.counters[c - 1])
            << "c=" << c;
      }
    }
  }
}

Kernel ProduceThenFinish(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) co_await fifo_push(out, i);
}

Kernel Idle(Cycle cycles) { co_await WaitCycles{cycles}; }

TYPED_TEST(SerialLinkTest, UnsplitOvershootIsTrimmedUnderEveryScheduler) {
  // The producer finishes with payloads still in flight and nobody pops RX.
  // Both link ends share partition tag 0, so the parallel scheduler never
  // splits the link; an idle kernel on tag 1 gives it a second partition.
  // Every delivery after the finish cycle lands in the final epoch's
  // overshoot and must be trimmed.
  const auto run = [](SchedulerKind kind, unsigned threads) {
    EngineConfig config;
    config.scheduler = kind;
    config.threads = threads;
    Engine engine(config);
    engine.SetPartitionTag(0);
    Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
    Fifo<int>& rx = engine.MakeFifo<int>("rx", 64);
    TypeParam& link = MakeSerialLink<TypeParam>(engine, tx, rx, 10, nullptr);
    engine.MarkCutComponent(link, link, 0, 0);
    engine.AddKernel(ProduceThenFinish(tx, 20), "p");
    engine.SetPartitionTag(1);
    engine.AddKernel(Idle(3), "idle");
    const RunStats stats = engine.Run();
    return std::pair{stats.cycles, link.delivered()};
  };
  const auto sync = run(SchedulerKind::kSynchronous, 1);
  ASSERT_GT(sync.second, 0u);
  ASSERT_LT(sync.second, 20u) << "payloads must still be in flight";
  EXPECT_EQ(run(SchedulerKind::kEventDriven, 1), sync);
  for (const unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(run(SchedulerKind::kParallel, threads), sync)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace smi::sim
