/// \file flow_link_test.cpp
/// The lossless serial link under the default cycle-accurate fidelity
/// policy: delivery order, latency, line rate, backpressure, the exact
/// credit window and wake contract, and the parallel scheduler's split
/// halves against the fused step. The flow-mode state machine is covered by
/// fidelity_test.cpp.

#include "sim/flow_link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/engine.h"

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
  EXPECT_EQ(link.NextSelfWake(4), Cycle{5});
  StepManually(link, tx, rx, 5);
  EXPECT_EQ(link.delivered(), 1u);  // stalled

  // Matured-but-stalled head: NO timed wake. Only RX-pop activity can
  // unstall it, and FIFO activity wakes the link through DeclareWakeFifos,
  // so a timer here would be a pure busy-poll.
  EXPECT_EQ(link.NextSelfWake(5), kNeverCycle);

  // An RX pop unstalls the delivery on the following cycle.
  (void)rx.Pop(6);
  StepManually(link, tx, rx, 6);
  StepManually(link, tx, rx, 7);
  EXPECT_EQ(link.delivered(), 2u);
  EXPECT_EQ(link.NextSelfWake(7), kNeverCycle);  // pipeline drained
}

/// Per-cycle trace of one manually clocked link: cumulative accepts and
/// deliveries after each cycle, plus the payloads in delivery order.
struct LinkTrace {
  std::vector<std::uint64_t> accepted;
  std::vector<std::uint64_t> delivered;
  std::vector<int> sink;
};

constexpr Cycle kSplitLatency = 8;
constexpr int kSplitPayloads = 40;

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

LinkTrace RunFused(Cycle cycles) {
  Engine engine;
  Fifo<int> tx("tx", 16);
  Fifo<int> rx("rx", 2);
  FlowLink<int> link(engine, "link", tx, rx, kSplitLatency, FidelityPolicy{});
  LinkTrace trace;
  int next = 0;
  for (Cycle now = 0; now < cycles; ++now) {
    DriveFifos(tx, rx, now, next, trace.sink);
    StepManually(link, tx, rx, now);
    trace.accepted.push_back(tx.total_pops());
    trace.delivered.push_back(link.delivered());
  }
  return trace;
}

TEST(Link, SplitHalvesMatchTheFusedStep) {
  // Ends while the drain phase is still delivering.
  const Cycle cycles = 100;
  const LinkTrace fused = RunFused(cycles);
  // The stall phase must really saturate the window for the check to bite.
  ASSERT_EQ(fused.accepted[60] - fused.delivered[60],
            static_cast<std::uint64_t>(kSplitLatency) + 1);
  for (const Cycle every : {Cycle{1}, Cycle{3}, kSplitLatency}) {
    SCOPED_TRACE(every);
    Engine engine;
    Fifo<int> tx("tx", 16);
    Fifo<int> rx("rx", 2);
    FlowLink<int> link(engine, "link", tx, rx, kSplitLatency,
                       FidelityPolicy{});
    LinkTrace split;
    int next = 0;
    link.BeginSplit();
    // Barriers every `every` cycles, shortened to the credit slack the
    // barrier reports, exactly as the parallel scheduler bounds epochs.
    Cycle last_barrier = 0;
    Cycle longest_epoch = 0;
    for (Cycle barrier = 0; barrier < cycles;) {
      last_barrier = barrier;
      const Cycle slack = link.ExchangeAtBarrier(barrier);
      ASSERT_GE(slack, Cycle{1});
      const Cycle end = std::min(cycles, barrier + std::min(every, slack));
      longest_epoch = std::max(longest_epoch, end - barrier);
      for (Cycle now = barrier; now < end; ++now) {
        DriveFifos(tx, rx, now, next, split.sink);
        link.StepTx(now);
        link.StepRx(now);
        tx.Commit(now);
        rx.Commit(now);
        split.accepted.push_back(tx.total_pops());
        split.delivered.push_back(link.delivered());
      }
      barrier = end;
    }
    EXPECT_EQ(longest_epoch, every);
    EXPECT_EQ(split.accepted, fused.accepted);
    EXPECT_EQ(split.delivered, fused.delivered);
    EXPECT_EQ(split.sink, fused.sink);

    // Overshoot trim inside the final epoch: trimming at c leaves exactly
    // the deliveries the fused link made before cycle c.
    ASSERT_GT(last_barrier, Cycle{0});
    ASSERT_GT(fused.delivered[cycles - 1], fused.delivered[last_barrier - 1])
        << "the final epoch must deliver something to trim";
    for (Cycle c = cycles; c >= last_barrier; --c) {
      link.TrimDeliveriesAtOrAfter(c);
      EXPECT_EQ(link.delivered(), fused.delivered[c - 1]) << "c=" << c;
    }
    link.EndSplit();
  }
}

}  // namespace
}  // namespace smi::sim
