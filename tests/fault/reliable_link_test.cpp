/// \file reliable_link_test.cpp
/// Unit tests for the go-back-N reliable link: exactly-once in-order
/// delivery under seeded faults, the retransmission timer and its
/// exponential backoff, the send window as the flow-control bound, and
/// permanent death after the retry budget plus payload recovery for
/// failover. Manually-clocked tests pin cycle-exact behaviour the same way
/// flow_link_test.cpp does for the lossless link.

#include "sim/reliable_link.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "sim/engine.h"

namespace smi::sim {
namespace {

Kernel Produce(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) co_await fifo_push(out, i);
}

Kernel Consume(Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) sink.push_back(co_await fifo_pop(in));
}

std::vector<int> Iota(int n) {
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v;
}

/// Test hook with a fixed per-channel action over a cycle range. Pure
/// function of (construction state, cycle, channel), as the contract
/// requires.
class RangeHook final : public LinkFaultHook {
 public:
  RangeHook(Action action, int channel, Cycle from = 0,
            Cycle to = kNeverCycle)
      : action_(action), channel_(channel), from_(from), to_(to) {}

  Action OnWireEntry(Cycle now, int channel) override {
    if (channel != channel_ && channel_ >= 0) return Action::kNone;
    return (now >= from_ && now < to_) ? action_ : Action::kNone;
  }
  std::uint64_t CorruptionPattern(Cycle now) override { return now * 2 + 1; }

 private:
  Action action_;
  int channel_;  ///< -1 = both channels
  Cycle from_;
  Cycle to_;
};

TEST(ReliableLink, DeliversInOrderWithoutFaults) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  ReliableLinkConfig config;
  config.latency = 10;
  auto& link =
      engine.MakeComponent<ReliableLink<int>>("link", tx, rx, config);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 300), "p");
  engine.AddKernel(Consume(rx, 300, sink), "c");
  engine.Run();
  EXPECT_EQ(sink, Iota(300));
  EXPECT_EQ(link.stats().retransmits, 0u);
  EXPECT_EQ(link.stats().timeouts, 0u);
  EXPECT_EQ(link.stats().checksum_failures, 0u);
  EXPECT_EQ(link.stats().delivered, 300u);
}

TEST(ReliableLink, ExactlyOnceInOrderUnderSeededDropAndCorruption) {
  fault::LinkFaultSpec spec;
  spec.drop_rate = 0.05;
  spec.corrupt_rate = 0.02;
  fault::LinkFaultModel model(spec, 42, "link");

  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  ReliableLinkConfig config;
  config.latency = 10;
  auto& link =
      engine.MakeComponent<ReliableLink<int>>("link", tx, rx, config);
  link.set_fault_hook(&model);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 400), "p");
  engine.AddKernel(Consume(rx, 400, sink), "c");
  engine.Run();
  // Every payload arrives exactly once, in order, despite the losses.
  EXPECT_EQ(sink, Iota(400));
  EXPECT_GT(link.stats().wire_drops, 0u);
  EXPECT_GT(link.stats().retransmits, 0u);
  // Corruption is always caught (the checksum covers the pre-wire image);
  // some corrupted frames may still be in flight when the run ends.
  EXPECT_GT(link.stats().wire_corruptions, 0u);
  EXPECT_LE(link.stats().checksum_failures, link.stats().wire_corruptions);
  EXPECT_EQ(link.stats().delivered, 400u);
}

TEST(ReliableLink, SurvivesATotalOutageWindow) {
  fault::LinkFaultSpec spec;
  spec.outages.emplace_back(50, 300);
  fault::LinkFaultModel model(spec, 1, "link");

  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 4);
  ReliableLinkConfig config;
  config.latency = 5;
  auto& link =
      engine.MakeComponent<ReliableLink<int>>("link", tx, rx, config);
  link.set_fault_hook(&model);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 100), "p");
  engine.AddKernel(Consume(rx, 100, sink), "c");
  engine.Run();
  EXPECT_EQ(sink, Iota(100));
  EXPECT_GT(link.stats().timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Manually clocked tests.

void StepManually(ReliableLink<int>& link, Fifo<int>& tx, Fifo<int>& rx,
                  Cycle now) {
  link.Step(now);
  tx.Commit(now);
  rx.Commit(now);
}

TEST(ReliableLink, TimeoutRetransmitsADroppedFrame) {
  Fifo<int> tx("tx", 4);
  Fifo<int> rx("rx", 4);
  ReliableLinkConfig config;
  config.latency = 4;
  config.rto = 20;
  ReliableLink<int> link("link", tx, rx, config);
  // The first frame enters the wire at cycle 1 (pushed at 0, visible after
  // the commit) and is dropped; nothing else is.
  RangeHook drop_first(LinkFaultHook::Action::kDrop,
                       LinkFaultHook::kForwardChannel, 1, 2);
  link.set_fault_hook(&drop_first);

  tx.Push(7, 0);
  for (Cycle now = 0; now < 40; ++now) StepManually(link, tx, rx, now);
  // Send at 1 (dropped), timer expires at 21, replay delivers at 25.
  EXPECT_EQ(link.stats().wire_drops, 1u);
  EXPECT_EQ(link.stats().timeouts, 1u);
  EXPECT_EQ(link.stats().retransmits, 1u);
  EXPECT_EQ(link.delivered(), 1u);
  ASSERT_TRUE(rx.CanPop(40));
  EXPECT_EQ(rx.Pop(40), 7);
}

TEST(ReliableLink, CorruptedFrameIsCaughtAndRetransmitted) {
  Fifo<int> tx("tx", 4);
  Fifo<int> rx("rx", 4);
  ReliableLinkConfig config;
  config.latency = 4;
  config.rto = 20;
  ReliableLink<int> link("link", tx, rx, config);
  RangeHook corrupt_first(LinkFaultHook::Action::kCorrupt,
                          LinkFaultHook::kForwardChannel, 1, 2);
  link.set_fault_hook(&corrupt_first);

  tx.Push(7, 0);
  for (Cycle now = 0; now < 40; ++now) StepManually(link, tx, rx, now);
  EXPECT_EQ(link.stats().wire_corruptions, 1u);
  EXPECT_EQ(link.stats().checksum_failures, 1u);
  EXPECT_EQ(link.delivered(), 1u);
  ASSERT_TRUE(rx.CanPop(40));
  EXPECT_EQ(rx.Pop(40), 7);  // the retransmitted, uncorrupted copy
}

TEST(ReliableLink, SendWindowBoundsUnacknowledgedFrames) {
  Fifo<int> tx("tx", 16);
  Fifo<int> rx("rx", 16);
  ReliableLinkConfig config;
  config.latency = 4;
  config.window = 4;
  config.rto = 1000;  // no timeout within the horizon
  ReliableLink<int> link("link", tx, rx, config);
  // Every acknowledgement is lost: the window can never advance.
  RangeHook drop_acks(LinkFaultHook::Action::kDrop,
                      LinkFaultHook::kAckChannel);
  link.set_fault_hook(&drop_acks);

  int next = 0;
  for (Cycle now = 0; now < 200; ++now) {
    if (tx.CanPush(now)) tx.Push(next++, now);
    StepManually(link, tx, rx, now);
  }
  // Exactly `window` frames were accepted off the TX FIFO; the window is
  // the flow-control bound that replaces the lossless link's credit window.
  EXPECT_EQ(tx.total_pops(), 4u);
  EXPECT_EQ(link.stats().frames_sent, 4u);
  EXPECT_EQ(link.delivered(), 4u);  // they did reach the receiver
}

TEST(ReliableLink, BackoffGrowsExponentiallyUpToTheCap) {
  Fifo<int> tx("tx", 4);
  Fifo<int> rx("rx", 4);
  ReliableLinkConfig config;
  config.latency = 2;
  config.rto = 4;
  config.backoff_cap = 2;  // timeout gaps: 4, 8, 16, then 16 forever
  ReliableLink<int> link("link", tx, rx, config);
  RangeHook drop_all(LinkFaultHook::Action::kDrop, /*channel=*/-1);
  link.set_fault_hook(&drop_all);

  tx.Push(7, 0);
  std::vector<Cycle> timeout_cycles;
  std::uint64_t seen = 0;
  for (Cycle now = 0; now < 80; ++now) {
    StepManually(link, tx, rx, now);
    if (link.stats().timeouts > seen) {
      seen = link.stats().timeouts;
      timeout_cycles.push_back(now);
    }
  }
  // Send at cycle 1; deadlines at +4, then x2 per round, capped at x4.
  ASSERT_GE(timeout_cycles.size(), 5u);
  EXPECT_EQ(timeout_cycles[0], 5u);
  EXPECT_EQ(timeout_cycles[1] - timeout_cycles[0], 4u);   // scale 1
  EXPECT_EQ(timeout_cycles[2] - timeout_cycles[1], 8u);   // scale 2
  EXPECT_EQ(timeout_cycles[3] - timeout_cycles[2], 16u);  // scale 4 (cap)
  EXPECT_EQ(timeout_cycles[4] - timeout_cycles[3], 16u);  // still capped
}

/// Death sink recording the report.
struct DeathRecorder final : LinkDeathSink {
  std::vector<std::pair<std::size_t, Cycle>> deaths;
  void OnLinkDead(std::size_t link_id, Cycle now) override {
    deaths.emplace_back(link_id, now);
  }
};

TEST(ReliableLink, DiesAfterRetryBudgetAndHandsBackPayloads) {
  Fifo<int> tx("tx", 16);
  Fifo<int> rx("rx", 16);
  ReliableLinkConfig config;
  config.latency = 2;
  config.window = 8;
  config.rto = 4;
  config.backoff_cap = 0;  // constant timeout: die fast
  config.retry_budget = 2;
  ReliableLink<int> link("link", tx, rx, config);
  RangeHook drop_all(LinkFaultHook::Action::kDrop, /*channel=*/-1);
  link.set_fault_hook(&drop_all);
  DeathRecorder sink;
  link.set_death_sink(&sink, 7);

  int next = 0;
  for (Cycle now = 0; now < 200; ++now) {
    if (tx.CanPush(now) && next < 5) tx.Push(next++, now);
    StepManually(link, tx, rx, now);
  }
  // Two fruitless rounds exhaust the budget on the third timeout.
  EXPECT_TRUE(link.dead());
  ASSERT_EQ(sink.deaths.size(), 1u);
  EXPECT_EQ(sink.deaths[0].first, 7u);
  EXPECT_EQ(sink.deaths[0].second, link.dead_cycle());
  EXPECT_EQ(link.delivered(), 0u);

  // Failover recovers the undelivered window in order and freezes the link.
  // The fifth payload never left the TX FIFO (replay and timeout handling
  // take priority over accepting new frames); the fabric drains it from
  // the FIFO separately at failover.
  const std::vector<int> recovered = link.TakeUndelivered();
  EXPECT_EQ(recovered, Iota(4));
  EXPECT_EQ(link.stats().recovered, 4u);
  EXPECT_EQ(tx.occupancy(), 1u);
  link.Quiesce();
  const std::uint64_t frames_before = link.stats().frames_sent;
  for (Cycle now = 200; now < 220; ++now) StepManually(link, tx, rx, now);
  EXPECT_EQ(link.stats().frames_sent, frames_before);  // fully frozen
  EXPECT_EQ(link.NextSelfWake(220), kNeverCycle);
}

TEST(ReliableLink, ReceiverBufferBackpressuresWithoutLoss) {
  Engine engine;
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 4);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 2);
  ReliableLinkConfig config;
  config.latency = 5;
  config.window = 4;
  auto& link =
      engine.MakeComponent<ReliableLink<int>>("link", tx, rx, config);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 100), "p");
  // Slow consumer: one pop every 4 cycles. The receive buffer fills, acks
  // are withheld, and recovery happens purely through retransmission —
  // still exactly-once, in order.
  engine.AddKernel(
      [](Fifo<int>& in, std::vector<int>& s) -> Kernel {
        for (int i = 0; i < 100; ++i) {
          s.push_back(co_await fifo_pop(in));
          co_await WaitCycles{3};
        }
      }(rx, sink),
      "slow-consumer");
  engine.Run();
  EXPECT_EQ(sink, Iota(100));
  EXPECT_EQ(link.stats().delivered, 100u);
}

}  // namespace
}  // namespace smi::sim
