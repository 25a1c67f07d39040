#include "sim/fifo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace smi::sim {
namespace {

TEST(Fifo, StartsEmpty) {
  Fifo<int> f("f", 4);
  EXPECT_FALSE(f.CanPop(0));
  EXPECT_TRUE(f.CanPush(0));
  EXPECT_EQ(f.occupancy(), 0u);
}

TEST(Fifo, PushNotVisibleUntilCommit) {
  Fifo<int> f("f", 4);
  f.Push(42, 0);
  // Same cycle: the element is staged, not poppable.
  EXPECT_FALSE(f.CanPop(0));
  f.Commit(0);
  EXPECT_TRUE(f.CanPop(1));
  EXPECT_EQ(f.Pop(1), 42);
}

TEST(Fifo, OnePushPerCycle) {
  Fifo<int> f("f", 4);
  f.Push(1, 0);
  EXPECT_FALSE(f.CanPush(0));  // write port busy this cycle
  f.Commit(0);
  EXPECT_TRUE(f.CanPush(1));
}

TEST(Fifo, OnePopPerCycle) {
  Fifo<int> f("f", 4);
  f.Push(1, 0);
  f.Commit(0);
  f.Push(2, 1);
  f.Commit(1);
  EXPECT_EQ(f.Pop(2), 1);
  EXPECT_FALSE(f.CanPop(2));  // read port busy this cycle
  f.Commit(2);
  EXPECT_EQ(f.Pop(3), 2);
}

TEST(Fifo, PoppedSlotNotReusableSameCycle) {
  Fifo<int> f("f", 1);
  f.Push(1, 0);
  f.Commit(0);
  EXPECT_EQ(f.Pop(1), 1);
  // Capacity 1, slot freed this cycle: a push must wait for the commit.
  EXPECT_FALSE(f.CanPush(1));
  f.Commit(1);
  EXPECT_TRUE(f.CanPush(2));
}

TEST(Fifo, FifoOrderPreserved) {
  Fifo<int> f("f", 8);
  Cycle now = 0;
  for (int i = 0; i < 8; ++i) {
    f.Push(i, now);
    f.Commit(now);
    ++now;
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(f.Pop(now), i);
    f.Commit(now);
    ++now;
  }
}

TEST(Fifo, BackpressureAtCapacity) {
  Fifo<int> f("f", 3);
  Cycle now = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.CanPush(now));
    f.Push(i, now);
    f.Commit(now);
    ++now;
  }
  EXPECT_FALSE(f.CanPush(now));
  EXPECT_EQ(f.Pop(now), 0);
  f.Commit(now);
  ++now;
  EXPECT_TRUE(f.CanPush(now));
}

TEST(Fifo, IllegalOperationsThrow) {
  Fifo<int> f("f", 1);
  EXPECT_THROW(f.Pop(0), ConfigError);
  f.Push(1, 0);
  EXPECT_THROW(f.Push(2, 0), ConfigError);
  EXPECT_THROW((Fifo<int>("zero", 0)), ConfigError);
}

TEST(Fifo, FrontPeeksWithoutConsuming) {
  Fifo<int> f("f", 2);
  f.Push(7, 0);
  f.Commit(0);
  EXPECT_EQ(f.Front(1), 7);
  EXPECT_EQ(f.Front(1), 7);  // peek is repeatable
  EXPECT_EQ(f.Pop(1), 7);
}

TEST(Fifo, CommitReportsActivity) {
  Fifo<int> f("f", 2);
  EXPECT_FALSE(f.Commit(0));
  f.Push(1, 1);
  EXPECT_TRUE(f.Commit(1));
  EXPECT_FALSE(f.Commit(2));
  (void)f.Pop(3);
  EXPECT_TRUE(f.Commit(3));
}

TEST(Fifo, CountersTrackTraffic) {
  Fifo<int> f("f", 4);
  Cycle now = 0;
  for (int i = 0; i < 5; ++i) {
    f.Push(i, now);
    f.Commit(now);
    ++now;
    (void)f.Pop(now);
    f.Commit(now);
    ++now;
  }
  EXPECT_EQ(f.total_pushes(), 5u);
  EXPECT_EQ(f.total_pops(), 5u);
}

TEST(Fifo, ObservabilityCountersTrackStallsAndHighWater) {
  obs::FifoCounters counters;
  Fifo<int> f("f", 2);
  f.set_counters(&counters);
  Cycle now = 0;
  // Cycle 0-1: fill to capacity.
  f.Push(1, now);
  f.Commit(now);
  ++now;
  f.Push(2, now);
  f.Commit(now);
  ++now;  // committed-full from cycle 2
  // Cycles 2-3: full, nothing moves.
  f.Commit(now);
  ++now;
  f.Commit(now);
  ++now;
  // Cycle 4: drain one.
  (void)f.Pop(now);
  f.Commit(now);
  ++now;
  counters.Finalize(now);
  EXPECT_EQ(counters.pushes, 2u);
  EXPECT_EQ(counters.pops, 1u);
  EXPECT_EQ(counters.high_water, 2u);
  // Committed-full spans cycles [2, 5): the commit at cycle 1 made it full,
  // the commit at cycle 4 (taking effect at 5) made it non-full.
  EXPECT_EQ(counters.full_stall_cycles, 3u);
  // Committed-empty covers only [0, 1): the fresh FIFO before the first
  // commit took effect.
  EXPECT_EQ(counters.empty_cycles, 1u);
}

TEST(Fifo, NonPowerOfTwoCapacityWrapsCorrectly) {
  Fifo<int> f("f", 5);
  Cycle now = 0;
  // Push/pop more than 2x the ring size to exercise wraparound.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 20; ++round) {
    if (f.CanPush(now)) f.Push(next_push++, now);
    if (f.CanPop(now)) {
      EXPECT_EQ(f.Pop(now), next_pop++);
    }
    f.Commit(now);
    ++now;
  }
  EXPECT_GT(next_pop, 10);
}

// Storage is allocated by the first push. Whichever push comes first, the
// FIFO must then behave as one whose ring existed from the start: the
// values come out in order across several wraps of a non-power-of-two
// capacity, budgets and occupancy track every operation, and a drain
// returns what is left.
TEST(Fifo, AnyKindOfFirstPushBehavesAsBefore) {
  enum class First { kPush, kPushBulkModeled };
  for (const First first : {First::kPush, First::kPushBulkModeled}) {
    Fifo<int> f("f", 5);
    int next_push = 0;
    int next_pop = 0;
    Cycle now = 0;
    switch (first) {
      case First::kPush:
        f.Push(next_push++, now);
        break;
      case First::kPushBulkModeled: {
        int three[] = {0, 1, 2};
        f.PushBulkModeled(three, 3, now);
        next_push = 3;
        break;
      }
    }
    EXPECT_EQ(f.occupancy(), static_cast<std::size_t>(next_push));
    EXPECT_EQ(f.ModeledPopBudget(), 0u);  // staged, not yet committed
    f.Commit(now++);
    EXPECT_EQ(f.ModeledPopBudget(), static_cast<std::uint64_t>(next_push));
    EXPECT_EQ(f.Front(now), 0);
    for (int round = 0; round < 24; ++round) {
      if (round % 4 == 3) {
        // A bulk round trip that straddles the end of the 8-slot ring.
        int out[5];
        const auto n = static_cast<std::size_t>(f.ModeledPopBudget());
        f.PopBulkModeled(out, n, now);
        for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(out[k], next_pop++);
        int in[5];
        const auto m = static_cast<std::size_t>(f.ModeledPushBudget());
        for (std::size_t k = 0; k < m; ++k) in[k] = next_push++;
        f.PushBulkModeled(in, m, now);
      } else {
        if (f.CanPush(now)) f.Push(next_push++, now);
        if (f.CanPop(now)) EXPECT_EQ(f.Pop(now), next_pop++);
      }
      f.Commit(now++);
      EXPECT_EQ(f.occupancy(), static_cast<std::size_t>(next_push - next_pop));
    }
    EXPECT_GT(next_pop, 16);  // the ring wrapped more than twice
    EXPECT_EQ(f.total_pushes(), static_cast<std::uint64_t>(next_push));
    const std::vector<int> rest = f.DrainAll(now);
    ASSERT_EQ(rest.size(), static_cast<std::size_t>(next_push - next_pop));
    for (const int v : rest) EXPECT_EQ(v, next_pop++);
    EXPECT_EQ(f.occupancy(), 0u);
  }
}

TEST(Fifo, NeverPushedFifoDrainsNothingAndRejectsReads) {
  Fifo<int> f("f", 4);
  EXPECT_TRUE(f.DrainAll(0).empty());
  EXPECT_EQ(f.total_pops(), 0u);
  EXPECT_FALSE(f.push_staged() || f.pop_staged());
  EXPECT_THROW(f.Pop(0), ConfigError);
  EXPECT_THROW(f.Front(0), ConfigError);
  int out[1];
  EXPECT_THROW(f.PopBulkModeled(out, 1, 0), ConfigError);
  f.PopBulkModeled(out, 0, 0);  // an empty bulk pop is a no-op
  EXPECT_EQ(f.ModeledPushBudget(), 4u);
  // It still works once something arrives.
  f.Push(9, 1);
  f.Commit(1);
  EXPECT_EQ(f.Pop(2), 9);
}

}  // namespace
}  // namespace smi::sim
