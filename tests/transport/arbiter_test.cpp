#include "transport/arbiter.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

namespace smi::transport {
namespace {

net::Packet DataPacket(int src) {
  net::Packet p;
  p.hdr.src = static_cast<std::uint8_t>(src);
  p.hdr.op = net::OpType::kData;
  return p;
}

/// Drive the arbiter like a CK's Step loop: one Select per cycle, consuming
/// the packet when granted. Returns the grant pattern (input index or -1).
std::vector<int> Drive(PollingArbiter& arb,
                       std::vector<sim::Fifo<net::Packet>*> inputs,
                       int cycles, sim::Cycle& now) {
  std::vector<int> grants;
  for (int c = 0; c < cycles; ++c) {
    PacketFifo* in = arb.Select(now);
    int granted = -1;
    if (in != nullptr) {
      (void)in->Pop(now);
      arb.Serviced(now);
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i] == in) granted = static_cast<int>(i);
      }
    }
    for (sim::Fifo<net::Packet>* f : inputs) f->Commit(now);
    grants.push_back(granted);
    ++now;
  }
  return grants;
}

TEST(PollingArbiter, SingleSourceAtREqualsOneIsOneInFive) {
  sim::Cycle now = 0;
  std::vector<std::unique_ptr<sim::Fifo<net::Packet>>> fifos;
  std::vector<sim::Fifo<net::Packet>*> inputs;
  PollingArbiter arb(1);
  for (int i = 0; i < 5; ++i) {
    fifos.push_back(std::make_unique<sim::Fifo<net::Packet>>(
        "in" + std::to_string(i), 16));
    inputs.push_back(fifos.back().get());
    arb.AddInput(*fifos.back());
  }
  // Keep input 0 saturated.
  for (int c = 0; c < 3; ++c) {
    fifos[0]->Push(DataPacket(0), now);
    fifos[0]->Commit(now);
    ++now;
  }
  auto refill = [&](sim::Cycle at) {
    if (fifos[0]->CanPush(at)) fifos[0]->Push(DataPacket(0), at);
  };
  std::vector<int> grants;
  for (int c = 0; c < 20; ++c) {
    refill(now);
    PacketFifo* in = arb.Select(now);
    int granted = -1;
    if (in != nullptr) {
      (void)in->Pop(now);
      arb.Serviced(now);
      granted = 0;
    }
    for (auto& f : fifos) f->Commit(now);
    grants.push_back(granted);
    ++now;
  }
  // Exactly one grant per 5 cycles in steady state.
  int count = 0;
  for (const int g : grants) count += (g == 0);
  EXPECT_NEAR(count, 4, 1);
}

TEST(PollingArbiter, BurstsUpToRFromOneSource) {
  sim::Cycle now = 0;
  sim::Fifo<net::Packet> a("a", 32), b("b", 32);
  PollingArbiter arb(4);
  arb.AddInput(a);
  arb.AddInput(b);
  // Preload 8 packets into `a`.
  for (int i = 0; i < 8; ++i) {
    a.Push(DataPacket(0), now);
    a.Commit(now);
    b.Commit(now);
    ++now;
  }
  const std::vector<int> grants = Drive(arb, {&a, &b}, 12, now);
  // Pattern: 4 grants from a, 1 idle (scanning b), 4 grants, idle...
  int bursts = 0, idles = 0;
  for (const int g : grants) {
    if (g == 0) ++bursts;
    if (g == -1) ++idles;
  }
  EXPECT_EQ(bursts, 8);
  EXPECT_GE(idles, 2);
}

TEST(PollingArbiter, AlternatesBetweenTwoActiveSources) {
  sim::Cycle now = 0;
  sim::Fifo<net::Packet> a("a", 64), b("b", 64);
  PollingArbiter arb(2);
  arb.AddInput(a);
  arb.AddInput(b);
  for (int i = 0; i < 10; ++i) {
    a.Push(DataPacket(0), now);
    b.Push(DataPacket(1), now);
    a.Commit(now);
    b.Commit(now);
    ++now;
  }
  const std::vector<int> grants = Drive(arb, {&a, &b}, 20, now);
  // With both sources saturated and R=2, service alternates in bursts of 2
  // with no idle cycles.
  int idle = 0;
  for (const int g : grants) idle += (g == -1);
  EXPECT_EQ(idle, 0);
  // Both sources drained equally.
  EXPECT_EQ(a.total_pops(), 10u);
  EXPECT_EQ(b.total_pops(), 10u);
}

TEST(PollingArbiter, EmptyArbiterGrantsNothing) {
  PollingArbiter arb(8);
  EXPECT_EQ(arb.Select(0), nullptr);
}

TEST(PollingArbiter, StalledGrantRetriesSameInput) {
  sim::Cycle now = 0;
  sim::Fifo<net::Packet> a("a", 8), b("b", 8);
  PollingArbiter arb(1);
  arb.AddInput(a);
  arb.AddInput(b);
  a.Push(DataPacket(0), now);
  a.Commit(now);
  b.Commit(now);
  ++now;
  // Select grants input a; the caller stalls (output full).
  PacketFifo* first = arb.Select(now);
  ASSERT_EQ(first, &a);
  arb.Stalled(now);
  a.Commit(now);
  b.Commit(now);
  ++now;
  // Next cycle the same input must be offered again (hardware cannot drop
  // the latched packet).
  EXPECT_EQ(arb.Select(now), &a);
}

// ---------------------------------------------------------------------------
// PollsUntilData: the event-driven engine sleeps a CK for that many cycles,
// and the arbiter replays them as empty polls at the next Select.

/// Reference for PollsUntilData: step a copy of the arbiter one Select per
/// cycle from `now + 1`, with the FIFOs unchanged, and count the empty polls
/// before the first hit.
sim::Cycle PollsByStepping(PollingArbiter copy, sim::Cycle now) {
  const sim::Cycle limit = 2 * copy.num_inputs() + 2;
  for (sim::Cycle k = 0; k < limit; ++k) {
    if (copy.Select(now + 1 + k) != nullptr) return k;
  }
  return sim::kNeverCycle;
}

/// Sleeping through the empty polls and selecting once must leave the
/// arbiter exactly where stepping every cycle leaves it: same grant at the
/// wake cycle, same grants afterwards.
void ExpectSkipMatchesStepping(const PollingArbiter& arb, sim::Cycle now,
                               sim::Cycle polls) {
  PollingArbiter stepped = arb;
  PollingArbiter skipped = arb;
  for (sim::Cycle k = 0; k < polls; ++k) {
    ASSERT_EQ(stepped.Select(now + 1 + k), nullptr);
  }
  sim::Cycle w = now + 1 + polls;
  for (std::size_t i = 0; i < 2 * arb.num_inputs() + 2; ++i, ++w) {
    PacketFifo* a = stepped.Select(w);
    PacketFifo* b = skipped.Select(w);
    ASSERT_EQ(a, b) << "cycle " << w;
    if (a != nullptr) {
      stepped.Serviced(w);
      skipped.Serviced(w);
    }
  }
}

TEST(PollingArbiter, PollsUntilDataMatchesCycleByCycleStepping) {
  std::mt19937_64 rng(0x5eed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double push_rates[] = {0.01, 0.08, 0.4};
  const double skip_rates[] = {0.0, 0.3, 0.9};  // cycles without Select
  std::uint64_t found = 0, never = 0, skipped_polls = 0;
  for (int n = 1; n <= 33; ++n) {
    for (int r = 1; r <= 8; ++r) {
      const double push_rate = push_rates[(n + r) % 3];
      const double skip_rate = skip_rates[(n * 8 + r) % 3];
      std::vector<std::unique_ptr<PacketFifo>> fifos;
      PollingArbiter arb(r);
      for (int i = 0; i < n; ++i) {
        fifos.push_back(
            std::make_unique<PacketFifo>("in" + std::to_string(i), 2));
        arb.AddInput(*fifos.back());
      }
      bool polled = false;
      for (sim::Cycle now = 0; now < 160; ++now) {
        for (auto& f : fifos) {
          if (coin(rng) < push_rate && f->CanPush(now)) {
            f->Push(DataPacket(0), now);
          }
        }
        // A CK draining its fan-out or recovery queue skips Select.
        if (coin(rng) >= skip_rate) {
          polled = true;
          if (PacketFifo* in = arb.Select(now)) {
            if (coin(rng) < 0.2) {
              arb.Stalled(now);
            } else {
              (void)in->Pop(now);
              arb.Serviced(now);
            }
          }
        }
        for (auto& f : fifos) f->Commit(now);

        const sim::Cycle polls = arb.PollsUntilData(now);
        if (!polled) {
          bool any = false;
          for (auto& f : fifos) any |= f->occupancy() > 0;
          ASSERT_EQ(polls, any ? 0 : sim::kNeverCycle);
          continue;
        }
        ASSERT_EQ(polls, PollsByStepping(arb, now))
            << "n=" << n << " r=" << r << " now=" << now;
        if (polls == sim::kNeverCycle) {
          ++never;
          continue;
        }
        ++found;
        skipped_polls += polls;
        ExpectSkipMatchesStepping(arb, now, polls);
        if (HasFatalFailure()) return;
      }
    }
  }
  // Both answers and real skips were exercised.
  EXPECT_GT(found, 1000u);
  EXPECT_GT(never, 1000u);
  EXPECT_GT(skipped_polls, 10000u);
}

TEST(PollingArbiter, PollsUntilDataWithoutInputsIsNever) {
  PollingArbiter arb(4);
  EXPECT_EQ(arb.PollsUntilData(0), sim::kNeverCycle);
  EXPECT_EQ(arb.Select(7), nullptr);
  EXPECT_EQ(arb.PollsUntilData(7), sim::kNeverCycle);
}

TEST(PollingArbiter, NeverPolledArbiterMustStepOnAnyData) {
  // Before the first Select there is no replay: the first Select examines
  // input 0 whenever it comes. So a CK that never polled cannot sleep while
  // any input holds data, even if input 0 is empty.
  sim::Fifo<net::Packet> a("a", 4), b("b", 4), c("c", 4);
  PollingArbiter arb(1);
  arb.AddInput(a);
  arb.AddInput(b);
  arb.AddInput(c);
  EXPECT_EQ(arb.PollsUntilData(10), sim::kNeverCycle);
  c.Push(DataPacket(2), 10);
  c.Commit(10);
  EXPECT_EQ(arb.PollsUntilData(10), 0u);
  // Once polled the pointer moves with time: input 0 examined at 11, so
  // input 1 at 12 and input 2 at 13.
  EXPECT_EQ(arb.Select(11), nullptr);
  EXPECT_EQ(arb.PollsUntilData(11), 1u);
  // Cycles 12-14 pass without Select (the CK drained another queue); the
  // next Select replays them, so the pointer examines input 1 at 15 and
  // input 2 at 16.
  EXPECT_EQ(arb.PollsUntilData(14), 1u);
  EXPECT_EQ(arb.Select(15), nullptr);
  EXPECT_EQ(arb.Select(16), &c);
}

}  // namespace
}  // namespace smi::transport
