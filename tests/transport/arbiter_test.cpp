#include "transport/arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.h"

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
// PollsUntilData / PollsUntilInput: the event-driven engine sleeps a CK
// until its pointer reaches data, and the arbiter replays the skipped cycles
// as empty polls. A CK whose latched packet stalls on a full output sleeps
// until the output has room, and the arbiter replays the stalled retries.

/// Reference for PollsUntilData: step a copy of the arbiter one Select per
/// cycle from `now + 1`, with the FIFOs unchanged, and count the empty polls
/// before the first hit.
sim::Cycle PollsByStepping(PollingArbiter copy, sim::Cycle now) {
  copy.set_counters(nullptr);
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
  stepped.set_counters(nullptr);
  skipped.set_counters(nullptr);
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

/// One CK's arbiter over its own input FIFOs, with its counters.
struct CkModel {
  CkModel(int n, int r) : arb(r) {
    for (int i = 0; i < n; ++i) {
      fifos.push_back(
          std::make_unique<PacketFifo>("in" + std::to_string(i), 2));
      arb.AddInput(*fifos.back());
    }
    arb.set_counters(&counters);
  }

  /// One CK step at `now`: drain another queue (no poll), or poll and then
  /// consume the granted packet unless the output is full. Returns the
  /// granted input (-1 for none) and whether it stalled.
  std::pair<int, bool> Step(sim::Cycle now, bool output_full, bool drain) {
    if (drain) {
      arb.SkipPoll(now);
      return {-1, false};
    }
    PacketFifo* in = arb.Select(now);
    if (in == nullptr) return {-1, false};
    int index = -1;
    for (std::size_t i = 0; i < fifos.size(); ++i) {
      if (fifos[i].get() == in) index = static_cast<int>(i);
    }
    if (output_full) {
      arb.Stalled(now);
      return {index, true};
    }
    (void)in->Pop(now);
    arb.Serviced(now);
    return {index, false};
  }

  std::vector<std::unique_ptr<PacketFifo>> fifos;
  PollingArbiter arb;
  obs::CkCounters counters;
};

TEST(PollingArbiter, PollsUntilDataMatchesCycleByCycleStepping) {
  // Two copies of one CK see the same pushes, the same full/room output
  // and the same cycles spent draining another queue. `stepped` polls every
  // cycle, as under the synchronous scheduler; `sleeping` steps only when
  // the engine would: at its wake, which is min-ed from its NextSelfWake
  // answer after each step (PollsUntilData, or sleep while stalled) and the
  // O(1) push answers (WakeForPush); when its stalled output regains
  // room (the output pop's re-ask); and on drain cycles (a CK is due every
  // cycle while a queue waits). Grants must agree wherever `sleeping`
  // steps, every cycle it sleeps must be an empty poll or a stalled retry
  // for `stepped`, and the counters must agree at the end.
  //
  // For odd R the run starts late: before cycle `start` neither copy
  // selects, as before a CK's first step, while its top R inputs fill. An
  // arbiter that never polled has no pointer history to replay, so it must
  // step as soon as any input holds data: a push answers the next cycle
  // and PollsUntilData is 0 or never. With N = 65 and R = 1 the data sits
  // in the second mask word alone.
  std::mt19937_64 rng(0x5eed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double push_rates[] = {0.01, 0.08, 0.4};
  const double drain_rates[] = {0.0, 0.1, 0.5};
  const double full_rates[] = {0.0, 0.3, 0.8};
  constexpr sim::Cycle kCycles = 160;
  std::uint64_t found = 0, never = 0, skipped_polls = 0, slept_retries = 0;
  std::uint64_t unpolled_data = 0, unpolled_empty = 0;
  for (int n = 1; n <= 65; ++n) {
    for (int r = 1; r <= 8; ++r) {
      const double push_rate = push_rates[(n + r) % 3];
      const double drain_rate = drain_rates[(n * 8 + r) % 3];
      const double full_rate = full_rates[(n + 2 * r) % 3];
      CkModel stepped(n, r);
      CkModel sleeping(n, r);
      const sim::Cycle start = r % 2 == 1 ? 1 + rng() % 40 : 0;
      std::vector<std::size_t> pushed;
      for (sim::Cycle now = 0; now < start; ++now) {
        pushed.clear();
        for (int i = std::max(0, n - r); i < n; ++i) {
          PacketFifo& a = *stepped.fifos[static_cast<std::size_t>(i)];
          PacketFifo& b = *sleeping.fifos[static_cast<std::size_t>(i)];
          if (coin(rng) < 0.1 && a.CanPush(now)) {
            a.Push(DataPacket(0), now);
            b.Push(DataPacket(0), now);
            pushed.push_back(static_cast<std::size_t>(i));
          }
        }
        for (auto& f : stepped.fifos) f->Commit(now);
        for (auto& f : sleeping.fifos) f->Commit(now);
        for (const std::size_t slot : pushed) {
          stepped.arb.MarkHasData(slot);
          ASSERT_EQ(sleeping.arb.WakeForPush(slot, now), now + 1)
              << "n=" << n << " r=" << r << " now=" << now;
        }
        bool any = false;
        for (auto& f : stepped.fifos) any |= f->occupancy() > 0;
        const sim::Cycle want = any ? 0 : sim::kNeverCycle;
        ASSERT_EQ(stepped.arb.PollsUntilData(now), want)
            << "n=" << n << " r=" << r << " now=" << now;
        ASSERT_EQ(sleeping.arb.PollsUntilData(now), want)
            << "n=" << n << " r=" << r << " now=" << now;
        ++(any ? unpolled_data : unpolled_empty);
      }
      // The engine rebuilds the mask from occupancy when the run starts.
      sleeping.arb.ResyncHasData();
      sim::Cycle wake = start;  // the engine schedules every CK at run start
      bool stall_sleep = false;
      bool output_full = false;
      for (sim::Cycle now = start; now < kCycles; ++now) {
        pushed.clear();
        for (int i = 0; i < n; ++i) {
          PacketFifo& a = *stepped.fifos[static_cast<std::size_t>(i)];
          PacketFifo& b = *sleeping.fifos[static_cast<std::size_t>(i)];
          ASSERT_EQ(a.CanPush(now), b.CanPush(now));
          if (coin(rng) < push_rate && a.CanPush(now)) {
            a.Push(DataPacket(0), now);
            b.Push(DataPacket(0), now);
            pushed.push_back(static_cast<std::size_t>(i));
          }
        }
        if (coin(rng) < 0.25) output_full = coin(rng) < full_rate;
        // Every CK steps, and so polls, at the first cycle of a run; queues
        // to drain only fill later.
        const bool drain = now > start && coin(rng) < drain_rate;

        const auto want = stepped.Step(now, output_full, drain);
        // A stalled CK wakes once the output has room (a pop freed it).
        // Its pointer stays on the latched input meanwhile, so a push
        // elsewhere must not wake it.
        const bool due =
            drain || wake == now || (stall_sleep && !output_full);
        if (stall_sleep && !drain) {
          ASSERT_FALSE(wake == now && output_full)
              << "a push woke a stalled CK: n=" << n << " r=" << r
              << " now=" << now;
          ASSERT_EQ(sleeping.arb.PollsUntilData(now), 0u);
        }
        if (due) {
          const auto got = sleeping.Step(now, output_full, drain);
          ASSERT_EQ(got, want) << "n=" << n << " r=" << r << " now=" << now;
          wake = sim::kNeverCycle;
          stall_sleep = got.second;
        } else if (want.first < 0) {
          ASSERT_FALSE(stall_sleep) << "n=" << n << " r=" << r
                                    << " now=" << now;
          ++skipped_polls;
        } else {
          ASSERT_TRUE(want.second && stall_sleep)
              << "missed wake: n=" << n << " r=" << r << " now=" << now
              << " grant " << want.first << " stalled " << want.second
              << " wake " << wake << " full " << output_full << " drain "
              << drain;
          ++slept_retries;
        }

        // Commit, then the push notifications (the engine's InputPushed).
        for (auto& f : stepped.fifos) f->Commit(now);
        for (auto& f : sleeping.fifos) f->Commit(now);
        for (const std::size_t slot : pushed) {
          stepped.arb.MarkHasData(slot);
          wake = std::min(wake, sleeping.arb.WakeForPush(slot, now));
        }
        // The NextSelfWake asked after a step: sleep while stalled.
        if (due && !stall_sleep) {
          const sim::Cycle polls = sleeping.arb.PollsUntilData(now);
          if (polls != sim::kNeverCycle) wake = std::min(wake, now + 1 + polls);
        }

        const sim::Cycle polls = stepped.arb.PollsUntilData(now);
        ASSERT_EQ(polls, PollsByStepping(stepped.arb, now))
            << "n=" << n << " r=" << r << " now=" << now;
        if (polls == sim::kNeverCycle) {
          ++never;
          continue;
        }
        ++found;
        ExpectSkipMatchesStepping(stepped.arb, now, polls);
        if (HasFatalFailure()) return;
      }
      stepped.counters.Finalize(kCycles);
      sleeping.counters.Finalize(kCycles);
      const std::string where = "n=" + std::to_string(n) +
                                " r=" + std::to_string(r);
      EXPECT_EQ(sleeping.counters.polls, stepped.counters.polls) << where;
      EXPECT_EQ(sleeping.counters.hits, stepped.counters.hits) << where;
      EXPECT_EQ(sleeping.counters.stalls, stepped.counters.stalls) << where;
      EXPECT_EQ(sleeping.counters.bursts, stepped.counters.bursts) << where;
    }
  }
  // Answers, real skips, slept stalls and both never-polled answers were
  // all exercised.
  EXPECT_GT(found, 1000u);
  EXPECT_GT(never, 1000u);
  EXPECT_GT(skipped_polls, 10000u);
  EXPECT_GT(slept_retries, 1000u);
  EXPECT_GT(unpolled_data, 1000u);
  EXPECT_GT(unpolled_empty, 500u);
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
  obs::CkCounters counters;
  arb.set_counters(&counters);
  arb.AddInput(a);
  arb.AddInput(b);
  arb.AddInput(c);
  EXPECT_EQ(arb.PollsUntilData(10), sim::kNeverCycle);
  c.Push(DataPacket(2), 10);
  c.Commit(10);
  arb.MarkHasData(2);  // the push notification
  EXPECT_EQ(arb.PollsUntilInput(2, 10), 0u);
  EXPECT_EQ(arb.PollsUntilData(10), 0u);
  // Once polled the pointer moves with time: input 0 examined at 11, so
  // input 1 at 12 and input 2 at 13.
  EXPECT_EQ(arb.Select(11), nullptr);
  EXPECT_EQ(arb.PollsUntilData(11), 1u);
  EXPECT_EQ(arb.PollsUntilInput(2, 11), 1u);
  EXPECT_EQ(arb.PollsUntilInput(0, 11), 2u);
  // Cycles 12-14 pass without Select (the CK drained another queue); the
  // next Select replays them, so the pointer examines input 1 at 15 and
  // input 2 at 16.
  EXPECT_EQ(arb.PollsUntilData(14), 1u);
  EXPECT_EQ(arb.Select(15), nullptr);
  EXPECT_EQ(arb.Select(16), &c);
  // The packet stalls on a full output. The pointer stays on the latched
  // input: a push elsewhere is not examined before the stall ends, and the
  // latched input is due at once.
  arb.Stalled(16);
  a.Push(DataPacket(0), 17);
  a.Commit(17);
  arb.MarkHasData(0);
  EXPECT_EQ(arb.PollsUntilInput(0, 17), sim::kNeverCycle);
  EXPECT_EQ(arb.PollsUntilData(17), 0u);
  // The CK slept through cycles 17-20; Select at 21 replays them as
  // retries of the latched packet, each a hit and a stall.
  EXPECT_EQ(arb.Select(21), &c);
  EXPECT_EQ(counters.stalls, 5u);  // cycle 16, then 17-20
  EXPECT_EQ(counters.hits, 6u);    // cycles 16-21
  (void)c.Pop(21);
  arb.Serviced(21);
  c.Commit(21);
  // Input 2 is empty again and R = 1 moved the pointer on: input 0 at 22.
  EXPECT_EQ(arb.PollsUntilData(21), 0u);
  EXPECT_EQ(arb.Select(22), &a);
  counters.Finalize(23);
  EXPECT_EQ(counters.polls, 23u);  // the watermark starts at cycle 0
  EXPECT_EQ(counters.bursts, 1u);
}

}  // namespace
}  // namespace smi::transport
