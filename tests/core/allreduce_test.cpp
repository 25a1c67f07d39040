/// \file allreduce_test.cpp
/// AllreduceChannel + the Allreduce support kernel: the reduce-then-broadcast
/// composition on one collective port. Every rank both contributes and
/// receives, so unlike Reduce the result is checked on all ranks.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/smi.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Kernel;
using sim::SchedulerKind;

ProgramSpec AllreduceSpec(CollAlgo algo) {
  ProgramSpec spec;
  spec.Add(OpSpec::Allreduce(0, DataType::kFloat, algo));
  return spec;
}

Topology TopologyFor(int ranks) {
  return ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
}

Kernel App(Context& ctx, int n, int credits, std::vector<float>& results) {
  AllreduceChannel chan =
      ctx.OpenAllreduceChannel(n, DataType::kFloat, ReduceOp::kAdd, 0,
                               ctx.world(), credits);
  for (int i = 0; i < n; ++i) {
    const float snd =
        static_cast<float>(i) + static_cast<float>(ctx.rank() * 100);
    float rcv = -1.0f;
    co_await chan.Allreduce(snd, rcv);
    results.push_back(rcv);
  }
}

/// Expected element i of the kAdd fold over all ranks' contributions.
float Expected(int ranks, int i) {
  return static_cast<float>(ranks * i) +
         100.0f * static_cast<float>(ranks * (ranks - 1) / 2);
}

class AllreduceSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, CollAlgo>> {};

TEST_P(AllreduceSweep, EveryRankGetsTheFullSum) {
  const auto [ranks, count, credits, algo] = GetParam();
  Cluster cluster(TopologyFor(ranks), AllreduceSpec(algo));
  std::vector<std::vector<float>> results(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, App(cluster.context(r), count, credits,
                             results[static_cast<std::size_t>(r)]),
                      "allreduce");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(count))
        << "rank " << r;
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(i)],
                Expected(ranks, i))
          << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllreduceSweep,
    ::testing::Values(
        // count=1 exercises the single-element open; credits=1 the smallest
        // window (every tile individually granted); ranks=3 a non-power-of-2
        // tree. (No 1-rank case: the smallest topology is a 2-rank bus.)
        std::tuple{2, 1, 4, CollAlgo::kLinear},
        std::tuple{2, 1, 4, CollAlgo::kTree},
        std::tuple{2, 40, 1, CollAlgo::kLinear},
        std::tuple{3, 33, 8, CollAlgo::kTree},
        std::tuple{4, 100, 16, CollAlgo::kLinear},
        std::tuple{4, 65, 1, CollAlgo::kTree},
        std::tuple{8, 120, 32, CollAlgo::kTree},
        std::tuple{8, 50, 4, CollAlgo::kLinear}));

TEST(Allreduce, BackToBackOpensOnSamePort) {
  // Credits granted for open k+1 can arrive while a slow rank still drains
  // open k's down phase; the banked-ledger path must keep the opens
  // isolated.
  const int ranks = 4;
  Cluster cluster(Topology::Bus(ranks), AllreduceSpec(CollAlgo::kTree));
  std::vector<std::vector<float>> results(static_cast<std::size_t>(ranks));
  auto app = [](Context& ctx, std::vector<float>& sink) -> Kernel {
    for (int round = 0; round < 3; ++round) {
      AllreduceChannel chan = ctx.OpenAllreduceChannel(
          10, DataType::kFloat, ReduceOp::kAdd, 0, ctx.world(), 2);
      for (int i = 0; i < 10; ++i) {
        float rcv = -1.0f;
        co_await chan.Allreduce(
            static_cast<float>(round * 10 + i + ctx.rank()), rcv);
        sink.push_back(rcv);
      }
    }
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r),
                             results[static_cast<std::size_t>(r)]),
                      "app");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(results[static_cast<std::size_t>(r)].size(), 30u);
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 10; ++i) {
        // sum over ranks of (round*10 + i + rank)
        const float expect =
            static_cast<float>(ranks * (round * 10 + i) +
                               ranks * (ranks - 1) / 2);
        EXPECT_EQ(results[static_cast<std::size_t>(r)]
                         [static_cast<std::size_t>(round * 10 + i)],
                  expect)
            << "rank " << r << " round " << round << " elem " << i;
      }
    }
  }
}

TEST(Allreduce, MaxAndMinOps) {
  const int ranks = 4;
  ProgramSpec spec;
  spec.Add(OpSpec::Allreduce(0, DataType::kInt, CollAlgo::kTree));
  Cluster cluster(Topology::Bus(ranks), spec);
  std::vector<std::vector<std::int32_t>> maxes(
      static_cast<std::size_t>(ranks));
  std::vector<std::vector<std::int32_t>> mins(
      static_cast<std::size_t>(ranks));
  auto app = [](Context& ctx, std::vector<std::int32_t>& mx,
                std::vector<std::int32_t>& mn) -> Kernel {
    {
      AllreduceChannel chan = ctx.OpenAllreduceChannel(
          4, DataType::kInt, ReduceOp::kMax, 0, ctx.world());
      for (int i = 0; i < 4; ++i) {
        std::int32_t rcv = 0;
        co_await chan.Allreduce(
            static_cast<std::int32_t>((ctx.rank() * 7 + i) % 5), rcv);
        mx.push_back(rcv);
      }
    }
    AllreduceChannel chan = ctx.OpenAllreduceChannel(
        4, DataType::kInt, ReduceOp::kMin, 0, ctx.world());
    for (int i = 0; i < 4; ++i) {
      std::int32_t rcv = 0;
      co_await chan.Allreduce(
          static_cast<std::int32_t>((ctx.rank() * 7 + i) % 5), rcv);
      mn.push_back(rcv);
    }
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r),
                             maxes[static_cast<std::size_t>(r)],
                             mins[static_cast<std::size_t>(r)]),
                      "app");
  }
  cluster.Run();
  for (int i = 0; i < 4; ++i) {
    std::int32_t mx = INT32_MIN, mn = INT32_MAX;
    for (int r = 0; r < ranks; ++r) {
      const auto v = static_cast<std::int32_t>((r * 7 + i) % 5);
      mx = std::max(mx, v);
      mn = std::min(mn, v);
    }
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(maxes[static_cast<std::size_t>(r)]
                     [static_cast<std::size_t>(i)], mx);
      EXPECT_EQ(mins[static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(i)], mn);
    }
  }
}

TEST(Allreduce, IdenticalAcrossSchedulers) {
  // The three schedulers must be bit-identical in both results and cycle
  // count; kParallel is swept over thread counts that do and do not divide
  // the rank count.
  auto run = [](SchedulerKind kind, unsigned threads,
                std::vector<std::vector<float>>& results) {
    ClusterConfig config;
    config.engine.scheduler = kind;
    config.engine.threads = threads;
    Cluster cluster(Topology::Torus2D(2, 4), AllreduceSpec(CollAlgo::kTree),
                    config);
    results.assign(8, {});
    for (int r = 0; r < 8; ++r) {
      cluster.AddKernel(r, App(cluster.context(r), 37, 4,
                               results[static_cast<std::size_t>(r)]),
                        "app");
    }
    return cluster.Run().cycles;
  };
  std::vector<std::vector<float>> sync_results;
  const sim::Cycle sync = run(SchedulerKind::kSynchronous, 1, sync_results);
  std::vector<std::vector<float>> event_results;
  EXPECT_EQ(run(SchedulerKind::kEventDriven, 1, event_results), sync);
  EXPECT_EQ(event_results, sync_results);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    std::vector<std::vector<float>> par_results;
    EXPECT_EQ(run(SchedulerKind::kParallel, threads, par_results), sync)
        << "threads=" << threads;
    EXPECT_EQ(par_results, sync_results) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace smi::core
