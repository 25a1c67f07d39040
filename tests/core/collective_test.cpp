#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/smi.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Kernel;

/// Listing 2 of the paper: an SPMD broadcast. The root creates data; every
/// rank consumes the broadcast stream.
Kernel BcastApp(Context& ctx, int n, int root, std::vector<float>& sink) {
  BcastChannel chan = ctx.OpenBcastChannel(n, DataType::kFloat, /*port=*/0,
                                           root, ctx.world());
  const int my_rank = ctx.rank();
  for (int i = 0; i < n; ++i) {
    float data = 0.0f;
    if (my_rank == root) {
      data = static_cast<float>(i) * 1.5f;
    }
    co_await chan.Bcast(data);
    sink.push_back(data);
  }
}

ProgramSpec BcastSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kFloat));
  return spec;
}

class BcastSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BcastSweep, AllRanksReceiveRootData) {
  const auto [ranks, count, root] = GetParam();
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  Cluster cluster(topo, BcastSpec());
  std::vector<std::vector<float>> sinks(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, BcastApp(cluster.context(r), count, root,
                                  sinks[static_cast<std::size_t>(r)]),
                      "bcast");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(sinks[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(count))
        << "rank " << r;
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(sinks[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                static_cast<float>(i) * 1.5f)
          << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BcastSweep,
    ::testing::Values(std::tuple{2, 1, 0}, std::tuple{2, 40, 1},
                      std::tuple{4, 7, 0}, std::tuple{4, 100, 3},
                      std::tuple{8, 64, 0}, std::tuple{8, 33, 5}));

TEST(Bcast, SuccessiveBroadcastsOnSamePort) {
  // Transient channels: three broadcasts in a row, alternating roots.
  const int ranks = 4;
  Cluster cluster(Topology::Bus(ranks), BcastSpec());
  std::vector<std::vector<float>> sinks(ranks);
  auto app = [](Context& ctx, std::vector<float>& sink) -> Kernel {
    for (int round = 0; round < 3; ++round) {
      const int root = round % 2;
      BcastChannel chan =
          ctx.OpenBcastChannel(10, DataType::kFloat, 0, root, ctx.world());
      for (int i = 0; i < 10; ++i) {
        float v = ctx.rank() == root
                      ? static_cast<float>(round * 100 + i)
                      : -1.0f;
        co_await chan.Bcast(v);
        sink.push_back(v);
      }
    }
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r),
                             sinks[static_cast<std::size_t>(r)]),
                      "bcast");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(sinks[static_cast<std::size_t>(r)].size(), 30u);
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(
            sinks[static_cast<std::size_t>(r)]
                 [static_cast<std::size_t>(round * 10 + i)],
            static_cast<float>(round * 100 + i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reduce
// ---------------------------------------------------------------------------

Kernel ReduceApp(Context& ctx, int n, int root, ReduceOp op, int credits,
                 std::vector<float>& results) {
  ReduceChannel chan = ctx.OpenReduceChannel(n, DataType::kFloat, op,
                                             /*port=*/1, root, ctx.world(),
                                             credits);
  for (int i = 0; i < n; ++i) {
    // Rank-dependent contribution with a known reduction.
    const float snd =
        static_cast<float>(i) + static_cast<float>(ctx.rank() * 1000);
    float rcv = -1.0f;
    co_await chan.Reduce(snd, rcv);
    if (ctx.rank() == ctx.world().GlobalRank(root)) results.push_back(rcv);
  }
}

ProgramSpec ReduceSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(1, DataType::kFloat));
  return spec;
}

class ReduceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ReduceSweep, SumMatchesReference) {
  const auto [ranks, count, root, credits] = GetParam();
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  Cluster cluster(topo, ReduceSpec());
  std::vector<float> results;
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, ReduceApp(cluster.context(r), count, root,
                                   ReduceOp::kAdd, credits, results),
                      "reduce");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), static_cast<std::size_t>(count));
  // sum over ranks of (i + 1000*rank) = ranks*i + 1000*(0+..+ranks-1)
  const float base = 1000.0f * static_cast<float>(ranks * (ranks - 1) / 2);
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)],
              static_cast<float>(ranks * i) + base)
        << "elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReduceSweep,
    ::testing::Values(std::tuple{2, 1, 0, 64}, std::tuple{2, 50, 1, 8},
                      std::tuple{4, 100, 0, 16}, std::tuple{4, 33, 2, 1},
                      std::tuple{8, 200, 0, 64}, std::tuple{8, 65, 7, 4}));

TEST(Reduce, MaxAndMin) {
  const int ranks = 4;
  for (const ReduceOp op : {ReduceOp::kMax, ReduceOp::kMin}) {
    Cluster cluster(Topology::Bus(ranks), ReduceSpec());
    std::vector<float> results;
    for (int r = 0; r < ranks; ++r) {
      cluster.AddKernel(r, ReduceApp(cluster.context(r), 20, 0, op, 16,
                                     results),
                        "reduce");
    }
    cluster.Run();
    ASSERT_EQ(results.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      const float expected =
          op == ReduceOp::kMax
              ? static_cast<float>(i + 3000)   // rank 3 contributes max
              : static_cast<float>(i);         // rank 0 contributes min
      EXPECT_EQ(results[static_cast<std::size_t>(i)], expected);
    }
  }
}

TEST(Reduce, IntegerSum) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(1, DataType::kInt));
  Cluster cluster(Topology::Bus(3), spec);
  std::vector<std::int32_t> results;
  auto app = [](Context& ctx, std::vector<std::int32_t>& res) -> Kernel {
    ReduceChannel chan = ctx.OpenReduceChannel(
        15, DataType::kInt, ReduceOp::kAdd, 1, /*root=*/2, ctx.world(), 4);
    for (int i = 0; i < 15; ++i) {
      std::int32_t rcv = 0;
      co_await chan.Reduce<std::int32_t>(i * (ctx.rank() + 1), rcv);
      if (ctx.rank() == 2) res.push_back(rcv);
    }
  };
  for (int r = 0; r < 3; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), results), "reduce");
  }
  cluster.Run();
  ASSERT_EQ(results.size(), 15u);
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 6);  // (1+2+3)*i
  }
}

// ---------------------------------------------------------------------------
// Scatter / Gather
// ---------------------------------------------------------------------------

Kernel ScatterApp(Context& ctx, int count, int root,
                  std::vector<std::int32_t>& sink) {
  ScatterChannel chan =
      ctx.OpenScatterChannel(count, DataType::kInt, 2, root, ctx.world());
  const int n = ctx.world_size();
  if (ctx.rank() == ctx.world().GlobalRank(root)) {
    for (int i = 0; i < count * n; ++i) {
      const std::int32_t snd = i * 10;
      std::int32_t rcv = -1;
      const bool got = co_await chan.Scatter<std::int32_t>(&snd, rcv);
      if (got) sink.push_back(rcv);
    }
  } else {
    for (int i = 0; i < count; ++i) {
      std::int32_t rcv = -1;
      co_await chan.Scatter<std::int32_t>(nullptr, rcv);
      sink.push_back(rcv);
    }
  }
}

ProgramSpec ScatterSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Scatter(2, DataType::kInt));
  return spec;
}

class ScatterSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScatterSweep, EachRankGetsItsSegment) {
  const auto [ranks, count, root] = GetParam();
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  Cluster cluster(topo, ScatterSpec());
  std::vector<std::vector<std::int32_t>> sinks(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, ScatterApp(cluster.context(r), count, root,
                                    sinks[static_cast<std::size_t>(r)]),
                      "scatter");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    ASSERT_EQ(sinks[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(count))
        << "rank " << r;
    for (int i = 0; i < count; ++i) {
      // Rank r (comm order) receives elements [r*count, (r+1)*count) * 10.
      EXPECT_EQ(sinks[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                (r * count + i) * 10)
          << "rank " << r << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScatterSweep,
    ::testing::Values(std::tuple{2, 5, 0}, std::tuple{4, 20, 0},
                      std::tuple{4, 9, 3}, std::tuple{8, 16, 0},
                      std::tuple{8, 7, 6}));

Kernel GatherApp(Context& ctx, int count, int root,
                 std::vector<std::int32_t>& sink) {
  GatherChannel chan =
      ctx.OpenGatherChannel(count, DataType::kInt, 3, root, ctx.world());
  const int n = ctx.world_size();
  if (ctx.rank() == ctx.world().GlobalRank(root)) {
    int own = 0;
    for (int i = 0; i < count * n; ++i) {
      // The root's own contribution is consumed during its window; supply
      // the next own element each call (ignored outside the window).
      const std::int32_t snd = (ctx.rank() * count + own) * 7;
      std::int32_t rcv = -1;
      const bool got = co_await chan.Gather<std::int32_t>(snd, &rcv);
      if (i / count == chan.root_comm_rank() && own < count) ++own;
      EXPECT_TRUE(got);
      sink.push_back(rcv);
    }
  } else {
    const int me = ctx.world().CommRank(ctx.rank());
    for (int i = 0; i < count; ++i) {
      co_await chan.Gather<std::int32_t>((me * count + i) * 7, nullptr);
    }
  }
}

ProgramSpec GatherSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Gather(3, DataType::kInt));
  return spec;
}

class GatherSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GatherSweep, RootReceivesAllSegmentsInOrder) {
  const auto [ranks, count, root] = GetParam();
  const Topology topo =
      ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks);
  Cluster cluster(topo, GatherSpec());
  std::vector<std::vector<std::int32_t>> sinks(
      static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, GatherApp(cluster.context(r), count, root,
                                   sinks[static_cast<std::size_t>(r)]),
                      "gather");
  }
  cluster.Run();
  const std::vector<std::int32_t>& got =
      sinks[static_cast<std::size_t>(root)];
  ASSERT_EQ(got.size(), static_cast<std::size_t>(count * ranks));
  for (int i = 0; i < count * ranks; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i * 7) << "elem " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GatherSweep,
    ::testing::Values(std::tuple{2, 5, 0}, std::tuple{4, 12, 0},
                      std::tuple{4, 8, 1}, std::tuple{8, 10, 0},
                      std::tuple{8, 9, 4}));

// ---------------------------------------------------------------------------
// Multiple concurrent collectives (§3.2: "SMI allows multiple collective
// communications of the same type to execute in parallel, provided that
// they use separate ports").
// ---------------------------------------------------------------------------

TEST(Collectives, TwoBcastsOnSeparatePortsRunConcurrently) {
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kFloat));
  spec.Add(OpSpec::Bcast(1, DataType::kFloat));
  const int ranks = 4;
  Cluster cluster(Topology::Bus(ranks), spec);
  std::vector<std::vector<float>> sinks_a(ranks), sinks_b(ranks);
  auto app = [](Context& ctx, int port, int root,
                std::vector<float>& sink) -> Kernel {
    BcastChannel chan =
        ctx.OpenBcastChannel(30, DataType::kFloat, port, root, ctx.world());
    for (int i = 0; i < 30; ++i) {
      float v = ctx.rank() == root ? static_cast<float>(port * 1000 + i)
                                   : -1.0f;
      co_await chan.Bcast(v);
      sink.push_back(v);
    }
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), 0, 0,
                             sinks_a[static_cast<std::size_t>(r)]),
                      "bcast0");
    cluster.AddKernel(r, app(cluster.context(r), 1, 2,
                             sinks_b[static_cast<std::size_t>(r)]),
                      "bcast1");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(sinks_a[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(i)],
                static_cast<float>(i));
      EXPECT_EQ(sinks_b[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(i)],
                static_cast<float>(1000 + i));
    }
  }
}

TEST(Collectives, SubCommunicatorBcast) {
  // Broadcast within a 3-member sub-communicator of a 6-rank bus; outsiders
  // run an unrelated p2p exchange.
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kFloat));
  const int ranks = 6;
  Cluster cluster(Topology::Bus(ranks), spec);
  const Communicator sub({1, 3, 5});
  std::vector<std::vector<float>> sinks(ranks);
  auto app = [&sub](Context& ctx, std::vector<float>& sink) -> Kernel {
    BcastChannel chan =
        ctx.OpenBcastChannel(12, DataType::kFloat, 0, /*root=*/1, sub);
    for (int i = 0; i < 12; ++i) {
      float v = ctx.rank() == sub.GlobalRank(1) ? static_cast<float>(i * 2)
                                                : -1.0f;
      co_await chan.Bcast(v);
      sink.push_back(v);
    }
  };
  for (const int r : sub.global_ranks()) {
    cluster.AddKernel(r, app(cluster.context(r),
                             sinks[static_cast<std::size_t>(r)]),
                      "sub-bcast");
  }
  cluster.Run();
  for (const int r : sub.global_ranks()) {
    ASSERT_EQ(sinks[static_cast<std::size_t>(r)].size(), 12u);
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(sinks[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                static_cast<float>(i * 2));
    }
  }
}

// ---------------------------------------------------------------------------
// Misuse of a collective call is rejected at the call, naming the collective
// ---------------------------------------------------------------------------

ProgramSpec AllKindsSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Bcast(0, DataType::kInt));
  spec.Add(OpSpec::Reduce(1, DataType::kInt));
  spec.Add(OpSpec::Allreduce(2, DataType::kInt));
  spec.Add(OpSpec::Scatter(3, DataType::kInt));
  spec.Add(OpSpec::Gather(4, DataType::kInt));
  return spec;
}

/// A channel of `kind` on AllKindsSpec's port for it, seen through the base
/// every collective channel shares.
CollChannelBase OpenKind(Context& ctx, CollKind kind, int count, int root) {
  switch (kind) {
    case CollKind::kBcast:
      return ctx.OpenBcastChannel(count, DataType::kInt, 0, root, ctx.world());
    case CollKind::kReduce:
      return ctx.OpenReduceChannel(count, DataType::kInt, ReduceOp::kAdd, 1,
                                   root, ctx.world());
    case CollKind::kAllreduce:
      return ctx.OpenAllreduceChannel(count, DataType::kInt, ReduceOp::kAdd,
                                      2, ctx.world());
    case CollKind::kScatter:
      return ctx.OpenScatterChannel(count, DataType::kInt, 3, root,
                                    ctx.world());
    case CollKind::kGather:
      return ctx.OpenGatherChannel(count, DataType::kInt, 4, root,
                                   ctx.world());
  }
  throw ConfigError("unknown collective kind");
}

/// Runs `ranks` ranks that each make their declared number of calls of a
/// 5-element collective rooted at communicator rank 1, plus `extra` more at
/// global rank `extra_rank`; returns the error Run() throws ("" if none).
std::string RunCalls(CollKind kind, int extra_rank, int extra) {
  const int ranks = 4;
  Cluster cluster(Topology::Bus(ranks), AllKindsSpec());
  auto app = [](Context& ctx, CollKind k, int more) -> Kernel {
    CollChannelBase chan = OpenKind(ctx, k, 5, /*root=*/1);
    const int calls = chan.total_calls() + more;
    for (int i = 0; i < calls; ++i) {
      const std::int32_t snd = i;
      std::int32_t rcv = 0;
      co_await chan.Call<std::int32_t>(&snd, &rcv);
    }
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), kind,
                             r == extra_rank ? extra : 0),
                      "app");
  }
  try {
    cluster.Run();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

class CollectiveCallCount : public ::testing::TestWithParam<CollKind> {};

TEST_P(CollectiveCallCount, CallBeyondTheDeclaredCountThrows) {
  const CollKind kind = GetParam();
  const std::string name = std::string("SMI_") + CollKindName(kind);
  EXPECT_EQ(RunCalls(kind, /*extra_rank=*/0, /*extra=*/0), "");
  // A non-root declares 5 calls; a Scatter/Gather root streams 5 per rank.
  EXPECT_EQ(RunCalls(kind, 0, 1),
            name + " beyond the declared count (5 calls)");
  const bool all_segments =
      kind == CollKind::kScatter || kind == CollKind::kGather;
  EXPECT_EQ(RunCalls(kind, 1, 1),
            name + " beyond the declared count (" +
                (all_segments ? "20" : "5") + " calls)");
}

INSTANTIATE_TEST_SUITE_P(Kinds, CollectiveCallCount,
                         ::testing::Values(CollKind::kBcast, CollKind::kReduce,
                                           CollKind::kAllreduce,
                                           CollKind::kScatter,
                                           CollKind::kGather),
                         [](const auto& info) {
                           return std::string(CollKindName(info.param));
                         });

TEST(Scatter, NullSendElementAtTheRootThrows) {
  Cluster cluster(Topology::Bus(2), ScatterSpec());
  auto app = [](Context& ctx) -> Kernel {
    ScatterChannel chan =
        ctx.OpenScatterChannel(3, DataType::kInt, 2, /*root=*/0, ctx.world());
    std::int32_t rcv = 0;
    co_await chan.Scatter<std::int32_t>(nullptr, rcv);
  };
  cluster.AddKernel(0, app(cluster.context(0)), "root");
  try {
    cluster.Run();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "SMI_Scatter (root, call 1/6, sending): null send element");
  }
}

TEST(Gather, NullReceiveElementAtTheRootThrows) {
  Cluster cluster(Topology::Bus(2), GatherSpec());
  auto app = [](Context& ctx) -> Kernel {
    GatherChannel chan =
        ctx.OpenGatherChannel(3, DataType::kInt, 3, /*root=*/1, ctx.world());
    co_await chan.Gather<std::int32_t>(7, nullptr);
  };
  cluster.AddKernel(1, app(cluster.context(1)), "root");
  try {
    cluster.Run();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "SMI_Gather (root, call 1/6, receiving): null receive element");
  }
}

/// The deadlock report of a 4-rank Reduce in which rank 2 contributes 2 of
/// 5 elements and stops; "" if the run does not deadlock.
std::string StoppedReduceReport(sim::SchedulerKind scheduler,
                                unsigned threads) {
  ClusterConfig config;
  config.engine.scheduler = scheduler;
  config.engine.threads = threads;
  config.engine.watchdog_cycles = 2000;
  config.engine.max_cycles = 200000;
  Cluster cluster(Topology::Bus(4), ReduceSpec(), config);
  auto app = [](Context& ctx, int calls) -> Kernel {
    ReduceChannel chan = ctx.OpenReduceChannel(
        5, DataType::kFloat, ReduceOp::kAdd, 1, /*root=*/0, ctx.world(),
        /*credits=*/1);
    for (int i = 0; i < calls; ++i) {
      float rcv = 0.0f;
      co_await chan.Reduce(1.0f, rcv);
    }
  };
  for (int r = 0; r < 4; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), r == 2 ? 2 : 5), "app");
  }
  try {
    cluster.Run();
  } catch (const DeadlockError& e) {
    return e.what();
  }
  return "";
}

TEST(Reduce, DeadlockReportNamesTheRootsCall) {
  // With one-element credit tiles rank 2's leaf sends each element as it
  // comes, so the root gets results 0 and 1, then waits forever in its
  // third call, while its support kernel polls for rank 2's third element.
  const std::string sync =
      StoppedReduceReport(sim::SchedulerKind::kSynchronous, 1);
  EXPECT_NE(sync.find("r0.app waiting on SMI_Reduce (root, call 3/5, "
                      "awaiting result)"),
            std::string::npos)
      << sync;
  // The root's support kernel names the element it cannot retire and the
  // rank that never contributed it.
  EXPECT_NE(sync.find("r0.Reduce.sup.1 waiting on ReduceSupport: element 2 "
                      "awaiting rank 2"),
            std::string::npos)
      << sync;
  // Every scheduler reports it at the same cycle.
  const std::string head = sync.substr(0, sync.find(';'));
  EXPECT_EQ(StoppedReduceReport(sim::SchedulerKind::kEventDriven, 1), sync);
  const std::string par =
      StoppedReduceReport(sim::SchedulerKind::kParallel, 2);
  EXPECT_EQ(par.substr(0, par.find(';')), head);
  EXPECT_NE(par.find("SMI_Reduce (root, call 3/5, awaiting result)"),
            std::string::npos)
      << par;
}

TEST(Collectives, WrongPortKindThrows) {
  Cluster cluster(Topology::Bus(2), BcastSpec());
  EXPECT_THROW(cluster.context(0).OpenReduceChannel(
                   4, DataType::kFloat, ReduceOp::kAdd, 0, 0,
                   cluster.context(0).world()),
               ConfigError);
  EXPECT_THROW(cluster.context(0).OpenBcastChannel(
                   4, DataType::kInt, 0, 0, cluster.context(0).world()),
               ConfigError);  // datatype mismatch with the built fabric
}

}  // namespace
}  // namespace smi::core
