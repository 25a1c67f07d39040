/// \file mpi_shim_test.cpp
/// Conformance of the MPI shim against the bit-exact host references:
/// Bcast/Reduce/Allreduce results must equal baseline::Host* and
/// Scatter/Gather at a root other than 0 the rank-order segments, with
/// payloads, cycles and kernel resumes identical under every scheduler and
/// thread count; plus Send/Recv, Scatter/Gather at root 0, Barrier, the
/// port layout, and WorldSpec validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baseline/host_reference.h"
#include "mpi/mpi.h"

namespace smi::mpi {
namespace {

using core::CollAlgo;
using core::CollKind;
using core::Cluster;
using core::ClusterConfig;
using core::Context;
using core::DataType;
using core::ReduceOp;
using net::Topology;
using sim::Kernel;
using sim::SchedulerKind;

/// Deterministic rank-dependent contribution (small exact integers so the
/// float fold is order-independent).
std::vector<float> Contribution(int rank, int count) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<float>((i * 3 + rank * 17) % 128);
  }
  return v;
}

ClusterConfig WithScheduler(SchedulerKind kind, unsigned threads = 1) {
  ClusterConfig config;
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  return config;
}

// ---------------------------------------------------------------------------
// Collective conformance under every scheduler
// ---------------------------------------------------------------------------

/// The buffer a Scatter root of `ranks` ranks streams: segment r goes to
/// communicator rank r.
std::vector<float> ScatterSource(int ranks, int count) {
  return Contribution(100, count * ranks);
}

struct ConformanceResult {
  std::vector<std::vector<float>> bcast;
  std::vector<std::vector<float>> reduce;
  std::vector<std::vector<float>> allreduce;
  std::vector<std::vector<float>> scatter;
  std::vector<std::vector<float>> gather;
  sim::Cycle cycles = 0;
  std::uint64_t kernel_resumes = 0;

  bool operator==(const ConformanceResult&) const = default;
};

/// One rank exercising Bcast, Reduce, Allreduce, Scatter and Gather back to
/// back through the shim; outputs land in slot `at` of `out`.
Kernel ConformanceApp(Context& ctx, int count, const ShimConfig& shim,
                      ConformanceResult* out, std::size_t at) {
  Comm comm = MPI_Init(ctx, shim);
  const int root = 1 % comm.size();
  std::vector<float> buf(static_cast<std::size_t>(count), 0.0f);
  if (comm.rank() == root) buf = Contribution(root, count);
  co_await MPI_Bcast(buf.data(), count, root, comm);
  out->bcast[at] = buf;

  const std::vector<float> snd = Contribution(comm.rank(), count);
  std::vector<float> rcv(static_cast<std::size_t>(count), -1.0f);
  co_await MPI_Reduce(snd.data(), rcv.data(), count, ReduceOp::kAdd, root,
                      comm);
  if (comm.rank() == root) out->reduce[at] = rcv;

  std::vector<float> all(static_cast<std::size_t>(count), -1.0f);
  co_await MPI_Allreduce(snd.data(), all.data(), count, ReduceOp::kAdd,
                         comm);
  out->allreduce[at] = all;

  // Non-roots pass the source too; only the root reads it.
  const std::vector<float> source = ScatterSource(comm.size(), count);
  std::vector<float> mine(static_cast<std::size_t>(count), -1.0f);
  co_await MPI_Scatter(source.data(), mine.data(), count, root, comm);
  out->scatter[at] = mine;

  std::vector<float> gathered(static_cast<std::size_t>(count * comm.size()),
                              -1.0f);
  co_await MPI_Gather(snd.data(), gathered.data(), count, root, comm);
  if (comm.rank() == root) out->gather[at] = gathered;
}

ConformanceResult RunConformance(int ranks, int count,
                                 const ClusterConfig& config,
                                 const Selector& selector) {
  ShimConfig shim;
  shim.selector = selector;
  shim.types = {DataType::kFloat};
  Cluster cluster(ranks == 8 ? Topology::Torus2D(2, 4) : Topology::Bus(ranks),
                  WorldSpec(ranks, shim), config);
  ConformanceResult out;
  for (auto* slots :
       {&out.bcast, &out.reduce, &out.allreduce, &out.scatter, &out.gather}) {
    slots->resize(static_cast<std::size_t>(ranks));
  }
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r,
                      ConformanceApp(cluster.context(r), count, shim, &out,
                                     static_cast<std::size_t>(r)),
                      "app");
  }
  const core::RunResult run = cluster.Run();
  out.cycles = run.cycles;
  out.kernel_resumes = run.kernel_resumes;
  return out;
}

class ShimConformance
    : public ::testing::TestWithParam<std::tuple<int, CollAlgo>> {};

TEST_P(ShimConformance, MatchesHostReferencesUnderAllSchedulers) {
  const auto [ranks, algo] = GetParam();
  const int count = 23;  // not a multiple of any packet/tile size
  const int root = 1 % ranks;
  const Selector force({SelectorRule{std::nullopt, 0, 0, 0, 0, algo}});

  const ConformanceResult sync =
      RunConformance(ranks, count, WithScheduler(SchedulerKind::kSynchronous),
                     force);

  // Host references.
  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < ranks; ++r) contribs.push_back(Contribution(r, count));
  const std::vector<float> bcast_expect =
      baseline::HostBcast(contribs[static_cast<std::size_t>(root)]);
  const std::vector<float> reduce_expect =
      baseline::HostReduce(contribs, ReduceOp::kAdd);
  const std::vector<float> allreduce_expect =
      baseline::HostAllreduce(contribs, ReduceOp::kAdd);
  const std::vector<float> source = ScatterSource(ranks, count);
  std::vector<float> gather_expect;
  for (const std::vector<float>& c : contribs) {
    gather_expect.insert(gather_expect.end(), c.begin(), c.end());
  }
  for (int r = 0; r < ranks; ++r) {
    const auto at = static_cast<std::size_t>(r);
    EXPECT_EQ(sync.bcast[at], bcast_expect) << "rank " << r;
    EXPECT_EQ(sync.allreduce[at], allreduce_expect) << "rank " << r;
    EXPECT_EQ(sync.scatter[at],
              std::vector<float>(source.begin() + r * count,
                                 source.begin() + (r + 1) * count))
        << "rank " << r;
    if (r == root) {
      EXPECT_EQ(sync.reduce[at], reduce_expect);
      EXPECT_EQ(sync.gather[at], gather_expect);
    } else {
      EXPECT_TRUE(sync.reduce[at].empty());
      EXPECT_TRUE(sync.gather[at].empty());
    }
  }

  // Bit-identical across schedulers and thread counts, cycles and kernel
  // resumes included.
  EXPECT_EQ(RunConformance(ranks, count,
                           WithScheduler(SchedulerKind::kEventDriven), force),
            sync);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(RunConformance(
                  ranks, count,
                  WithScheduler(SchedulerKind::kParallel, threads), force),
              sync)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShimConformance,
    ::testing::Values(std::tuple{2, CollAlgo::kLinear},
                      std::tuple{4, CollAlgo::kLinear},
                      std::tuple{4, CollAlgo::kTree},
                      std::tuple{8, CollAlgo::kTree}));

// ---------------------------------------------------------------------------
// Point-to-point, Scatter/Gather, Barrier
// ---------------------------------------------------------------------------

TEST(MpiShim, SendRecvRoundTrip) {
  const int ranks = 4;
  ShimConfig shim;
  shim.types = {DataType::kInt};
  Cluster cluster(Topology::Bus(ranks), WorldSpec(ranks, shim));
  std::vector<std::vector<std::int32_t>> got(
      static_cast<std::size_t>(ranks));
  auto app = [](Context& ctx, const ShimConfig& cfg,
                std::vector<std::int32_t>& sink) -> Kernel {
    Comm comm = MPI_Init(ctx, cfg);
    // Ring: send 8 ints to the right, receive from the left.
    std::vector<std::int32_t> snd(8);
    for (int i = 0; i < 8; ++i) snd[static_cast<std::size_t>(i)] =
        comm.rank() * 100 + i;
    sink.assign(8, -1);
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    co_await MPI_Send(snd.data(), 8, right, comm);
    co_await MPI_Recv(sink.data(), 8, left, comm);
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), shim,
                             got[static_cast<std::size_t>(r)]),
                      "app");
  }
  cluster.Run();
  for (int r = 0; r < ranks; ++r) {
    const int left = (r + ranks - 1) % ranks;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                left * 100 + i)
          << "rank " << r << " elem " << i;
    }
  }
}

TEST(MpiShim, ScatterGatherRoundTrip) {
  const int ranks = 4;
  const int chunk = 5;
  ShimConfig shim;
  shim.types = {DataType::kInt};
  Cluster cluster(Topology::Bus(ranks), WorldSpec(ranks, shim));
  std::vector<std::int32_t> gathered;
  auto app = [](Context& ctx, const ShimConfig& cfg, int n,
                std::vector<std::int32_t>* out) -> Kernel {
    Comm comm = MPI_Init(ctx, cfg);
    const int root = 0;
    std::vector<std::int32_t> all(
        static_cast<std::size_t>(n * comm.size()));
    if (comm.rank() == root) {
      for (std::size_t i = 0; i < all.size(); ++i) {
        all[i] = static_cast<std::int32_t>(i) * 3;
      }
    }
    std::vector<std::int32_t> mine(static_cast<std::size_t>(n), -1);
    co_await MPI_Scatter(all.data(), mine.data(), n, root, comm);
    for (auto& v : mine) v += 1;  // each rank transforms its chunk
    std::vector<std::int32_t> back(
        static_cast<std::size_t>(n * comm.size()), -1);
    co_await MPI_Gather(mine.data(), back.data(), n, root, comm);
    if (comm.rank() == root && out != nullptr) *out = back;
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), shim, chunk,
                             r == 0 ? &gathered : nullptr),
                      "app");
  }
  cluster.Run();
  ASSERT_EQ(gathered.size(), static_cast<std::size_t>(ranks * chunk));
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    EXPECT_EQ(gathered[i], static_cast<std::int32_t>(i) * 3 + 1) << i;
  }
}

TEST(MpiShim, BarrierSeparatesPhases) {
  // No rank may observe the barrier complete before every rank reached it:
  // each rank records the cycle it entered and the cycle it left; the
  // minimum leave cycle must be >= the maximum enter cycle.
  const int ranks = 4;
  ShimConfig shim;
  shim.types = {DataType::kInt};
  Cluster cluster(Topology::Bus(ranks), WorldSpec(ranks, shim));
  std::vector<sim::Cycle> enter(static_cast<std::size_t>(ranks), 0);
  std::vector<sim::Cycle> leave(static_cast<std::size_t>(ranks), 0);
  auto app = [](Context& ctx, const ShimConfig& cfg, sim::Cycle* in,
                sim::Cycle* out) -> Kernel {
    Comm comm = MPI_Init(ctx, cfg);
    // Stagger arrival: rank r burns 10*r cycles first.
    for (int i = 0; i < 10 * comm.rank(); ++i) co_await sim::NextCycle{};
    *in = *ctx.now_ptr();
    co_await MPI_Barrier(comm);
    *out = *ctx.now_ptr();
  };
  for (int r = 0; r < ranks; ++r) {
    const auto at = static_cast<std::size_t>(r);
    cluster.AddKernel(r, app(cluster.context(r), shim, &enter[at],
                             &leave[at]),
                      "app");
  }
  cluster.Run();
  sim::Cycle max_enter = 0, min_leave = ~sim::Cycle{0};
  for (int r = 0; r < ranks; ++r) {
    max_enter = std::max(max_enter, enter[static_cast<std::size_t>(r)]);
    min_leave = std::min(min_leave, leave[static_cast<std::size_t>(r)]);
  }
  EXPECT_GE(min_leave, max_enter);
}

// ---------------------------------------------------------------------------
// Port layout and validation
// ---------------------------------------------------------------------------

TEST(MpiShim, CollectivePortLayout) {
  // Ports 0..n-1 are p2p; collective ports follow, one per
  // (kind, algo, type) in a fixed order. All distinct, all >= world size.
  const int n = 8;
  std::vector<int> seen;
  for (const CollKind kind :
       {CollKind::kBcast, CollKind::kReduce, CollKind::kScatter,
        CollKind::kGather, CollKind::kAllreduce}) {
    for (const CollAlgo algo : {CollAlgo::kLinear, CollAlgo::kTree}) {
      for (const DataType type :
           {DataType::kInt, DataType::kFloat, DataType::kDouble}) {
        const int port = CollectivePort(n, kind, algo, type);
        EXPECT_GE(port, n);
        EXPECT_LT(port, 256);
        seen.push_back(port);
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
      << "collective ports collide";
  // Unsupported element types are rejected rather than silently aliased.
  EXPECT_THROW(CollectivePort(n, CollKind::kBcast, CollAlgo::kLinear,
                              DataType::kChar),
               ConfigError);
}

TEST(MpiShim, WorldSpecValidation) {
  EXPECT_THROW(WorldSpec(0), ConfigError);
  // 256 ports total; world_size + 30 collective ports must fit.
  EXPECT_THROW(WorldSpec(227), ConfigError);
  const core::ProgramSpec spec = WorldSpec(4);
  EXPECT_NO_THROW(Cluster(Topology::Bus(4), spec));
}

TEST(MpiShim, DecisionLogRecordsSelectorChoices) {
  DecisionLog log;
  ShimConfig shim;
  shim.log = &log;
  shim.types = {DataType::kFloat};
  const int ranks = 8;
  Cluster cluster(Topology::Torus2D(2, 4), WorldSpec(ranks, shim));
  auto app = [](Context& ctx, const ShimConfig& cfg) -> Kernel {
    Comm comm = MPI_Init(ctx, cfg);
    // 16 floats = 64 B -> linear; 256 floats = 1 KiB -> tree (at 8 ranks
    // the default table switches at 256 B).
    std::vector<float> snd(256, 1.0f), rcv(256, 0.0f);
    co_await MPI_Allreduce(snd.data(), rcv.data(), 16, ReduceOp::kAdd, comm);
    co_await MPI_Allreduce(snd.data(), rcv.data(), 256, ReduceOp::kAdd,
                           comm);
  };
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r, app(cluster.context(r), shim), "app");
  }
  cluster.Run();
  const json::Value doc = log.ToJson();
  const json::Array& decisions = doc.at("decisions").as_array();
  ASSERT_EQ(decisions.size(), 2u);
  bool saw_linear = false, saw_tree = false;
  for (const json::Value& d : decisions) {
    EXPECT_EQ(d.at("collective").as_string(), "Allreduce");
    EXPECT_EQ(d.at("comm").as_int(), ranks);
    EXPECT_EQ(d.at("calls").as_int(), ranks);  // every rank records
    if (d.at("bytes").as_int() == 64) {
      EXPECT_EQ(d.at("algorithm").as_string(), "linear");
      saw_linear = true;
    } else {
      EXPECT_EQ(d.at("bytes").as_int(), 1024);
      EXPECT_EQ(d.at("algorithm").as_string(), "tree");
      saw_tree = true;
    }
  }
  EXPECT_TRUE(saw_linear);
  EXPECT_TRUE(saw_tree);
}

}  // namespace
}  // namespace smi::mpi
