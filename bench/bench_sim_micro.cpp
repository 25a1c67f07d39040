/// \file bench_sim_micro.cpp
/// Wall-clock microbenchmarks (google-benchmark) of the simulation
/// substrate itself: FIFO throughput, engine cycle rate with a realistic
/// fabric, route generation, and packet header codec. These track the
/// simulator's own performance, which bounds how large the paper
/// experiments can be driven.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "experiments.h"
#include "net/routing.h"

namespace {

using namespace smi;

void BM_FifoPushPop(benchmark::State& state) {
  sim::Fifo<int> fifo("bench", 64);
  sim::Cycle now = 0;
  for (auto _ : state) {
    if (fifo.CanPush(now)) fifo.Push(1, now);
    if (fifo.CanPop(now)) benchmark::DoNotOptimize(fifo.Pop(now));
    fifo.Commit(now);
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_FifoPushPop);

void BM_HeaderCodec(benchmark::State& state) {
  std::uint32_t wire = 0;
  for (auto _ : state) {
    net::Header h;
    h.src = static_cast<std::uint8_t>(wire & 0xff);
    h.dst = 3;
    h.port = 7;
    h.count = 5;
    wire = h.Encode();
    benchmark::DoNotOptimize(net::Header::Decode(wire));
  }
}
BENCHMARK(BM_HeaderCodec);

void BM_EngineCyclesPerSecond(benchmark::State& state) {
  // Stream packets across a 2-rank fabric and report simulated cycles per
  // wall second — the key throughput figure of the whole simulator.
  const net::Topology topo = net::Topology::Bus(2);
  std::uint64_t total_cycles = 0;
  for (auto _ : state) {
    const core::RunResult r =
        bench::Stream(topo, {{0, 1}}, bench::PacketsFor(64 * 1024), {}).run;
    total_cycles += r.cycles;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCyclesPerSecond)->Unit(benchmark::kMillisecond);

// An idle-heavy stencil-like pattern on the paper's 8-rank torus: each rank
// "computes" for ~1500 cycles (WaitCycles), then exchanges one small message
// with its neighbour, repeated for a fixed number of timesteps. Nearly every
// simulated cycle is idle, which is exactly what the event-driven scheduler
// exploits — the synchronous scheduler still walks all ~800 FIFOs and 64
// components on each of them. One row per scheduler: Arg(0) = synchronous,
// Arg(1) = event-driven, Arg(2) = parallel (worker threads = hardware
// concurrency, capped at the rank count).
sim::Kernel IdleStencilRank(core::Context& ctx, int steps, int compute_cycles,
                            std::uint64_t& sink) {
  const int n = ctx.world().size();
  const int right = (ctx.rank() + 1) % n;
  for (int t = 0; t < steps; ++t) {
    co_await sim::WaitCycles{static_cast<sim::Cycle>(compute_cycles)};
    core::SendChannel chs = ctx.OpenSendChannel(
        4, core::DataType::kInt, right, /*port=*/0, ctx.world());
    core::RecvChannel chr = ctx.OpenRecvChannel(
        4, core::DataType::kInt, (ctx.rank() + n - 1) % n, /*port=*/0,
        ctx.world());
    for (int i = 0; i < 4; ++i) {
      co_await chs.Push<std::int32_t>(t * 4 + i);
    }
    for (int i = 0; i < 4; ++i) {
      sink += static_cast<std::uint64_t>(co_await chr.Pop<std::int32_t>());
    }
  }
}

void BM_IdleHeavyStencil(benchmark::State& state) {
  const sim::SchedulerKind kind =
      state.range(0) == 0   ? sim::SchedulerKind::kSynchronous
      : state.range(0) == 1 ? sim::SchedulerKind::kEventDriven
                            : sim::SchedulerKind::kParallel;
  const net::Topology topo = net::Topology::Torus2D(2, 4);
  std::uint64_t total_cycles = 0;
  for (auto _ : state) {
    core::ClusterConfig config;
    config.engine.scheduler = kind;
    if (kind == sim::SchedulerKind::kParallel) {
      config.engine.threads = 0;  // hardware concurrency, capped at 8 ranks
    }
    core::Cluster cluster(topo, bench::P2pSpec(), config);
    // One sink per rank: under kParallel the ranks' kernels run on
    // different worker threads.
    std::vector<std::uint64_t> sinks(
        static_cast<std::size_t>(topo.num_ranks()));
    for (int r = 0; r < topo.num_ranks(); ++r) {
      cluster.AddKernel(
          r,
          IdleStencilRank(cluster.context(r), /*steps=*/20,
                          /*compute_cycles=*/1500,
                          sinks[static_cast<std::size_t>(r)]),
          "stencil");
    }
    const core::RunResult result = cluster.Run();
    total_cycles += result.cycles;
    benchmark::DoNotOptimize(sinks.data());
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IdleHeavyStencil)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("scheduler")
    ->Unit(benchmark::kMillisecond);

// Bisection streams on a small oversubscribed fat-tree (16 hosts, 4 leaves,
// 2 spines): each host of the first half streams to the host half the
// fabric away, so the many-input switch CKs arbitrate under congestion and
// mostly poll empty connections. One row per scheduler, numbered as for
// IdleHeavyStencil.
void BM_SwitchBisection(benchmark::State& state) {
  const sim::SchedulerKind kind =
      state.range(0) == 0   ? sim::SchedulerKind::kSynchronous
      : state.range(0) == 1 ? sim::SchedulerKind::kEventDriven
                            : sim::SchedulerKind::kParallel;
  const net::Topology topo = net::Topology::FatTree(4, 4, 2);
  const int hosts = topo.num_compute_ranks();
  std::vector<std::pair<int, int>> pairs;
  for (int h = 0; h < hosts / 2; ++h) pairs.emplace_back(h, h + hosts / 2);
  core::ClusterConfig config;
  config.engine.scheduler = kind;
  if (kind == sim::SchedulerKind::kParallel) config.engine.threads = 0;
  std::uint64_t total_cycles = 0;
  for (auto _ : state) {
    const core::RunResult r =
        bench::Stream(topo, pairs, bench::PacketsFor(4 * 1024), config).run;
    total_cycles += r.cycles;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchBisection)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("scheduler")
    ->Unit(benchmark::kMillisecond);

// Slow consumers on the same fat-tree: hosts 0-7 stream to hosts 8-15,
// whose receivers pop only every fourth cycle. The endpoint FIFOs fill and
// the backpressure reaches back through the switches, so most CK cycles are
// stalled retries of a packet whose output is full — under the event-driven
// schedulers those CKs sleep until the output has room. One row per
// scheduler, numbered as for IdleHeavyStencil.
sim::Kernel StreamTo(core::Context& ctx, int n, int peer) {
  core::SendChannel ch = ctx.OpenSendChannel(n, core::DataType::kInt, peer,
                                             /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) co_await ch.Push<std::int32_t>(i);
}

sim::Kernel SlowConsumer(core::Context& ctx, int n, int peer,
                         std::uint64_t& sink) {
  core::RecvChannel ch = ctx.OpenRecvChannel(n, core::DataType::kInt, peer,
                                             /*port=*/0, ctx.world());
  for (int i = 0; i < n; ++i) {
    sink += static_cast<std::uint64_t>(co_await ch.Pop<std::int32_t>());
    co_await sim::WaitCycles{3};
  }
}

void BM_SlowConsumer(benchmark::State& state) {
  const sim::SchedulerKind kind =
      state.range(0) == 0   ? sim::SchedulerKind::kSynchronous
      : state.range(0) == 1 ? sim::SchedulerKind::kEventDriven
                            : sim::SchedulerKind::kParallel;
  const net::Topology topo = net::Topology::FatTree(4, 4, 2);
  const int half = topo.num_compute_ranks() / 2;
  std::uint64_t total_cycles = 0;
  for (auto _ : state) {
    core::ClusterConfig config;
    config.engine.scheduler = kind;
    if (kind == sim::SchedulerKind::kParallel) config.engine.threads = 0;
    core::Cluster cluster(topo, bench::P2pSpec(), config);
    std::vector<std::uint64_t> sinks(static_cast<std::size_t>(half));
    for (int h = 0; h < half; ++h) {
      cluster.AddKernel(h, StreamTo(cluster.context(h), 700, h + half), "s");
      cluster.AddKernel(h + half,
                        SlowConsumer(cluster.context(h + half), 700, h,
                                     sinks[static_cast<std::size_t>(h)]),
                        "r");
    }
    total_cycles += cluster.Run().cycles;
    benchmark::DoNotOptimize(sinks.data());
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(total_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SlowConsumer)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("scheduler")
    ->Unit(benchmark::kMillisecond);

void BM_RouteGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const net::Topology topo =
      net::Topology::Torus2D(2, n / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::ComputeRoutes(topo, net::RoutingScheme::kAuto));
  }
}
BENCHMARK(BM_RouteGeneration)->Arg(8)->Arg(16)->Arg(32);

// The CDG check on a 4x4 torus with up*/down* routes (hosts:16) and on
// the 256-host fat-tree with minimal-adaptive routes (hosts:256).
void BM_DeadlockCheck(benchmark::State& state) {
  const bool fat_tree = state.range(0) == 256;
  const net::Topology topo = fat_tree ? net::Topology::FatTree(8, 32, 8)
                                      : net::Topology::Torus2D(4, 4);
  const net::RoutingTable routes = net::ComputeRoutes(
      topo, fat_tree ? net::RoutingScheme::kMinimalAdaptive
                     : net::RoutingScheme::kUpDown,
      /*seed=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::IsDeadlockFree(topo, routes));
  }
}
BENCHMARK(BM_DeadlockCheck)->Arg(16)->Arg(256)->ArgName("hosts");

// Cluster set-up alone (routes, CDG check, fabric, contexts) on the
// 256-host fat-tree of smibench's fat_tree_256 workload.
void BM_ClusterBuild(benchmark::State& state) {
  const net::Topology topo = net::Topology::FatTree(8, 32, 8);
  core::ClusterConfig config;
  config.routing = net::RoutingScheme::kMinimalAdaptive;
  config.routing_seed = 1;
  for (auto _ : state) {
    core::Cluster cluster(topo, bench::P2pSpec(), config);
    benchmark::DoNotOptimize(&cluster);
  }
}
BENCHMARK(BM_ClusterBuild)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so this binary honours the repo-wide `--json <path>` bench
// convention: the flag is translated to google-benchmark's native JSON file
// reporter (--benchmark_out), which carries the same cycles-per-wall-second
// counters the console shows. The repo-wide `--counters` / `--trace`
// telemetry options run one dedicated instrumented 64 KiB stream (the
// google-benchmark loops themselves stay uninstrumented so the measured
// rates reflect the disabled-path cost).
int main(int argc, char** argv) {
  using namespace smi;
  std::vector<std::string> args;
  std::string json_path, counters_path, trace_path;
  const auto take = [&](const std::string& arg, const char* name,
                        std::string& out, int& i) {
    const std::string eq = std::string("--") + name + "=";
    if (arg.rfind(eq, 0) == 0) {
      out = arg.substr(eq.size());
      return true;
    }
    if (arg == std::string("--") + name && i + 1 < argc) {
      out = argv[++i];
      return true;
    }
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (take(arg, "json", json_path, i)) continue;
    if (take(arg, "counters", counters_path, i)) continue;
    if (take(arg, "trace", trace_path, i)) continue;
    args.push_back(arg);
  }
  if (!json_path.empty()) {
    if (json_path == "auto") json_path = "BENCH_sim_micro.json";
    args.push_back("--benchmark_out_format=json");
    args.push_back("--benchmark_out=" + json_path);
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!counters_path.empty() || !trace_path.empty()) {
    core::ClusterConfig config;
    config.engine.collect_counters = !counters_path.empty();
    config.engine.collect_trace = !trace_path.empty();
    const core::RunTelemetry obs =
        bench::Stream(net::Topology::Bus(2), {{0, 1}},
                      bench::PacketsFor(64 * 1024), config)
            .telemetry;
    if (!counters_path.empty()) {
      if (counters_path == "auto") counters_path = "COUNTERS_sim_micro.json";
      json::WriteFile(counters_path, obs.counters);
      std::printf("wrote %s\n", counters_path.c_str());
    }
    if (!trace_path.empty()) {
      if (trace_path == "auto") trace_path = "TRACE_sim_micro.json";
      json::WriteFile(trace_path, obs.trace);
      std::printf("wrote %s\n", trace_path.c_str());
    }
  }
  return 0;
}
