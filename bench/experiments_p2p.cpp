/// \file experiments_p2p.cpp
/// Point-to-point and fabric experiments: latency (Table 3), injection rate
/// (Table 4), bandwidth (Fig. 9), the endpoint-FIFO-depth ablation, the
/// parallel scheduler's scaling, the scale-out bisection sweep and the
/// hybrid-fidelity relay chains.

#include <cinttypes>
#include <map>
#include <set>
#include <thread>

#include "baseline/host_model.h"
#include "experiments.h"
#include "net/routing.h"
#include "sim/fidelity.h"
#include "sim/flow_link.h"

namespace smi::bench {
namespace {

sim::Kernel PingPongKernel(core::Context& ctx, int peer, int rounds,
                           bool initiator) {
  for (int r = 0; r < rounds; ++r) {
    if (initiator) {
      core::SendChannel s =
          ctx.OpenSendChannel(1, core::DataType::kInt, peer, 0, ctx.world());
      co_await s.Push<std::int32_t>(r);
      core::RecvChannel rc =
          ctx.OpenRecvChannel(1, core::DataType::kInt, peer, 0, ctx.world());
      (void)co_await rc.Pop<std::int32_t>();
    } else {
      core::RecvChannel rc =
          ctx.OpenRecvChannel(1, core::DataType::kInt, peer, 0, ctx.world());
      const std::int32_t v = co_await rc.Pop<std::int32_t>();
      core::SendChannel s =
          ctx.OpenSendChannel(1, core::DataType::kInt, peer, 0, ctx.world());
      co_await s.Push<std::int32_t>(v);
    }
  }
}

/// `rounds` ping-pong round trips of a single-int message.
Measured PingPong(const net::Topology& topo, int src, int dst, int rounds,
                  const core::ClusterConfig& config) {
  core::Cluster cluster(topo, P2pSpec(), config);
  cluster.AddKernel(src,
                    PingPongKernel(cluster.context(src), dst, rounds, true),
                    "ping");
  cluster.AddKernel(dst,
                    PingPongKernel(cluster.context(dst), src, rounds, false),
                    "pong");
  return RunCluster(cluster);
}

}  // namespace

/// Table 3: point-to-point latency, half the round trip of a one-element
/// ping-pong at 1, 4 and 7 hops (bus cabling), against the host-based
/// MPI+OpenCL path model.
void Latency(Bench& bench) {
  const net::Topology topo = net::Topology::Bus(8);
  const sim::ClockConfig clock;
  const baseline::HostModel host;
  const int rounds = bench.Int("rounds");

  PrintTitle("Table 3 — measured latency in usecs "
             "(half round-trip of a 1-element message)");
  std::printf("%14s %10s %10s %10s\n", "MPI+OpenCL", "SMI-1", "SMI-4",
              "SMI-7");
  PerfReport report("latency");
  report.SetParameter("rounds", rounds);
  Measured m;
  double smi_us[3] = {0, 0, 0};
  const int dsts[3] = {1, 4, 7};
  for (int h = 0; h < 3; ++h) {
    m = PingPong(topo, 0, dsts[h], rounds, bench.config());
    smi_us[h] = m.run.microseconds / (2.0 * rounds);
    AddResult(report, std::to_string(dsts[h]) + "hops", m);
  }
  std::printf("%14.2f %10.3f %10.3f %10.3f\n", host.LatencyUs(4), smi_us[0],
              smi_us[1], smi_us[2]);
  std::printf("\n(paper: 36.61 / 0.801 / 2.896 / 5.103)\n");

  // Faulty series: the 1-hop ping-pong over reliable links with the
  // requested fault plan vs the lossless 1-hop latency.
  if (bench.faults()) {
    m = PingPong(topo, 0, 1, rounds, bench.FaultConfig());
    const double faulty_us = m.run.microseconds / (2.0 * rounds);
    PrintTitle("fault plan active — 1 hop over reliable links");
    std::printf("latency: %.3f usecs (lossless: %.3f, overhead %+.1f%%)\n",
                faulty_us, smi_us[0],
                100.0 * (faulty_us - smi_us[0]) / smi_us[0]);
    AddResult(report, "1hop+faults", m);
  }
  bench.Finish(report, m.telemetry);
}

/// Table 4: average injection rate in cycles per message. A sender pushes a
/// one-element message (one packet) every iteration; the fabric has 4
/// CKS/CKR pairs, so the serving CKS has five incoming connections and its
/// sequential polling yields (R+4)/R cycles per packet for a lone
/// saturating source — exactly 5 at R=1, as the paper measures.
void Injection(Bench& bench) {
  const net::Topology topo = net::Topology::Torus2D(2, 4);
  const int n = bench.Int("messages");
  PerfReport report("injection");
  report.SetParameter("messages", n);

  PrintTitle("Table 4 — average injection rate in cycles per message");
  std::printf("%10s %10s %10s %10s\n", "R = 1", "R = 4", "R = 8", "R = 16");
  Measured m;
  double rates[4];
  const int rs[4] = {1, 4, 8, 16};
  for (int i = 0; i < 4; ++i) {
    core::ClusterConfig config = bench.config();
    config.fabric.poll_r = rs[i];
    m = Stream(topo, {{0, 1}}, n, config, /*per_packet=*/1);
    rates[i] = static_cast<double>(m.run.cycles) / static_cast<double>(n);
    AddResult(report, "R=" + std::to_string(rs[i]), m);
  }
  std::printf("%10.2f %10.2f %10.2f %10.2f\n", rates[0], rates[1], rates[2],
              rates[3]);
  std::printf("\n(paper: 5 / 2.5 / 1.8 / 1.69)\n");

  // Faulty series: the R=8 run over reliable links with the requested fault
  // plan; overhead is measured against the lossless R=8 run.
  if (bench.faults()) {
    core::ClusterConfig config = bench.FaultConfig();
    config.fabric.poll_r = 8;
    m = Stream(topo, {{0, 1}}, n, config, /*per_packet=*/1);
    const double faulty_rate =
        static_cast<double>(m.run.cycles) / static_cast<double>(n);
    PrintTitle("fault plan active — R = 8 over reliable links");
    std::printf("cycles/message: %.2f (lossless: %.2f, overhead %+.1f%%)\n",
                faulty_rate, rates[2],
                100.0 * (faulty_rate - rates[2]) / rates[2]);
    AddResult(report, "R=8+faults", m);
  }
  bench.Finish(report, m.telemetry);
}

/// Figure 9: point-to-point bandwidth vs message size at 1, 4 and 7 hops
/// (bus cabling), against the calibrated host-path model. Reference lines:
/// 40 Gbit/s QSFP line rate and 35 Gbit/s payload peak. A second series
/// sweeps the CK polling parameter R: the sequential-scan arbiter sustains
/// R/(R+4) of payload peak for a single stream, so the default R=8
/// plateaus at ~23 Gbit/s while large R approaches the paper's ~32 Gbit/s.
void Bandwidth(Bench& bench) {
  constexpr int kMinKb = 1;
  constexpr int kMaxMb = 16;
  constexpr int kPollR = 8;
  const net::Topology topo = net::Topology::Bus(8);
  const sim::ClockConfig clock;
  const baseline::HostModel host;

  PerfReport report("bandwidth");
  report.SetParameter("min-kb", kMinKb);
  report.SetParameter("max-mb", kMaxMb);
  report.SetParameter("poll-r", kPollR);
  report.SetParameter("ranks", topo.num_ranks());

  PrintTitle("Figure 9 — bandwidth vs message size [Gbit/s]");
  std::printf("%12s %14s %14s %14s %14s\n", "size", "SMI-1hop", "SMI-4hops",
              "SMI-7hops", "MPI+OpenCL");
  std::printf("%12s %14s %14s %14s %14s\n", "", "", "", "",
              "(host model)");

  core::ClusterConfig config = bench.config();
  config.fabric.poll_r = kPollR;
  Measured m;
  const std::uint64_t largest = std::uint64_t{kMaxMb} << 20;
  for (std::uint64_t bytes = std::uint64_t{kMinKb} << 10; bytes <= largest;
       bytes <<= 1) {
    double bw[3] = {0, 0, 0};
    const int dsts[3] = {1, 4, 7};
    for (int h = 0; h < 3; ++h) {
      m = Stream(topo, {{0, dsts[h]}}, PacketsFor(bytes), config);
      bw[h] = clock.GigabitsPerSecond(bytes, m.run.cycles);
      AddResult(report,
                std::to_string(dsts[h]) + "hops/" + FormatBytes(bytes), m);
    }
    std::printf("%12s %14.2f %14.2f %14.2f %14.2f\n",
                FormatBytes(bytes).c_str(), bw[0], bw[1], bw[2],
                host.BandwidthGbps(bytes));
  }
  std::printf("\npeak QSFP line rate: 40.00 Gbit/s; payload peak after "
              "4B/32B headers: 35.00 Gbit/s\n");

  // Faulty series: the 1-hop stream at the largest size over reliable links
  // with the requested fault plan; overhead vs the lossless 1-hop run.
  if (bench.faults()) {
    core::ClusterConfig fault_config = bench.FaultConfig();
    fault_config.fabric.poll_r = kPollR;
    const Measured lossless =
        Stream(topo, {{0, 1}}, PacketsFor(largest), config);
    m = Stream(topo, {{0, 1}}, PacketsFor(largest), fault_config);
    const double lossless_bw =
        clock.GigabitsPerSecond(largest, lossless.run.cycles);
    const double faulty_bw = clock.GigabitsPerSecond(largest, m.run.cycles);
    PrintTitle("fault plan active — 1 hop, " + FormatBytes(largest) +
               " over reliable links");
    std::printf("bandwidth: %.2f Gbit/s (lossless: %.2f, overhead %+.1f%%)\n",
                faulty_bw, lossless_bw,
                100.0 * (lossless_bw - faulty_bw) / lossless_bw);
    AddResult(report, "1hop+faults/" + FormatBytes(largest), m);
  }

  PrintTitle("ablation — plateau bandwidth vs CK polling parameter R "
             "(1 hop, 8 MiB)");
  std::printf("%8s %14s %22s\n", "R", "Gbit/s", "fraction of 35 Gbit/s");
  for (const int r : {1, 2, 4, 8, 16, 32, 64}) {
    core::ClusterConfig rc;
    rc.fabric.poll_r = r;
    const Measured res = Stream(topo, {{0, 1}}, PacketsFor(8ull << 20), rc);
    const double gbps = clock.GigabitsPerSecond(8ull << 20, res.run.cycles);
    std::printf("%8d %14.2f %21.1f%%\n", r, gbps, 100.0 * gbps / 35.0);
    AddResult(report, "r-sweep/R=" + std::to_string(r), res);
  }
  bench.Finish(report, m.telemetry);
}

namespace {

/// Streams `total` ints and records the cycle at which the final SMI_Push
/// completed — the moment the sender is free to continue computing. §3.3:
/// "an SMI send is non-local: ... its completion may depend on the
/// receiver, if the message size is larger than k".
sim::Kernel TimedSender(core::Context& ctx, int total, const sim::Cycle* now,
                        sim::Cycle& done_at) {
  core::SendChannel ch = ctx.OpenSendChannel(total, core::DataType::kInt, 1,
                                             0, ctx.world());
  for (int i = 0; i < total; ++i) {
    co_await ch.Push<std::int32_t>(i);
  }
  done_at = *now;
}

/// Receiver that is busy computing for `delay` cycles before draining.
sim::Kernel DelayedReceiver(core::Context& ctx, int total, int delay) {
  co_await sim::WaitCycles{static_cast<sim::Cycle>(delay)};
  core::RecvChannel ch = ctx.OpenRecvChannel(total, core::DataType::kInt, 0,
                                             0, ctx.world());
  for (int i = 0; i < total; ++i) {
    (void)co_await ch.Pop<std::int32_t>();
  }
}

}  // namespace

/// Ablation (§3.3/§4.2): the endpoint FIFO depth — the channel's
/// "asynchronicity degree" k — against (a) when a sender whose receiver is
/// busy computing can move on and (b) streaming bandwidth. Deeper buffers
/// let the sender commit data and keep computing; the paper calls the depth
/// "an optimization parameter", not a correctness knob.
void FifoDepth(Bench& bench) {
  constexpr int kBurst = 256;
  const int total = bench.Int("elems");
  const int delay = kBurst * 40;
  const net::Topology topo = net::Topology::Bus(2);
  const sim::ClockConfig clock;
  PerfReport report("fifo_depth");
  report.SetParameter("elems", total);
  report.SetParameter("burst", kBurst);

  PrintTitle("endpoint FIFO depth vs sender completion — " +
             std::to_string(total) + " ints, receiver busy for " +
             std::to_string(delay) + " cycles");
  std::printf("%10s %18s %14s\n", "depth k", "sender done [cyc]",
              "total [cyc]");
  Measured m;
  for (const std::size_t depth : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                                  512u}) {
    core::ClusterConfig config = bench.config();
    config.fabric.endpoint_fifo_depth = depth;
    core::Cluster cluster(topo, P2pSpec(), config);
    sim::Cycle done_at = 0;
    cluster.AddKernel(0,
                      TimedSender(cluster.context(0), total,
                                  cluster.engine().now_ptr(), done_at),
                      "sender");
    cluster.AddKernel(1, DelayedReceiver(cluster.context(1), total, delay),
                      "receiver");
    m = RunCluster(cluster);
    AddResult(report, "burst/k=" + std::to_string(depth), m);
    std::printf("%10zu %18llu %14llu\n", depth,
                static_cast<unsigned long long>(done_at),
                static_cast<unsigned long long>(m.run.cycles));
  }

  PrintTitle("endpoint FIFO depth vs plateau bandwidth — continuous stream, "
             "8 MiB");
  std::printf("%10s %14s\n", "depth k", "Gbit/s");
  for (const std::size_t depth : {2u, 8u, 32u, 128u}) {
    core::ClusterConfig config = bench.config();
    config.fabric.endpoint_fifo_depth = depth;
    m = Stream(topo, {{0, 1}}, PacketsFor(8ull << 20), config);
    AddResult(report, "stream/k=" + std::to_string(depth), m);
    std::printf("%10zu %14.2f\n", depth,
                clock.GigabitsPerSecond(8ull << 20, m.run.cycles));
  }
  bench.Finish(report, m.telemetry);
}

namespace {

sim::Kernel RingSender(core::Context& ctx, int elems) {
  const int right = (ctx.rank() + 1) % ctx.world().size();
  core::SendChannel ch = ctx.OpenSendChannel(elems, core::DataType::kInt,
                                             right, /*port=*/0, ctx.world());
  for (int i = 0; i < elems; ++i) co_await ch.Push<std::int32_t>(i);
}

sim::Kernel RingReceiver(core::Context& ctx, int elems, std::uint64_t& sink) {
  const int n = ctx.world().size();
  const int left = (ctx.rank() + n - 1) % n;
  core::RecvChannel ch = ctx.OpenRecvChannel(elems, core::DataType::kInt,
                                             left, /*port=*/0, ctx.world());
  for (int i = 0; i < elems; ++i) {
    sink += static_cast<std::uint64_t>(co_await ch.Pop<std::int32_t>());
  }
}

Measured BusyRing(const net::Topology& topo, int elems,
                  sim::SchedulerKind kind, unsigned threads,
                  core::ClusterConfig config) {
  config.engine.scheduler = kind;
  config.engine.threads = threads;
  core::Cluster cluster(topo, P2pSpec(), config);
  std::uint64_t sink = 0;
  for (int r = 0; r < topo.num_ranks(); ++r) {
    cluster.AddKernel(r, RingSender(cluster.context(r), elems), "send");
    cluster.AddKernel(r, RingReceiver(cluster.context(r), elems, sink),
                      "recv");
  }
  return RunCluster(cluster);
}

double Rate(const Measured& m) {
  return m.wall_seconds > 0.0
             ? static_cast<double>(m.run.cycles) / m.wall_seconds
             : 0.0;
}

}  // namespace

/// Scaling of the parallel (conservative-lookahead) scheduler: every rank
/// of an 8/16/32-rank torus streams to its right ring neighbour, so nearly
/// every simulated cycle has work in every partition. Runs the event-driven
/// scheduler and kParallel at 1..8 worker threads; the figure of merit is
/// simulated cycles per wall-clock second, and every parallel run must
/// reproduce the event-driven cycle count exactly.
void SimParallel(Bench& bench) {
  constexpr int kElems = 20000;
  constexpr int kMaxThreads = 8;
  PerfReport report("sim_parallel");
  report.SetParameter("elems", kElems);
  report.SetParameter("max-threads", kMaxThreads);
  report.SetParameter("hardware_concurrency",
                      static_cast<std::int64_t>(
                          std::thread::hardware_concurrency()));

  struct Shape {
    const char* label;
    int rows, cols;
  };
  const Shape shapes[] = {{"torus 2x4", 2, 4},
                          {"torus 4x4", 4, 4},
                          {"torus 4x8", 4, 8}};
  Measured m;
  std::string mismatches;
  for (const Shape& s : shapes) {
    const net::Topology topo = net::Topology::Torus2D(s.rows, s.cols);
    PrintTitle(std::string(s.label) + " (" +
               std::to_string(topo.num_ranks()) +
               " ranks) — busy ring stream, " + std::to_string(kElems) +
               " ints/rank");
    std::printf("%-22s %12s %16s %10s\n", "scheduler", "cycles",
                "Mcycles/wall-s", "speedup");

    const std::string ranks = std::to_string(topo.num_ranks()) + "ranks";
    const Measured event = BusyRing(
        topo, kElems, sim::SchedulerKind::kEventDriven, 1, bench.config());
    AddResult(report, ranks + "/event-driven", event);
    std::printf("%-22s %12llu %16.2f %10s\n", "event-driven",
                static_cast<unsigned long long>(event.run.cycles),
                Rate(event) / 1e6, "-");

    double base_rate = 0.0;
    for (int threads = 1; threads <= kMaxThreads; threads *= 2) {
      m = BusyRing(topo, kElems, sim::SchedulerKind::kParallel,
                   static_cast<unsigned>(threads), bench.config());
      AddResult(report, ranks + "/parallel-t" + std::to_string(threads), m);
      if (m.run.cycles != event.run.cycles) {
        mismatches += Format(" %s t=%d: %llu vs %llu", ranks.c_str(), threads,
                             static_cast<unsigned long long>(m.run.cycles),
                             static_cast<unsigned long long>(event.run.cycles));
      }
      const double rate = Rate(m);
      if (threads == 1) base_rate = rate;
      std::printf("%-22s %12llu %16.2f %9.2fx\n",
                  ("parallel, " + std::to_string(threads) + " thr (" +
                   std::to_string(m.run.partitions) + " part)")
                      .c_str(),
                  static_cast<unsigned long long>(m.run.cycles), rate / 1e6,
                  base_rate > 0.0 ? rate / base_rate : 0.0);
    }
  }
  std::printf("\nnote: wall-clock scaling depends on available host cores; "
              "simulated cycles are scheduler-invariant.\n");
  bench.Check("parallel_cycles", mismatches.empty(),
              mismatches.empty() ? "every run equals event-driven"
                                 : "mismatch:" + mismatches);
  bench.Finish(report, m.telemetry);
}

namespace {

/// Near-square 2D torus with `c` ranks: rows is the largest divisor of `c`
/// not exceeding sqrt(c).
net::Topology NearSquareTorus(int c) {
  int rows = 1;
  for (int r = 2; r * r <= c; ++r) {
    if (c % r == 0) rows = r;
  }
  if (rows < 2) throw ConfigError("torus sweep needs composite rank counts");
  return net::Topology::Torus2D(rows, c / rows);
}

}  // namespace

/// Scale-out sweep: bisection-exchange bandwidth on torus, fat-tree and
/// dragonfly fabrics from 16 compute ranks up. Compute rank i < C/2 streams
/// to rank i + C/2, all pairs concurrently, so every stream crosses the
/// bisection: the torus's O(sqrt C) bisection cables make its per-rank
/// bandwidth collapse as C grows, while the full-bisection fat-tree keeps
/// it flat; dragonfly sits between. Points above 64 compute ranks use the
/// flow model (or --fidelity) so the large points finish quickly.
void Scaleout(Bench& bench) {
  constexpr int kMinRanks = 16;
  constexpr int kCycleLimit = 64;
  constexpr std::uint64_t kBytes = 7168;
  constexpr std::uint64_t kRouteSeed = 1;
  const int max_ranks = bench.Int("max-ranks");
  if (max_ranks < kMinRanks) {
    throw ConfigError("--max-ranks must be at least 16");
  }
  // Unlike the other experiments (default cycle), the sweep defaults its
  // large points to the flow model. kAuto's steady window never opens under
  // bisection congestion (every stream sees constant backpressure), so it
  // would silently run everything cycle-accurate; kFlow promotes at the
  // first opportunity and still demotes on disturbance.
  const sim::FidelityMode big_mode = bench.fidelity_requested()
                                         ? bench.config().engine.fidelity.mode
                                         : sim::FidelityMode::kFlow;

  PerfReport report("scaleout");
  report.SetParameter("min_ranks", kMinRanks);
  report.SetParameter("max_ranks", max_ranks);
  report.SetParameter("bytes", static_cast<std::int64_t>(kBytes));
  report.SetParameter("cycle_limit", kCycleLimit);
  report.SetParameter("route_seed", static_cast<std::int64_t>(kRouteSeed));

  PrintTitle("scale-out bisection exchange: aggregate bandwidth vs ranks");
  std::printf("%-10s %-17s %7s %7s %10s %12s %10s %8s\n", "topology",
              "scheme", "ranks", "total", "cycles", "agg B/cyc", "B/cyc/rk",
              "modeled");

  json::Array rows;
  // per topology: compute-rank count -> bytes/cycle (per rank / aggregate)
  std::map<std::string, std::map<int, double>> per_rank;
  std::map<std::string, std::map<int, double>> aggregate;
  bool fat_tree_fell_back = false;
  bool large_points_flow = true;
  Measured m;
  struct Family {
    std::string name;
    net::RoutingScheme scheme;
    int min_ranks;
    net::Topology (*build)(int c);
  };
  const Family families[] = {
      {"torus", net::RoutingScheme::kAuto, 16, NearSquareTorus},
      // 8 hosts per leaf, 8 spines: full bisection at every size.
      {"fat-tree", net::RoutingScheme::kMinimalAdaptive, 16,
       [](int c) { return net::Topology::FatTree(8, c / 8, 8); }},
      // At least 2 groups of 16 hosts.
      {"dragonfly", net::RoutingScheme::kValiant, 32,
       [](int c) { return net::Topology::Dragonfly(c / 16, 4, 4); }},
  };
  for (int c = kMinRanks; c <= max_ranks; c *= 2) {
    for (const auto& [name, scheme, min_ranks, build] : families) {
      if (c < min_ranks) continue;
      const net::Topology topo = build(c);
      core::ClusterConfig config = bench.config();
      const sim::FidelityMode mode =
          c <= kCycleLimit ? sim::FidelityMode::kCycle : big_mode;
      config.engine.fidelity.mode = mode;
      config.routing = scheme;
      config.routing_seed = kRouteSeed;

      const std::vector<int> compute = topo.ComputeRankIds();
      const int pairs = static_cast<int>(compute.size()) / 2;
      std::vector<std::pair<int, int>> streams;
      for (int i = 0; i < pairs; ++i) {
        streams.emplace_back(compute[static_cast<std::size_t>(i)],
                             compute[static_cast<std::size_t>(i + pairs)]);
      }
      bool fell_back = false;
      m = Stream(topo, streams, PacketsFor(kBytes), config, 7, &fell_back);
      const json::Value& fidelity = m.telemetry.fidelity;
      const double modeled =
          fidelity.is_null() ? 0.0
                             : fidelity.at("modeled_fraction").as_double();
      const double total_bytes = static_cast<double>(pairs) *
                                 static_cast<double>(PacketsFor(kBytes)) *
                                 static_cast<double>(net::kPayloadBytes);
      const double agg_bpc =
          m.run.cycles > 0 ? total_bytes / static_cast<double>(m.run.cycles)
                           : 0.0;
      const double per_rank_bpc = agg_bpc / static_cast<double>(c);
      per_rank[name][c] = per_rank_bpc;
      aggregate[name][c] = agg_bpc;
      if (name == "fat-tree" && fell_back) fat_tree_fell_back = true;
      if (c >= 128 && fidelity.get_string("mode", "cycle") != "flow") {
        large_points_flow = false;
      }

      std::printf("%-10s %-17s %7d %7d %10llu %12.3f %10.4f %7.1f%%%s\n",
                  name.c_str(), net::RoutingSchemeName(scheme),
                  topo.num_compute_ranks(), topo.num_ranks(),
                  static_cast<unsigned long long>(m.run.cycles), agg_bpc,
                  per_rank_bpc, modeled * 100.0,
                  fell_back ? "  [up*/down* escape]" : "");

      AddResult(report, name + "/" + std::to_string(c) + "ranks", m);
      json::Object row;
      row["topology"] = name;
      row["scheme"] = std::string(net::RoutingSchemeName(scheme));
      row["ranks"] = topo.num_compute_ranks();
      row["total_ranks"] = topo.num_ranks();
      row["cycles"] = m.run.cycles;
      row["simulated_microseconds"] = m.run.microseconds;
      row["wall_seconds"] = m.wall_seconds;
      row["aggregate_bytes_per_cycle"] = agg_bpc;
      row["per_rank_bytes_per_cycle"] = per_rank_bpc;
      row["fidelity"] = std::string(sim::FidelityModeName(mode));
      row["modeled_fraction"] = modeled;
      row["routing_fell_back"] = fell_back;
      rows.emplace_back(std::move(row));
    }
  }

  // Shape summary: per-rank bandwidth retention from the smallest to the
  // largest swept size. A saturating fabric's retention collapses (the
  // fixed bisection is shared by ever more streams); a scaling fabric's
  // stays flat.
  json::Object retention;
  PrintRule();
  for (const auto& [name, series] : per_rank) {
    if (series.size() < 2) continue;
    const double first = series.begin()->second;
    const double last = series.rbegin()->second;
    const double r = first > 0.0 ? last / first : 0.0;
    retention[name] = r;
    std::printf("per-rank bandwidth retention %-10s %.3f\n", name.c_str(), r);
  }

  std::set<std::string> topologies;
  for (const auto& [name, series] : per_rank) topologies.insert(name);
  bench.Check("fat_tree_minimal", !fat_tree_fell_back,
              "minimal-adaptive routing never falls back");
  if (max_ranks >= 32) {
    bench.Check("topologies",
                topologies == std::set<std::string>{"torus", "fat-tree",
                                                    "dragonfly"},
                Format("%zu swept", topologies.size()));
  } else {
    bench.Skip("topologies", "dragonfly needs 32 ranks");
  }
  if (max_ranks >= 128 && !bench.fidelity_requested()) {
    bench.Check("large_points_flow", large_points_flow,
                "points from 128 ranks ran the flow model");
  } else {
    bench.Skip("large_points_flow", "needs 128 ranks and no --fidelity");
  }
  // The bisection collapse needs the torus to grow past its 64-rank
  // plateau: the sweep must reach 256 compute ranks.
  if (max_ranks >= 256) {
    const double torus_r = retention.at("torus").as_double();
    const double ft_r = retention.at("fat-tree").as_double();
    const double torus_agg = aggregate["torus"].rbegin()->second;
    const double ft_agg = aggregate["fat-tree"].rbegin()->second;
    bench.Check("torus_saturates", torus_r < 0.35,
                Format("torus retention %.3f < 0.35", torus_r));
    bench.Check("fat_tree_scales", ft_r >= 0.4,
                Format("fat-tree retention %.3f >= 0.4", ft_r));
    bench.Check("retention_order", torus_r < ft_r,
                Format("torus %.3f < fat-tree %.3f", torus_r, ft_r));
    bench.Check("fat_tree_aggregate", ft_agg > torus_agg,
                Format("fat-tree %.1f > torus %.1f B/cyc", ft_agg, torus_agg));
  } else {
    bench.Skip("shape", "needs --max-ranks >= 256");
  }

  json::Object scaleout;
  scaleout["pattern"] = std::string("bisection-exchange");
  scaleout["points"] = json::Value(std::move(rows));
  scaleout["per_rank_retention"] = json::Value(retention);
  report.SetSection("scaleout", json::Value(std::move(scaleout)));
  bench.Finish(report, m.telemetry);
}

namespace {

sim::Kernel Source(sim::Fifo<std::uint32_t>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim::fifo_push(out, static_cast<std::uint32_t>(i));
  }
}

sim::Kernel Sink(sim::Fifo<std::uint32_t>& in, int n, std::uint64_t& digest) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (int i = 0; i < n; ++i) {
    h ^= co_await sim::fifo_pop(in);
    h *= 1099511628211ull;
  }
  digest = h;
}

struct Chain {
  sim::Cycle cycles = 0;
  double wall_seconds = 0.0;
  std::uint64_t digest = 0;
  json::Value fidelity;  ///< FidelityReportJson (null in cycle mode)
};

/// A relay chain of `hops` FlowLinks saturated by one source streaming
/// `payloads` sequence numbers at line rate.
Chain RunChain(int hops, int payloads, const sim::FidelityPolicy& policy) {
  constexpr std::size_t kDepth = 128;
  constexpr sim::Cycle kLatency = 16;
  sim::EngineConfig config;
  config.fidelity = policy;
  sim::Engine engine(config);

  std::vector<sim::Fifo<std::uint32_t>*> fifos;
  for (int i = 0; i <= hops; ++i) {
    fifos.push_back(&engine.MakeFifo<std::uint32_t>(Format("f%d", i), kDepth));
  }
  for (int i = 0; i < hops; ++i) {
    engine.MakeComponent<sim::FlowLink<std::uint32_t>>(
        engine, Format("link%d", i), *fifos[static_cast<std::size_t>(i)],
        *fifos[static_cast<std::size_t>(i) + 1], kLatency, policy);
  }

  Chain out;
  engine.AddKernel(Source(*fifos.front(), payloads), "source");
  engine.AddKernel(Sink(*fifos.back(), payloads, out.digest), "sink");
  const WallTimer timer;
  out.cycles = engine.Run().cycles;
  out.wall_seconds = timer.Seconds();
  if (policy.enabled()) {
    const std::vector<sim::FlowLinkControl*>& regs = engine.flow_links();
    const std::vector<const sim::FlowLinkControl*> links(regs.begin(),
                                                         regs.end());
    out.fidelity = sim::FidelityReportJson(policy.mode, links);
  }
  return out;
}

double Pct(sim::Cycle value, sim::Cycle reference) {
  if (reference == 0) return 0.0;
  const double d = static_cast<double>(value) - static_cast<double>(reference);
  return 100.0 * (d < 0 ? -d : d) / static_cast<double>(reference);
}

}  // namespace

/// Hybrid-fidelity link sweep: wall-clock speedup and cycle divergence of
/// the flow-level fast path (sim/fidelity.h, sim/flow_link.h) against the
/// cycle-accurate baseline, on relay chains of 8..`--ranks` links. Every
/// (ranks, payloads) shape runs under all three fidelity modes; the payload
/// stream reaching the sink must be bit-identical (FNV-1a digest) in every
/// mode. The "fidelity" report section is the auto run's per-link
/// breakdown on the largest shape plus the sweep table.
void Fidelity(Bench& bench) {
  constexpr int kFifoDepth = 128;
  constexpr int kLatency = 16;
  constexpr int kInterval = 32;
  const int max_ranks = bench.Int("ranks");
  const int payloads = bench.Int("payloads");
  sim::FidelityPolicy base;
  base.flow_interval = kInterval;
  base.calibration = bench.config().engine.fidelity.calibration;

  PerfReport report("fidelity");
  report.SetParameter("ranks", max_ranks);
  report.SetParameter("payloads", payloads);
  report.SetParameter("fifo-depth", kFifoDepth);
  report.SetParameter("latency", kLatency);
  report.SetParameter("interval", kInterval);

  std::vector<int> shapes;
  for (int r = 8; r < max_ranks; r *= 2) shapes.push_back(r);
  if (shapes.empty() || shapes.back() != max_ranks) shapes.push_back(max_ranks);
  const int sizes[2] = {payloads / 4 > 0 ? payloads / 4 : 1, payloads};

  PrintTitle("hybrid fidelity — relay chain, line-rate stream");
  std::printf("%6s %9s %6s %12s %12s %9s %9s %10s\n", "ranks", "payloads",
              "mode", "cycles", "wall [ms]", "speedup", "diverge", "modeled");

  json::Array sweep;
  json::Value headline;
  double headline_speedup = 0.0;
  double worst_divergence = 0.0;
  std::string digest_mismatches;
  for (const int ranks : shapes) {
    for (const int n : sizes) {
      Chain per_mode[3];
      const sim::FidelityMode modes[3] = {sim::FidelityMode::kCycle,
                                          sim::FidelityMode::kFlow,
                                          sim::FidelityMode::kAuto};
      for (int i = 0; i < 3; ++i) {
        sim::FidelityPolicy policy = base;
        policy.mode = modes[i];
        per_mode[i] = RunChain(ranks, n, policy);

        const Chain& cyc = per_mode[0];
        const Chain& cur = per_mode[i];
        const char* mode = sim::FidelityModeName(modes[i]);
        const double speedup = cur.wall_seconds > 0.0
                                   ? cyc.wall_seconds / cur.wall_seconds
                                   : 0.0;
        const double divergence = Pct(cur.cycles, cyc.cycles);
        const double modeled =
            cur.fidelity.is_object()
                ? cur.fidelity.at("modeled_fraction").as_double()
                : 0.0;
        const std::string label = std::to_string(ranks) + "ranks/" +
                                  std::to_string(n) + "msgs/" + mode;
        report.AddResult(label, cur.cycles, 0.0, cur.wall_seconds);
        std::printf("%6d %9d %6s %12llu %12.2f %8.2fx %8.2f%% %9.1f%%\n",
                    ranks, n, mode,
                    static_cast<unsigned long long>(cur.cycles),
                    cur.wall_seconds * 1e3, speedup, divergence,
                    100.0 * modeled);

        if (cur.digest != cyc.digest) digest_mismatches += " " + label;
        if (modes[i] == sim::FidelityMode::kAuto && n == payloads) {
          if (divergence > worst_divergence) worst_divergence = divergence;
          if (ranks == shapes.back()) {
            headline_speedup = speedup;
            headline = cur.fidelity;
          }
        }

        json::Object row;
        row["ranks"] = ranks;
        row["payloads"] = n;
        row["mode"] = mode;
        row["cycles"] = cur.cycles;
        row["wall_seconds"] = cur.wall_seconds;
        row["speedup"] = speedup;
        row["divergence_pct"] = divergence;
        row["modeled_fraction"] = modeled;
        sweep.emplace_back(std::move(row));
      }
    }
  }
  std::printf("\nheadline: auto vs cycle on the largest shape: %.2fx "
              "wall-clock, worst auto divergence %.2f%%\n",
              headline_speedup, worst_divergence);

  bench.Check("payload_digests", digest_mismatches.empty(),
              digest_mismatches.empty() ? "bit-identical across modes"
                                        : "mismatch:" + digest_mismatches);
  // The quarter-size rows expose the stream-tail boundary error, which
  // shrinks as ranks*interval/payloads; the bound holds at full size.
  bench.Check("divergence", worst_divergence <= 2.0,
              Format("worst auto divergence %.2f%% <= 2%%", worst_divergence));
  bench.Check("headline_mode", headline.get_string("mode", "") == "auto", "");
  // The headline figures need the full default sweep: shorter chains and
  // streams amortize the flow model's fill cost over fewer payloads.
  if (max_ranks >= 64 && payloads >= 200000) {
    bench.Check("speedup", headline_speedup >= 5.0,
                Format("%.2fx >= 5x", headline_speedup));
    const double modeled = headline.get_double("modeled_fraction", 0.0);
    const std::int64_t promotions = headline.get_int("promotions", 0);
    bench.Check("modeled_fraction", modeled > 0.5,
                Format("%.3f > 0.5", modeled));
    bench.Check("promotions", promotions > 0, std::to_string(promotions));
  } else {
    bench.Skip("speedup", "needs --ranks >= 64 and --payloads >= 200000");
  }

  if (headline.is_object()) {
    json::Object& section = headline.as_object();
    section["speedup"] = headline_speedup;
    section["worst_divergence_pct"] = worst_divergence;
    section["sweep"] = json::Value(std::move(sweep));
    report.SetSection("fidelity", headline);
  }
  bench.Finish(report);
}

}  // namespace smi::bench
