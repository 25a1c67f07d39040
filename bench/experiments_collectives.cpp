/// \file experiments_collectives.cpp
/// Collective experiments: Bcast (Fig. 10) and Reduce (Fig. 11) against the
/// host model, the linear-vs-tree and Scatter/Gather ablations, in-network
/// Reduce, and the MPI shim's Allreduce sweep and ported Jacobi stencil.
/// Every collective run goes through one runner that checks the result on
/// every rank against a host reference.

#include <cinttypes>
#include <cmath>
#include <set>
#include <type_traits>

#include "baseline/host_model.h"
#include "baseline/host_reference.h"
#include "common/error.h"
#include "experiments.h"
#include "mpi/mpi.h"

namespace smi::bench {
namespace {

/// One collective call: every rank opens one channel on port 0 with root 0.
struct Collective {
  core::CollKind kind;
  core::CollAlgo algo = core::CollAlgo::kLinear;
  int count = 1;     ///< elements per rank (Scatter/Gather: per-rank segment)
  int credits = 64;  ///< Reduce flow-control tile size C
};

template <typename T>
constexpr core::DataType kTypeOf =
    std::is_same_v<T, float> ? core::DataType::kFloat : core::DataType::kInt;

/// Element i of rank r's operand: the root's Bcast and Scatter payload and
/// every rank's Reduce and Gather contribution. Small exact integers, so
/// sums are exact in FP32 in any fold order.
template <typename T>
T Operand(int rank, int i) {
  return static_cast<T>(i + 1000 * rank);
}

/// What rank `r` of `n` must see at position i of its result stream.
template <typename T>
T Expected(const Collective& c, int n, int r, int i) {
  switch (c.kind) {
    case core::CollKind::kBcast:
      return Operand<T>(0, i);
    case core::CollKind::kReduce:
      return static_cast<T>(n * i + 1000 * (n * (n - 1) / 2));
    case core::CollKind::kScatter:
      return Operand<T>(0, r * c.count + i);
    default:  // Gather: the root receives the segments in rank order
      return Operand<T>(i / c.count, i % c.count);
  }
}

/// The host reference: the whole result stream rank `r` of `n` must see.
template <typename T>
std::vector<T> HostReference(const Collective& c, int n, int r) {
  const bool everywhere = c.kind == core::CollKind::kBcast ||
                          c.kind == core::CollKind::kScatter;
  const int size = !everywhere && r != 0               ? 0
                   : c.kind == core::CollKind::kGather ? c.count * n
                                                       : c.count;
  std::vector<T> want;
  for (int i = 0; i < size; ++i) want.push_back(Expected<T>(c, n, r, i));
  return want;
}

template <typename T>
sim::Kernel CollectiveApp(core::Context& ctx, Collective c,
                          std::vector<T>& got) {
  constexpr core::DataType type = kTypeOf<T>;
  const int me = ctx.rank();
  const int calls = me == 0 && (c.kind == core::CollKind::kScatter ||
                                c.kind == core::CollKind::kGather)
                        ? c.count * ctx.world_size()
                        : c.count;
  switch (c.kind) {
    case core::CollKind::kBcast: {
      core::BcastChannel chan =
          ctx.OpenBcastChannel(c.count, type, 0, 0, ctx.world());
      for (int i = 0; i < calls; ++i) {
        T v = me == 0 ? Operand<T>(0, i) : T{0};
        co_await chan.Bcast(v);
        got.push_back(v);
      }
      break;
    }
    case core::CollKind::kReduce: {
      core::ReduceChannel chan = ctx.OpenReduceChannel(
          c.count, type, core::ReduceOp::kAdd, 0, 0, ctx.world(), c.credits);
      for (int i = 0; i < calls; ++i) {
        T rcv{};
        co_await chan.Reduce(Operand<T>(me, i), rcv);
        if (me == 0) got.push_back(rcv);
      }
      break;
    }
    case core::CollKind::kScatter: {
      core::ScatterChannel chan =
          ctx.OpenScatterChannel(c.count, type, 0, 0, ctx.world());
      for (int i = 0; i < calls; ++i) {
        const T snd = Operand<T>(0, i);
        T rcv{};
        if (co_await chan.Scatter<T>(me == 0 ? &snd : nullptr, rcv)) {
          got.push_back(rcv);
        }
      }
      break;
    }
    default: {
      core::GatherChannel chan =
          ctx.OpenGatherChannel(c.count, type, 0, 0, ctx.world());
      for (int i = 0; i < calls; ++i) {
        T rcv{};
        co_await chan.Gather<T>(Operand<T>(me, i), me == 0 ? &rcv : nullptr);
        if (me == 0) got.push_back(rcv);
      }
      break;
    }
  }
}

/// Run `c` on every compute rank of `topo` and check every rank's results
/// against the host reference (throws Error on a mismatch).
template <typename T = float>
Measured RunCollective(const net::Topology& topo, const Collective& c,
                       const core::ClusterConfig& config) {
  core::ProgramSpec spec;
  switch (c.kind) {
    case core::CollKind::kBcast:
      spec.Add(core::OpSpec::Bcast(0, kTypeOf<T>, c.algo));
      break;
    case core::CollKind::kReduce:
      spec.Add(core::OpSpec::Reduce(0, kTypeOf<T>, c.algo));
      break;
    case core::CollKind::kScatter:
      spec.Add(core::OpSpec::Scatter(0, kTypeOf<T>));
      break;
    default:
      spec.Add(core::OpSpec::Gather(0, kTypeOf<T>));
  }
  core::Cluster cluster(topo, spec, config);
  const int n = topo.num_compute_ranks();
  std::vector<std::vector<T>> got(static_cast<std::size_t>(n));
  const char* name = core::CollKindName(c.kind);
  for (int r = 0; r < n; ++r) {
    cluster.AddKernel(
        r, CollectiveApp<T>(cluster.context(r), c,
                                 got[static_cast<std::size_t>(r)]),
        name);
  }
  Measured m = RunCluster(cluster);

  for (int r = 0; r < n; ++r) {
    if (got[static_cast<std::size_t>(r)] != HostReference<T>(c, n, r)) {
      throw Error(Format("%s of %d elements: rank %d differs from the host "
                         "reference",
                         name, c.count, r));
    }
  }
  return m;
}

/// Figures 10 and 11: time of a linear Bcast or Reduce vs message size on
/// 8 and 4 ranks, torus and bus cabling, against the host MPI+OpenCL model.
void PaperSweep(Bench& bench, core::CollKind kind, PerfReport& report,
                Measured& m) {
  constexpr int kMaxElems = 262144;
  const baseline::HostModel host;
  report.SetParameter("max-elems", kMaxElems);
  std::printf("%10s %12s %12s %12s %12s %12s\n", "elems", "SMI-torus8",
              "SMI-torus4", "SMI-bus8", "SMI-bus4", "MPI+OpenCL8");
  const std::pair<const char*, net::Topology> topos[4] = {
      {"torus8", net::Topology::Torus2D(2, 4)},
      {"torus4", net::Topology::Torus2D(2, 2)},
      {"bus8", net::Topology::Bus(8)},
      {"bus4", net::Topology::Bus(4)}};
  for (int count = 1; count <= kMaxElems; count *= 4) {
    double us[4];
    for (int t = 0; t < 4; ++t) {
      m = RunCollective(topos[t].second, {kind, core::CollAlgo::kLinear, count},
                        bench.config());
      us[t] = m.run.microseconds;
      AddResult(report,
                std::string(topos[t].first) + "/" + std::to_string(count), m);
    }
    const std::uint64_t bytes = static_cast<std::uint64_t>(count) * 4;
    std::printf("%10d %12.2f %12.2f %12.2f %12.2f %12.2f\n", count, us[0],
                us[1], us[2], us[3],
                kind == core::CollKind::kBcast ? host.BcastUs(bytes, 8)
                                               : host.ReduceUs(bytes, 8));
  }
}

}  // namespace

/// Figure 10: time to broadcast a message of varying size (FP32 elements).
void Bcast(Bench& bench) {
  PerfReport report("bcast");
  Measured m;
  PrintTitle("Figure 10 — Bcast time [usecs] (lower is better)");
  PaperSweep(bench, core::CollKind::kBcast, report, m);
  bench.Finish(report, m.telemetry);
}

/// Figure 11: time to reduce (SUM, FP32) a message of varying size. The
/// credit-based flow control of §4.4 is latency-sensitive, which is what
/// makes SMI lose its advantage at large message sizes in the paper;
/// --credit-sweep adds the Reduce time vs credit tile size C.
void Reduce(Bench& bench) {
  PerfReport report("reduce");
  report.SetParameter("credits", 64);
  Measured m;
  PrintTitle("Figure 11 — Reduce time [usecs] (SUM FP32, lower is better)");
  PaperSweep(bench, core::CollKind::kReduce, report, m);
  if (bench.Flag("credit-sweep")) {
    PrintTitle("ablation — Reduce time vs credit tile size C "
               "(torus, 8 ranks, 65536 elems)");
    std::printf("%10s %12s\n", "C", "usecs");
    for (const int c : {1, 4, 16, 64, 256, 1024}) {
      m = RunCollective(net::Topology::Torus2D(2, 4),
                        {core::CollKind::kReduce, core::CollAlgo::kLinear,
                         65536, c},
                        bench.config());
      AddResult(report, "credit-sweep/C=" + std::to_string(c) + "/65536", m);
      std::printf("%10d %12.2f\n", c, m.run.microseconds);
    }
  }
  bench.Finish(report, m.telemetry);
}

/// Ablation (§4.4 extension): linear vs binomial-tree Bcast and Reduce on
/// the 2x4 torus. The paper attributes its Reduce's large-message losses
/// partly to the missing tree ("higher congestion in the root rank").
void CollectiveTree(Bench& bench) {
  constexpr int kMaxElems = 65536;
  PerfReport report("collective_tree");
  report.SetParameter("max-elems", kMaxElems);
  Measured m;
  for (const core::CollKind kind :
       {core::CollKind::kBcast, core::CollKind::kReduce}) {
    const std::string name = core::CollKindName(kind);
    PrintTitle(name + " — linear vs binomial tree [usecs], 8 ranks, "
               "2x4 torus");
    std::printf("%10s %12s %12s %10s\n", "elems", "linear", "tree",
                "speedup");
    for (int count = 64; count <= kMaxElems; count *= 8) {
      double us[2];
      for (const core::CollAlgo algo :
           {core::CollAlgo::kLinear, core::CollAlgo::kTree}) {
        m = RunCollective(net::Topology::Torus2D(2, 4), {kind, algo, count},
                          bench.config());
        us[algo == core::CollAlgo::kTree] = m.run.microseconds;
        AddResult(report,
                  name + "/" + core::CollAlgoName(algo) + "/" +
                      std::to_string(count),
                  m);
      }
      std::printf("%10d %12.2f %12.2f %9.2fx\n", count, us[0], us[1],
                  us[0] / us[1]);
    }
  }
  bench.Finish(report, m.telemetry);
}

/// Ablation: Scatter and Gather time vs per-rank segment size and rank
/// count. The paper defines both primitives and their rendezvous protocols
/// (§3.2/§4.4) but does not plot them.
void ScatterGather(Bench& bench) {
  constexpr int kMaxElems = 16384;
  PerfReport report("scatter_gather");
  report.SetParameter("max-elems", kMaxElems);
  Measured m;
  for (const core::CollKind kind :
       {core::CollKind::kScatter, core::CollKind::kGather}) {
    const std::string name = core::CollKindName(kind);
    PrintTitle(name + " time [usecs] vs per-rank segment (root 0)");
    std::printf("%10s %12s %12s\n", "elems/rank", "torus-8", "torus-4");
    for (int count = 16; count <= kMaxElems; count *= 8) {
      double us[2];
      for (const int ranks : {8, 4}) {
        m = RunCollective(net::Topology::Torus2D(2, ranks / 2),
                          {kind, core::CollAlgo::kLinear, count},
                          bench.config());
        us[ranks == 4] = m.run.microseconds;
        AddResult(report,
                  name + "/torus" + std::to_string(ranks) + "/" +
                      std::to_string(count),
                  m);
      }
      std::printf("%10d %12.2f %12.2f\n", count, us[0], us[1]);
    }
  }
  bench.Finish(report, m.telemetry);
}

/// In-network compute: tree-Reduce (all combining at the endpoint support
/// kernels along the binomial tree) vs reduce-in-transit (CollAlgo::kInnet:
/// contributions stream flat toward the root and the CKS combine stages
/// merge packets hop by hop) on 8-64-rank 2D tori. Reports latency and
/// forwarded link bytes, the metric in-transit combining exists to shrink.
void Innet(Bench& bench) {
  constexpr int kMaxRanks = 64;
  constexpr int kCount = 4096;
  constexpr int kCredits = 64;
  // Handler activity is read from the telemetry summary, so the runs always
  // collect counters (cost is per-event, negligible at these sizes).
  core::ClusterConfig config = bench.config();
  config.engine.collect_counters = true;
  // The default hold window absorbs the residual jitter of the paced
  // streams (see innet.h).
  config.innet_hold_cycles = 16;

  PerfReport report("innet");
  report.SetParameter("max-ranks", kMaxRanks);
  report.SetParameter("count", kCount);
  report.SetParameter("credits", kCredits);
  report.SetParameter("hold", config.innet_hold_cycles);

  PrintTitle("Reduce: binomial tree vs in-transit combining (" +
             std::to_string(kCount) + " ints, 2D torus)");
  std::printf("%6s %12s %12s %8s %14s %14s %8s %10s\n", "ranks",
              "tree[cyc]", "innet[cyc]", "speedup", "tree[linkB]",
              "innet[linkB]", "byteR", "combined");

  json::Array rows;
  json::Object byte_ratio;
  json::Object latency_ratio;
  std::string byte_losses;
  bool tree_combined = false;
  bool innet_idle = false;
  const auto link_bytes = [](const Measured& pt) {
    return pt.run.link_packets * net::kPacketBytes;
  };
  const auto handler = [](const Measured& pt, const char* counter) {
    return static_cast<std::uint64_t>(
        pt.telemetry.summary.at(counter).as_int());
  };
  Measured innet;
  for (int ranks = 8; ranks <= kMaxRanks; ranks *= 2) {
    const int rows_dim = ranks == 8 ? 2 : ranks == 64 ? 8 : 4;
    const net::Topology topo =
        net::Topology::Torus2D(rows_dim, ranks / rows_dim);
    Measured tree = RunCollective<int>(
        topo,
        {core::CollKind::kReduce, core::CollAlgo::kTree, kCount, kCredits},
        config);
    innet = RunCollective<int>(
        topo,
        {core::CollKind::kReduce, core::CollAlgo::kInnet, kCount, kCredits},
        config);
    const double br = link_bytes(tree) > 0
                          ? static_cast<double>(link_bytes(innet)) /
                                static_cast<double>(link_bytes(tree))
                          : 0.0;
    const double lr = tree.run.cycles > 0
                          ? static_cast<double>(innet.run.cycles) /
                                static_cast<double>(tree.run.cycles)
                          : 0.0;
    const std::string key = std::to_string(ranks);
    byte_ratio[key] = br;
    latency_ratio[key] = lr;
    if (ranks >= 32 && br >= 1.0) byte_losses += Format(" %d:%.3f", ranks, br);
    tree_combined =
        tree_combined || handler(tree, "ck_handler_combined") != 0;
    innet_idle = innet_idle || handler(innet, "ck_handler_combined") == 0;

    std::printf("%6d %12" PRIu64 " %12" PRIu64 " %7.2fx %14" PRIu64
                " %14" PRIu64 " %8.3f %10" PRIu64 "\n",
                ranks, tree.run.cycles, innet.run.cycles,
                lr > 0.0 ? 1.0 / lr : 0.0, link_bytes(tree),
                link_bytes(innet), br, handler(innet, "ck_handler_combined"));

    for (const Measured* pt : {&tree, &innet}) {
      const std::string algo = pt == &innet ? "innet" : "tree";
      AddResult(report, algo + "/" + key + "ranks", *pt);
      json::Object row;
      row["algo"] = algo;
      row["ranks"] = ranks;
      row["count"] = kCount;
      row["cycles"] = pt->run.cycles;
      row["simulated_microseconds"] = pt->run.microseconds;
      row["link_bytes"] = link_bytes(*pt);
      row["handler_combined"] = handler(*pt, "ck_handler_combined");
      row["handler_splits"] = handler(*pt, "ck_handler_splits");
      rows.emplace_back(std::move(row));
    }
  }

  // Combining must beat the endpoint reduce on forwarded link bytes where
  // the network funnels: at 8 ranks the 8-byte envelope cancels the merge
  // savings (EXPERIMENTS.md), from 32 ranks it must not.
  bench.Check("byte_ratio", byte_losses.empty(),
              byte_losses.empty()
                  ? "innet/tree link bytes < 1 from 32 ranks"
                  : "ratio >= 1 at" + byte_losses);
  bench.Check("innet_combines", !innet_idle,
              "every innet point merged packets in transit");
  bench.Check("tree_never_combines", !tree_combined,
              "tree points use no combine handler");

  json::Object innet_doc;
  innet_doc["points"] = json::Value(std::move(rows));
  innet_doc["link_bytes_ratio"] = json::Value(std::move(byte_ratio));
  innet_doc["latency_ratio"] = json::Value(std::move(latency_ratio));
  report.SetSection("innet", json::Value(std::move(innet_doc)));
  bench.Finish(report, innet.telemetry);
}

namespace {

/// Force one algorithm regardless of size (single always-matching rule).
mpi::Selector ForceAlgo(core::CollAlgo algo) {
  return mpi::Selector({mpi::SelectorRule{std::nullopt, 0, 0, 0, 0, algo}});
}

/// Allreduce contribution of `rank`: small exact integers, so the float
/// sum is bit-exact in any fold order.
std::vector<float> Contribution(int rank, int count) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<float>((i + rank * 31) % 256);
  }
  return v;
}

sim::Kernel AllreduceApp(core::Context& ctx, int count,
                         const mpi::ShimConfig& shim,
                         std::vector<float>* result_out) {
  mpi::Comm comm = mpi::MPI_Init(ctx, shim);
  const std::vector<float> snd = Contribution(comm.rank(), count);
  std::vector<float> rcv(static_cast<std::size_t>(count));
  co_await mpi::MPI_Allreduce(snd.data(), rcv.data(), count,
                              core::ReduceOp::kAdd, comm);
  if (result_out != nullptr) *result_out = rcv;
}

/// One MPI_Allreduce of `count` floats on `ranks` ranks under `selector`,
/// checked against the bit-exact host reference.
Measured RunAllreduce(int ranks, int count, const mpi::Selector& selector,
                      const core::ClusterConfig& config,
                      mpi::DecisionLog* log) {
  mpi::ShimConfig shim;
  shim.selector = selector;
  shim.log = log;
  shim.types = {core::DataType::kFloat};
  const net::Topology topo = ranks == 8    ? net::Topology::Torus2D(2, 4)
                             : ranks == 16 ? net::Topology::Torus2D(4, 4)
                                           : net::Topology::Bus(ranks);
  core::Cluster cluster(topo, mpi::WorldSpec(ranks, shim), config);
  std::vector<float> rank0;
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r,
                      AllreduceApp(cluster.context(r), count, shim,
                                   r == 0 ? &rank0 : nullptr),
                      "app");
  }
  const Measured m = RunCluster(cluster, log);

  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < ranks; ++r) contribs.push_back(Contribution(r, count));
  if (rank0 != baseline::HostAllreduce(contribs, core::ReduceOp::kAdd)) {
    throw Error(Format("allreduce of %d elements does not match the host "
                       "reference",
                       count));
  }
  return m;
}

}  // namespace

/// Allreduce latency sweep through the MPI shim: the linear (flat-tree)
/// composition vs the binomial tree vs the per-size selector. The
/// "selector" report section records which algorithm the rule table picked
/// at each size — the switch point.
void Allreduce(Bench& bench) {
  const int ranks = bench.Int("ranks");
  const int max_elems = bench.Int("max-elems");
  mpi::DecisionLog log;
  const mpi::Selector defaults = mpi::Selector::Defaults();
  const baseline::HostModel host;

  PerfReport report("allreduce");
  report.SetParameter("ranks", ranks);
  report.SetParameter("max-elems", max_elems);

  PrintTitle("Allreduce — linear vs tree vs selector [usecs], " +
             std::to_string(ranks) + " ranks");
  std::printf("%10s %12s %12s %12s %10s %12s\n", "elems", "linear", "tree",
              "selector", "chosen", "host MPI");
  json::Array decisions;
  std::set<std::string> chosen_algos;
  Measured m;
  for (int count = 16; count <= max_elems; count *= 4) {
    double us[3];
    for (int i = 0; i < 3; ++i) {
      const bool selected = i == 2;
      const core::CollAlgo algo =
          i == 0 ? core::CollAlgo::kLinear : core::CollAlgo::kTree;
      m = RunAllreduce(ranks, count, selected ? defaults : ForceAlgo(algo),
                       bench.config(), selected ? &log : nullptr);
      us[i] = m.run.microseconds;
      AddResult(report,
                std::string("allreduce/") +
                    (selected ? "selector" : core::CollAlgoName(algo)) + "/" +
                    std::to_string(count),
                m);
    }
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * sizeof(float);
    const char* chosen = core::CollAlgoName(
        defaults.Choose(core::CollKind::kAllreduce, bytes, ranks));
    chosen_algos.insert(chosen);
    const double host_us = host.AllreduceUs(bytes, ranks);
    std::printf("%10d %12.2f %12.2f %12.2f %10s %12.2f\n", count, us[0],
                us[1], us[2], chosen, host_us);
    json::Object d;
    d["elems"] = count;
    d["bytes"] = static_cast<std::int64_t>(bytes);
    d["algorithm"] = chosen;
    d["simulated_microseconds"] = us[2];
    d["host_model_microseconds"] = host_us;
    decisions.emplace_back(std::move(d));
  }

  // The default table switches to the tree from 4 KiB at 4-7 ranks and
  // from 256 B at 8 or more; the sweep starts at 64 B, below every switch.
  if (ranks >= 4 && max_elems >= 1024) {
    bench.Check("selector_switch",
                chosen_algos == std::set<std::string>{"linear", "tree"},
                "the sweep crosses the linear -> tree switch");
  } else {
    bench.Skip("selector_switch", "needs --ranks >= 4, --max-elems >= 1024");
  }
  const json::Value log_json = log.ToJson();
  bench.Check("decision_log", !log_json.at("decisions").as_array().empty(),
              "selector decisions recorded");

  json::Object selector;
  selector["per_size"] = json::Value(std::move(decisions));
  selector["log"] = log_json;
  selector["rules"] = defaults.ToJson();
  report.SetSection("selector", json::Value(std::move(selector)));
  bench.Finish(report, m.telemetry);
  std::printf("validation: all runs match the host reference\n");
}

namespace {

struct StencilParams {
  int rows = 32;  ///< global rows (divisible by the rank count)
  int cols = 16;  ///< row width
  int iters = 4;
};

/// Fixed Dirichlet boundary (1.0 on the global frame), 0.0 interior.
double InitialValue(int gi, int gj, const StencilParams& p) {
  const bool frame =
      gi == 0 || gi == p.rows - 1 || gj == 0 || gj == p.cols - 1;
  return frame ? 1.0 : 0.0;
}

/// One Jacobi sweep over `rows` owned rows with explicit ghost rows;
/// returns the max |new - old| over updated cells. Frame cells are held
/// fixed. Shared verbatim by the simulated ranks and the host reference, so
/// both run identical arithmetic.
double Sweep(const std::vector<double>& ghost_up,
             const std::vector<double>& ghost_down,
             const std::vector<double>& cur, std::vector<double>& next,
             int rows, int first_global_row, const StencilParams& p) {
  const int cols = p.cols;
  double residual = 0.0;
  for (int i = 0; i < rows; ++i) {
    const int gi = first_global_row + i;
    for (int j = 0; j < cols; ++j) {
      const std::size_t at =
          static_cast<std::size_t>(i) * static_cast<std::size_t>(cols) +
          static_cast<std::size_t>(j);
      if (gi == 0 || gi == p.rows - 1 || j == 0 || j == cols - 1) {
        next[at] = cur[at];
        continue;
      }
      const double up =
          i == 0 ? ghost_up[static_cast<std::size_t>(j)] : cur[at - cols];
      const double down = i == rows - 1
                              ? ghost_down[static_cast<std::size_t>(j)]
                              : cur[at + cols];
      next[at] = 0.25 * (up + down + cur[at - 1] + cur[at + 1]);
      const double d = std::fabs(next[at] - cur[at]);
      if (d > residual) residual = d;
    }
  }
  return residual;
}

sim::Kernel StencilRank(core::Context& ctx, StencilParams p,
                        const mpi::ShimConfig& shim,
                        std::vector<double>* slab_out, double* residual_out) {
  mpi::Comm comm = mpi::MPI_Init(ctx, shim);
  int rank = 0, size = 0;
  mpi::MPI_Comm_rank(comm, &rank);
  mpi::MPI_Comm_size(comm, &size);
  const int local_rows = p.rows / size;
  const int first = rank * local_rows;
  const int cols = p.cols;
  std::vector<double> cur(
      static_cast<std::size_t>(local_rows) * static_cast<std::size_t>(cols));
  std::vector<double> next = cur;
  for (int i = 0; i < local_rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      cur[static_cast<std::size_t>(i * cols + j)] =
          InitialValue(first + i, j, p);
    }
  }
  std::vector<double> ghost_up(static_cast<std::size_t>(cols), 0.0);
  std::vector<double> ghost_down(static_cast<std::size_t>(cols), 0.0);
  double residual = 0.0;
  for (int it = 0; it < p.iters; ++it) {
    // Halo exchange, parity-ordered so sends always meet a posted receive:
    // even ranks send both halos first, odd ranks receive first.
    const double* top = cur.data();
    const double* bottom =
        cur.data() + static_cast<std::size_t>((local_rows - 1) * cols);
    const bool has_up = rank > 0;
    const bool has_down = rank < size - 1;
    if (rank % 2 == 0) {
      if (has_down) co_await mpi::MPI_Send(bottom, cols, rank + 1, comm);
      if (has_up) co_await mpi::MPI_Send(top, cols, rank - 1, comm);
      if (has_down) {
        co_await mpi::MPI_Recv(ghost_down.data(), cols, rank + 1, comm);
      }
      if (has_up) {
        co_await mpi::MPI_Recv(ghost_up.data(), cols, rank - 1, comm);
      }
    } else {
      if (has_up) {
        co_await mpi::MPI_Recv(ghost_up.data(), cols, rank - 1, comm);
      }
      if (has_down) {
        co_await mpi::MPI_Recv(ghost_down.data(), cols, rank + 1, comm);
      }
      if (has_up) co_await mpi::MPI_Send(top, cols, rank - 1, comm);
      if (has_down) co_await mpi::MPI_Send(bottom, cols, rank + 1, comm);
    }
    const double local =
        Sweep(ghost_up, ghost_down, cur, next, local_rows, first, p);
    co_await mpi::MPI_Allreduce(&local, &residual, 1, core::ReduceOp::kMax,
                                comm);
    cur.swap(next);
  }
  if (slab_out != nullptr) *slab_out = cur;
  if (residual_out != nullptr) *residual_out = residual;
}

/// Sequential reference: the same Sweep over the whole grid.
void HostStencil(const StencilParams& p, std::vector<double>& grid,
                 double& residual) {
  grid.assign(static_cast<std::size_t>(p.rows) *
                  static_cast<std::size_t>(p.cols),
              0.0);
  for (int i = 0; i < p.rows; ++i) {
    for (int j = 0; j < p.cols; ++j) {
      grid[static_cast<std::size_t>(i * p.cols + j)] = InitialValue(i, j, p);
    }
  }
  std::vector<double> next = grid;
  const std::vector<double> zeros(static_cast<std::size_t>(p.cols), 0.0);
  residual = 0.0;
  for (int it = 0; it < p.iters; ++it) {
    residual = Sweep(zeros, zeros, grid, next, p.rows, 0, p);
    grid.swap(next);
  }
}

}  // namespace

/// A ~10-line MPI Jacobi stencil ported to the SMI MPI shim: 1-D
/// row-decomposed grid on 4 ranks, parity-ordered halo Send/Recv per
/// iteration and an MPI_Allreduce(kMax) residual. Max is fold-order
/// independent, so the whole run must be bit-exact against a sequential
/// host execution of the same update.
void MpiStencil(Bench& bench) {
  constexpr int kRanks = 4;
  const StencilParams p;
  mpi::DecisionLog log;
  mpi::ShimConfig shim;
  shim.log = &log;
  shim.types = {core::DataType::kInt, core::DataType::kDouble};

  core::Cluster cluster(net::Topology::Bus(kRanks),
                        mpi::WorldSpec(kRanks, shim), bench.config());
  std::vector<std::vector<double>> slabs(kRanks);
  std::vector<double> residuals(kRanks, -1.0);
  for (int r = 0; r < kRanks; ++r) {
    cluster.AddKernel(r,
                      StencilRank(cluster.context(r), p, shim,
                                  &slabs[static_cast<std::size_t>(r)],
                                  &residuals[static_cast<std::size_t>(r)]),
                      "stencil");
  }
  Measured m = RunCluster(cluster, &log);

  std::vector<double> host_grid;
  double host_residual = 0.0;
  HostStencil(p, host_grid, host_residual);
  const std::size_t slab_size =
      static_cast<std::size_t>(p.rows / kRanks * p.cols);
  for (std::size_t r = 0; r < kRanks; ++r) {
    const std::vector<double> want(
        host_grid.begin() + static_cast<std::ptrdiff_t>(r * slab_size),
        host_grid.begin() + static_cast<std::ptrdiff_t>((r + 1) * slab_size));
    if (slabs[r] != want || residuals[r] != host_residual) {
      throw Error(Format("mpi_stencil: rank %zu grid or residual differs "
                         "from the host execution",
                         r));
    }
  }

  PerfReport report("mpi_stencil");
  report.SetParameter("ranks", kRanks);
  report.SetParameter("rows", p.rows);
  report.SetParameter("cols", p.cols);
  report.SetParameter("iters", p.iters);
  const std::string label = std::to_string(p.rows) + "x" +
                            std::to_string(p.cols) + "x" +
                            std::to_string(p.iters);
  AddResult(report, "stencil/" + label, m);
  json::Object validation;
  validation["grid_bit_exact"] = true;
  validation["residual"] = host_residual;
  report.SetSection("validation", json::Value(std::move(validation)));
  report.SetSection("selector", log.ToJson());
  bench.Finish(report, m.telemetry);

  PrintTitle("MPI-shim Jacobi stencil, " + std::to_string(kRanks) +
             " ranks, grid " + label);
  std::printf("cycles %llu, simulated %.2f us, residual %.6g "
              "(bit-exact vs host)\n",
              static_cast<unsigned long long>(m.run.cycles),
              m.run.microseconds, host_residual);
}

}  // namespace smi::bench
