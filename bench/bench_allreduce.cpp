/// \file bench_allreduce.cpp
/// Allreduce latency/bandwidth sweep: the linear (flat-tree) composition vs
/// the binomial tree vs the per-size selector, driven end-to-end through
/// the MPI shim (so the sweep exercises the same path an MPI port uses).
/// The "selector" series records which algorithm the rule table picked at
/// each message size — the JSON report shows the switch point explicitly.

#include <cstdlib>
#include <vector>

#include "baseline/host_model.h"
#include "baseline/host_reference.h"
#include "bench_common.h"
#include "mpi/mpi.h"

namespace {

using namespace smi;
using namespace smi::bench;

/// Force one algorithm regardless of size (single always-matching rule).
mpi::Selector ForceAlgo(core::CollAlgo algo) {
  return mpi::Selector({mpi::SelectorRule{std::nullopt, 0, 0, 0, 0, algo}});
}

/// Contribution of `rank` — small exact integers, so the float sum is
/// bit-exact in any fold order and comparable against the host reference.
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

net::Topology TopologyFor(int ranks) {
  if (ranks == 8) return net::Topology::Torus2D(2, 4);
  if (ranks == 16) return net::Topology::Torus2D(4, 4);
  return net::Topology::Bus(ranks);
}

double RunUs(int ranks, int count, const mpi::Selector& selector,
             const std::string& label, PerfReport& report,
             const core::ClusterConfig& config, mpi::DecisionLog* log,
             core::RunTelemetry& obs) {
  mpi::ShimConfig shim;
  shim.selector = selector;
  shim.log = log;
  shim.types = {core::DataType::kFloat};
  core::Cluster cluster(TopologyFor(ranks), mpi::WorldSpec(ranks, shim),
                        config);
  std::vector<float> rank0;
  for (int r = 0; r < ranks; ++r) {
    cluster.AddKernel(r,
                      AllreduceApp(cluster.context(r), count, shim,
                                   r == 0 ? &rank0 : nullptr),
                      "app");
  }
  const WallTimer timer;
  const core::RunResult result = cluster.Run();
  if (log != nullptr) cluster.Annotate("selector", log->ToJson());
  obs = cluster.CaptureTelemetry();
  report.AddResult(label + "/" + std::to_string(count), result.cycles,
                   result.microseconds, timer.Seconds());

  // Validate against the bit-exact host reference.
  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < ranks; ++r) contribs.push_back(Contribution(r, count));
  const std::vector<float> expect =
      baseline::HostAllreduce(contribs, core::ReduceOp::kAdd);
  if (rank0 != expect) {
    std::fprintf(stderr, "FAIL: %s/%d does not match the host reference\n",
                 label.c_str(), count);
    std::exit(1);
  }
  return result.microseconds;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_allreduce",
                "Allreduce: linear vs tree vs per-size selector (MPI shim)");
  cli.AddInt("ranks", 8, "world size (8 -> 2x4 torus, 16 -> 4x4 torus, "
                         "other -> bus)");
  cli.AddInt("max-elems", 16384, "largest message in FP32 elements");
  AddJsonOption(cli);
  AddObsOptions(cli);
  if (!cli.Parse(argc, argv)) return 2;

  const int ranks = static_cast<int>(cli.GetInt("ranks"));
  const int max_elems = static_cast<int>(cli.GetInt("max-elems"));

  core::ClusterConfig config;
  ConfigureObs(cli, config);
  core::RunTelemetry obs;
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
  for (int count = 16; count <= max_elems; count *= 4) {
    const double linear =
        RunUs(ranks, count, ForceAlgo(core::CollAlgo::kLinear),
              "allreduce/linear", report, config, nullptr, obs);
    const double tree =
        RunUs(ranks, count, ForceAlgo(core::CollAlgo::kTree),
              "allreduce/tree", report, config, nullptr, obs);
    const double selected = RunUs(ranks, count, defaults,
                                  "allreduce/selector", report, config, &log,
                                  obs);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * sizeof(float);
    const core::CollAlgo chosen =
        defaults.Choose(core::CollKind::kAllreduce, bytes, ranks);
    const char* chosen_name = core::CollAlgoName(chosen);
    const double host_us = host.AllreduceUs(bytes, ranks);
    std::printf("%10d %12.2f %12.2f %12.2f %10s %12.2f\n", count, linear,
                tree, selected, chosen_name, host_us);
    json::Object d;
    d["elems"] = json::Value(count);
    d["bytes"] = json::Value(static_cast<std::int64_t>(bytes));
    d["algorithm"] = json::Value(chosen_name);
    d["simulated_microseconds"] = json::Value(selected);
    d["host_model_microseconds"] = json::Value(host_us);
    decisions.push_back(json::Value(std::move(d)));
  }

  json::Object selector;
  selector["per_size"] = json::Value(std::move(decisions));
  selector["log"] = log.ToJson();
  selector["rules"] = defaults.ToJson();
  report.SetSection("selector", json::Value(std::move(selector)));
  MaybeWriteObs(cli, report, obs);
  MaybeWriteReport(cli, report);
  std::printf("validation: all runs match the host reference\n");
  return 0;
}
