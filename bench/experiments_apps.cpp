/// \file experiments_apps.cpp
/// Resource model (Tables 1 and 2) and application experiments: GESUMMV
/// (Fig. 13) and the stencil's strong and weak scaling (Figs. 15 and 16).

#include "apps/gesummv.h"
#include "apps/stencil.h"
#include "codegen/planner.h"
#include "experiments.h"
#include "resources/model.h"

namespace smi::bench {

/// Tables 1 and 2: FPGA resources of the SMI transport (interconnect and
/// communication kernels, 1 and 4 QSFPs) and of the collective support
/// kernels, from the structural model anchored on the paper's synthesis
/// measurements (resources/model.h). No simulation: the report carries the
/// model numbers as parameters and no results.
void Resources(Bench& bench) {
  using resources::Resources;
  using resources::Utilization;
  using resources::Utilize;
  PerfReport report("resources");

  PrintTitle("Table 1 — SMI resource consumption");
  std::printf("%-12s | %9s %9s %7s | %9s %9s %7s\n", "", "LUTs", "FFs",
              "M20Ks", "LUTs", "FFs", "M20Ks");
  std::printf("%-12s | %27s | %27s\n", "", "1 QSFP", "4 QSFPs");
  const Resources i1 = resources::Interconnect(1);
  const Resources i4 = resources::Interconnect(4);
  const Resources c1 = resources::CommunicationKernels(1);
  const Resources c4 = resources::CommunicationKernels(4);
  std::printf("%-12s | %9.0f %9.0f %7.0f | %9.0f %9.0f %7.0f\n", "Interconn.",
              i1.luts, i1.ffs, i1.m20ks, i4.luts, i4.ffs, i4.m20ks);
  std::printf("%-12s | %9.0f %9.0f %7.0f | %9.0f %9.0f %7.0f\n", "C. K.",
              c1.luts, c1.ffs, c1.m20ks, c4.luts, c4.ffs, c4.m20ks);
  const Utilization u1 = Utilize(resources::Transport(1));
  const Utilization u4 = Utilize(resources::Transport(4));
  std::printf("%-12s | %8.1f%% %8.1f%% %6.1f%% | %8.1f%% %8.1f%% %6.1f%%\n",
              "% of max", u1.luts_pct, u1.ffs_pct, u1.m20ks_pct, u4.luts_pct,
              u4.ffs_pct, u4.m20ks_pct);
  std::printf("\n(paper 4-QSFP %%: 1.7%% LUTs, 1.9%% FFs, 0.3%% M20Ks)\n\n");

  PrintTitle("Table 2 — collective support kernel resource consumption");
  std::printf("%-22s %9s %9s %7s %6s\n", "", "LUTs", "FFs", "M20Ks", "DSPs");
  struct Row {
    const char* name;
    core::CollKind kind;
  };
  for (const Row row : {Row{"Broadcast", core::CollKind::kBcast},
                        Row{"Reduce (FP32 SUM)", core::CollKind::kReduce},
                        Row{"Scatter (est.)", core::CollKind::kScatter},
                        Row{"Gather (est.)", core::CollKind::kGather}}) {
    const Resources r = resources::CollectiveKernel(row.kind);
    const Utilization u = Utilize(r);
    std::printf("%-22s %5.0f (%3.1f%%) %5.0f (%3.1f%%) %3.0f %6.0f\n",
                row.name, r.luts, u.luts_pct, r.ffs, u.ffs_pct, r.m20ks,
                r.dsps);
  }

  std::printf("\n");
  PrintTitle("fabric plan resource estimate (codegen) — stencil SPMD rank");
  core::ProgramSpec stencil_spec;
  for (const int p : {1, 2, 3, 4}) {
    stencil_spec.Add(core::OpSpec::Send(p, core::DataType::kFloat));
    stencil_spec.Add(core::OpSpec::Recv(p, core::DataType::kFloat));
  }
  const codegen::FabricPlan plan = codegen::Plan(stencil_spec, 4);
  const Resources res = plan.EstimateResources();
  const Utilization u = Utilize(res);
  std::printf("endpoints: %zu, support kernels: %zu\n", plan.endpoints.size(),
              plan.support_kernels.size());
  std::printf("LUTs %.0f (%.2f%%), FFs %.0f (%.2f%%), M20Ks %.0f (%.2f%%)\n",
              res.luts, u.luts_pct, res.ffs, u.ffs_pct, res.m20ks,
              u.m20ks_pct);
  report.SetParameter("transport4_luts", resources::Transport(4).luts);
  report.SetParameter("transport4_ffs", resources::Transport(4).ffs);
  report.SetParameter("transport4_m20ks", resources::Transport(4).m20ks);
  report.SetParameter("stencil_plan_luts", res.luts);
  report.SetParameter("stencil_plan_ffs", res.ffs);
  report.SetParameter("stencil_plan_m20ks", res.m20ks);
  bench.Finish(report);
}

namespace {

/// Time one apps:: entry point (anything returning `.run` and `.telemetry`).
template <typename F>
Measured Timed(F&& app) {
  const WallTimer timer;
  const auto result = app();
  return {result.run, timer.Seconds(), result.telemetry};
}

void GesummvShapes(const char* title, const std::vector<std::size_t>& rows,
                   const std::vector<std::size_t>& cols, Bench& bench,
                   PerfReport& report, Measured& dist) {
  PrintTitle(title);
  std::printf("%8s %8s | %14s %14s %10s\n", "rows", "cols", "single [ms]",
              "distrib [ms]", "speedup");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    apps::GesummvConfig config;
    config.rows = rows[i];
    config.cols = cols[i];
    config.cluster = bench.config();
    const std::string shape = std::to_string(config.rows) + "x" +
                              std::to_string(config.cols);
    const Measured single =
        Timed([&] { return apps::RunGesummvSingleFpga(config); });
    AddResult(report, "single/" + shape, single);
    dist = Timed([&] { return apps::RunGesummvDistributed(config); });
    AddResult(report, "distributed/" + shape, dist);
    std::printf("%8zu %8zu | %14.2f %14.2f %9.2fx\n", config.rows,
                config.cols, single.run.seconds * 1e3,
                dist.run.seconds * 1e3,
                static_cast<double>(single.run.cycles) /
                    static_cast<double>(dist.run.cycles));
  }
}

}  // namespace

/// Figure 13: GESUMMV speedup of the 2-rank distributed implementation over
/// the single-FPGA one, for square and rectangular matrices. The
/// distributed version has twice the aggregate memory bandwidth, so this
/// memory-bound routine should run ~2x faster.
void Gesummv(Bench& bench) {
  const bool full = bench.Flag("full");
  PerfReport report("gesummv");
  report.SetParameter("full", full);
  Measured dist;
  std::vector<std::size_t> square = {2048, 4096};
  std::vector<std::size_t> m = {4096, 8192};
  if (full) {
    square.push_back(8192);
    square.push_back(16384);
    m.push_back(16384);
  }
  const std::vector<std::size_t> narrow(m.size(), 2048);
  GesummvShapes("Figure 13 (left) — square matrices NxN", square, square,
                bench, report, dist);
  GesummvShapes("Figure 13 (middle) — rectangular 2048xM", narrow, m, bench,
                report, dist);
  GesummvShapes("Figure 13 (right) — rectangular Nx2048", m, narrow, bench,
                report, dist);
  std::printf("\n(paper: ~2x speedup in all cases; distributed runtimes "
              "0.7/2.8/10.8/51.1 ms for square sizes 2048..16384)\n");
  bench.Finish(report, dist.telemetry);
}

namespace {

/// One stencil run: a `grid`^2 grid on an rx x ry rank grid (torus cabling)
/// with `banks` DRAM banks per rank.
Measured RunStencil(int grid, int rx, int ry, int banks, int steps,
                    const core::ClusterConfig& config) {
  apps::StencilConfig sc;
  sc.nx_global = grid;
  sc.ny_global = grid;
  sc.rx = rx;
  sc.ry = ry;
  sc.banks = banks;
  sc.timesteps = steps;
  sc.cluster = config;
  return Timed([&] { return RunStencilSmi(sc); });
}

}  // namespace

/// Figure 15: strong scaling — one grid on {1 bank/1 FPGA, 4 banks/1 FPGA,
/// 1 bank/4 FPGAs, 4 banks/4 FPGAs, 4 banks/8 FPGAs}, reporting speedup
/// over the 1-bank/1-FPGA baseline.
void StencilStrong(Bench& bench) {
  const bool full = bench.Flag("full");
  const int grid = full ? 4096 : bench.Int("grid");
  const int steps = full ? 32 : 8;
  PerfReport report("stencil_strong");
  report.SetParameter("grid", grid);
  report.SetParameter("timesteps", steps);

  struct Config {
    const char* label;
    int banks;
    int rx, ry;
  };
  const Config configs[] = {
      {"1 bank/1 FPGA", 1, 1, 1},  {"4 banks/1 FPGA", 4, 1, 1},
      {"1 bank/4 FPGAs", 1, 2, 2}, {"4 banks/4 FPGAs", 4, 2, 2},
      {"4 banks/8 FPGAs", 4, 2, 4},
  };

  PrintTitle("Figure 15 — stencil strong scaling, " + std::to_string(grid) +
             "x" + std::to_string(grid) + " grid, " + std::to_string(steps) +
             " timesteps");
  std::printf("%-18s %12s %10s\n", "configuration", "time [ms]", "speedup");
  Measured m;
  double base_cycles = 0.0;
  for (const Config& c : configs) {
    m = RunStencil(grid, c.rx, c.ry, c.banks, steps, bench.config());
    AddResult(report, c.label, m);
    const double cycles = static_cast<double>(m.run.cycles);
    if (base_cycles == 0.0) base_cycles = cycles;
    std::printf("%-18s %12.2f %9.2fx\n", c.label, m.run.seconds * 1e3,
                base_cycles / cycles);
  }
  std::printf("\n(paper, 4096x4096/32: 1.0x 254ms, 3.5x, 3.5x, 12.3x, "
              "23.1x)\n");
  bench.Finish(report, m.telemetry);
}

/// Figure 16: weak scaling — average time per grid point (ns) for growing
/// grids with 4 banks per FPGA, on 4 and 8 ranks. At large grids 8 ranks
/// approach a 2x advantage.
void StencilWeak(Bench& bench) {
  constexpr int kSteps = 8;
  constexpr int kMaxGrid = 2048;
  PerfReport report("stencil_weak");
  report.SetParameter("timesteps", kSteps);
  report.SetParameter("max-grid", kMaxGrid);

  PrintTitle("Figure 16 — time per stencil point [nsec], 4 banks/FPGA, " +
             std::to_string(kSteps) + " timesteps");
  std::printf("%14s %12s %12s %10s\n", "grid", "4 ranks", "8 ranks",
              "ratio");
  Measured m;
  for (int grid = 512; grid <= kMaxGrid; grid *= 2) {
    double ns[2] = {0, 0};
    for (int i = 0; i < 2; ++i) {
      const int ry = i == 0 ? 2 : 4;
      m = RunStencil(grid, 2, ry, 4, kSteps, bench.config());
      AddResult(report,
                std::to_string(2 * ry) + "ranks/" + std::to_string(grid), m);
      const double points = static_cast<double>(grid) *
                            static_cast<double>(grid) *
                            static_cast<double>(kSteps);
      ns[i] = m.run.seconds * 1e9 / points;
    }
    std::printf("%7dx%-6d %12.4f %12.4f %9.2fx\n", grid, grid, ns[0], ns[1],
                ns[0] / ns[1]);
  }
  std::printf("\n(paper: 8 ranks approach 2x over 4 ranks at large "
              "grids)\n");
  bench.Finish(report, m.telemetry);
}

}  // namespace smi::bench
