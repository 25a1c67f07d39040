/// \file experiments.cpp
/// The driver: registry, shared options, result checks and report
/// read-back. Usage:
///
///   experiments <name> [options]      run one experiment (--help: options)
///   experiments --list                print the registered names
///   experiments check FILE...         re-check written BENCH_<name>.json
///
/// Exit status: 0 when every check passed, 1 on a failed check or a
/// simulation error, 2 on a usage error.

#include "experiments.h"

#include <functional>
#include <set>

#include "common/error.h"
#include "sim/fidelity.h"

namespace smi::bench {
namespace {

struct Experiment {
  const char* name;
  const char* title;
  unsigned shared;
  void (*options)(CliParser& cli);  ///< experiment-specific options
  void (*run)(Bench& bench);
};

const Experiment kExperiments[] = {
    {"latency", "Table 3: p2p latency (usecs)", kObs | kFaults | kFidelity,
     [](CliParser& cli) {
       cli.AddInt("rounds", 16, "ping-pong rounds to average over");
     },
     Latency},
    {"injection", "Table 4: injection rate vs R", kObs | kFaults,
     [](CliParser& cli) {
       cli.AddInt("messages", 4000, "messages to inject per configuration");
     },
     Injection},
    {"bandwidth", "Fig. 9: bandwidth vs message size",
     kObs | kFaults | kFidelity, nullptr, Bandwidth},
    {"resources", "Tables 1-2: SMI resource consumption", kModelOnly, nullptr,
     Resources},
    {"bcast", "Fig. 10: Bcast time vs message size", kObs, nullptr, Bcast},
    {"reduce", "Fig. 11: Reduce time vs message size", kObs,
     [](CliParser& cli) {
       cli.AddFlag("credit-sweep",
                   "also sweep the credit tile size (ablation)");
     },
     Reduce},
    {"gesummv", "Fig. 13: GESUMMV single vs distributed", kObs,
     [](CliParser& cli) {
       cli.AddFlag("full", "run the paper's full sizes up to 16384 (slow)");
     },
     Gesummv},
    {"stencil_strong", "Fig. 15: stencil strong scaling", kObs | kFidelity,
     [](CliParser& cli) {
       cli.AddInt("grid", 2048, "grid size (NxN)");
       cli.AddFlag("full", "run the paper's 4096x4096, 32 timesteps (slow)");
     },
     StencilStrong},
    {"stencil_weak", "Fig. 16: stencil weak scaling", kObs, nullptr,
     StencilWeak},
    {"collective_tree",
     "ablation: linear vs tree collectives, 8 ranks, torus", kObs, nullptr,
     CollectiveTree},
    {"fifo_depth", "ablation: endpoint FIFO depth (asynchronicity degree)",
     kObs,
     [](CliParser& cli) {
       cli.AddInt("elems", 20000, "message length in ints");
     },
     FifoDepth},
    {"scatter_gather", "Scatter/Gather time vs segment size (torus)", kObs,
     nullptr, ScatterGather},
    {"sim_parallel", "parallel scheduler scaling on busy ring streams", kObs,
     nullptr, SimParallel},
    {"allreduce",
     "Allreduce: linear vs tree vs per-size selector (MPI shim)", kObs,
     [](CliParser& cli) {
       cli.AddInt("ranks", 8,
                  "world size (8 -> 2x4 torus, 16 -> 4x4 torus, "
                  "other -> bus)");
       cli.AddInt("max-elems", 16384, "largest message in FP32 elements");
     },
     Allreduce},
    {"mpi_stencil",
     "Jacobi stencil ported to the MPI shim (halo exchange + Allreduce "
     "residual), validated bit-exact vs host",
     kObs, nullptr, MpiStencil},
    {"fidelity",
     "flow-level fast path: speedup and divergence vs cycle accuracy",
     kCalibration,
     [](CliParser& cli) {
       cli.AddInt("ranks", 64,
                  "largest relay-chain length; sweeps 8,16,..,ranks");
       cli.AddInt("payloads", 200000, "payloads streamed through the chain");
     },
     Fidelity},
    {"scaleout",
     "bisection-exchange bandwidth sweep over scale-out topologies (torus / "
     "fat-tree / dragonfly, 16-512 ranks)",
     kObs | kFidelity,
     [](CliParser& cli) {
       cli.AddInt("max-ranks", 512,
                  "largest compute rank count (power of two)");
     },
     Scaleout},
    {"innet", "tree-Reduce vs reduce-in-transit combining, 8-64 ranks", kObs,
     nullptr, Innet},
};

const Experiment* FindExperiment(const std::string& name) {
  for (const Experiment& e : kExperiments) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: experiments <name> [options]   (<name> --help lists "
               "its options)\n"
               "       experiments --list\n"
               "       experiments check BENCH_<name>.json...\n"
               "experiments:\n");
  for (const Experiment& e : kExperiments) {
    std::fprintf(stderr, "  %-16s %s\n", e.name, e.title);
  }
}

void PrintCheck(const std::string& name, const char* status,
                const std::string& detail) {
  std::fprintf(stderr, "check %s: %s%s%s%s\n", name.c_str(), status,
               detail.empty() ? "" : " (", detail.c_str(),
               detail.empty() ? "" : ")");
}

// --- Document validation -------------------------------------------------

struct Invalid {
  std::string what;
};

void Require(bool ok, const std::string& what) {
  if (!ok) throw Invalid{what};
}

void RequireNumbers(const json::Value& row,
                    std::initializer_list<const char*> keys,
                    const std::string& where) {
  for (const char* key : keys) {
    Require(row.contains(key), where + " missing \"" + key + "\"");
    // The parser guarantees finiteness; a null here means a non-finite
    // value was serialized (json::DumpNumber emits null for nan/inf).
    Require(row.at(key).is_number(),
            where + " \"" + key +
                "\" is not a finite number (nan/inf serialize as null)");
  }
}

void RequireString(const json::Value& row, const char* key,
                   const std::string& where) {
  Require(row.is_object() && row.contains(key) && row.at(key).is_string(),
          where + " missing string \"" + key + "\"");
}

const json::Array& RequireArray(const json::Value& doc, const char* key,
                                const std::string& where, bool non_empty) {
  Require(doc.contains(key) && doc.at(key).is_array(),
          where + " missing array \"" + key + "\"");
  Require(!non_empty || !doc.at(key).as_array().empty(),
          where + " \"" + key + "\" is empty");
  return doc.at(key).as_array();
}

const json::Object& RequireNumberMap(const json::Value& doc, const char* key,
                                     const std::string& where) {
  Require(doc.contains(key) && doc.at(key).is_object(),
          where + " missing object \"" + key + "\"");
  for (const auto& [k, v] : doc.at(key).as_object()) {
    Require(v.is_number(), where + " \"" + key + "\" entry \"" + k +
                               "\" is not a finite number");
  }
  return doc.at(key).as_object();
}

void RequireOneOf(const std::string& value, std::set<std::string> allowed,
                  const std::string& where) {
  Require(allowed.count(value) != 0,
          where + " has unexpected value \"" + value + "\"");
}

/// "fidelity" section: mode plus the modeled-cycle fraction and transition
/// counts, so a regression that stops the flow model from engaging shows up
/// as a malformed or missing section, not as a silently slower run.
void CheckFidelitySection(const json::Value& fid) {
  Require(fid.is_object(), "\"fidelity\" is not an object");
  RequireString(fid, "mode", "fidelity");
  RequireOneOf(fid.at("mode").as_string(), {"cycle", "flow", "auto"},
               "fidelity \"mode\"");
  RequireNumbers(fid, {"modeled_fraction", "promotions", "thrash_warnings"},
                 "fidelity");
  const double frac = fid.at("modeled_fraction").as_double();
  Require(frac >= 0.0 && frac <= 1.0,
          "fidelity \"modeled_fraction\" out of [0, 1]");
  RequireNumberMap(fid, "demotions", "fidelity");
  if (!fid.contains("links")) return;
  for (const json::Value& row : RequireArray(fid, "links", "fidelity", false)) {
    RequireString(row, "link", "fidelity link row");
    RequireNumbers(row,
                   {"stepped_cycles", "modeled_cycles", "modeled_fraction"},
                   "fidelity link row");
  }
}

/// "scaleout" section: per-point rows plus the per-rank retention summary.
void CheckScaleoutSection(const json::Value& sc) {
  Require(sc.is_object(), "\"scaleout\" is not an object");
  for (const json::Value& row : RequireArray(sc, "points", "scaleout", true)) {
    RequireString(row, "topology", "scaleout point");
    RequireString(row, "scheme", "scaleout point");
    RequireNumbers(row,
                   {"ranks", "total_ranks", "cycles",
                    "aggregate_bytes_per_cycle", "per_rank_bytes_per_cycle",
                    "modeled_fraction"},
                   "scaleout point");
    Require(row.contains("routing_fell_back") &&
                row.at("routing_fell_back").is_bool(),
            "scaleout point missing bool \"routing_fell_back\"");
  }
  RequireNumberMap(sc, "per_rank_retention", "scaleout");
}

/// "innet" section: tree-vs-innet rows plus the per-rank-count ratio maps.
void CheckInnetSection(const json::Value& in) {
  Require(in.is_object(), "\"innet\" is not an object");
  for (const json::Value& row : RequireArray(in, "points", "innet", true)) {
    RequireString(row, "algo", "innet point");
    RequireOneOf(row.at("algo").as_string(), {"tree", "innet"},
                 "innet point \"algo\"");
    RequireNumbers(row,
                   {"ranks", "count", "cycles", "link_bytes",
                    "handler_combined", "handler_splits"},
                   "innet point");
  }
  for (const auto& [ranks, r] :
       RequireNumberMap(in, "link_bytes_ratio", "innet")) {
    Require(r.as_double() > 0.0,
            "innet link-byte ratio \"" + ranks + "\" is not positive");
  }
  RequireNumberMap(in, "latency_ratio", "innet");
}

/// Why `doc` is not a valid BENCH_<name>.json report, or "" if it is. The
/// JSON parser already rejects bare nan/inf and non-finite numbers are
/// written as null, so a null where a metric belongs is rejected here.
std::string ReportProblem(const json::Value& doc, bool expect_results) {
  try {
    RequireString(doc, "name", "report");
    Require(doc.contains("parameters") && doc.at("parameters").is_object(),
            "missing object \"parameters\"");
    for (const json::Value& row :
         RequireArray(doc, "results", "report", expect_results)) {
      RequireString(row, "name", "result row");
      RequireNumbers(row, {"cycles", "simulated_microseconds", "wall_seconds"},
                     "result \"" + row.at("name").as_string() + "\"");
    }
    if (doc.contains("fidelity")) CheckFidelitySection(doc.at("fidelity"));
    if (doc.contains("scaleout")) CheckScaleoutSection(doc.at("scaleout"));
    if (doc.contains("innet")) CheckInnetSection(doc.at("innet"));
  } catch (const Invalid& e) {
    return e.what;
  }
  return "";
}

bool NonEmpty(const json::Value& v) {
  return (v.is_array() && !v.as_array().empty()) ||
         (v.is_object() && !v.as_object().empty());
}

std::string CountersProblem(const json::Value& doc) {
  for (const char* key : {"total_cycles", "fifos", "cks", "links", "kernels"}) {
    if (!doc.contains(key)) return std::string("missing \"") + key + "\"";
  }
  if (!NonEmpty(doc.at("fifos")) || !NonEmpty(doc.at("kernels"))) {
    return "no fifos or no kernels";
  }
  return "";
}

std::string TraceProblem(const json::Value& doc) {
  if (!doc.contains("traceEvents") || !NonEmpty(doc.at("traceEvents"))) {
    return "no traceEvents";
  }
  std::set<std::string> phases;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    phases.insert(ev.get_string("ph", ""));
  }
  if (phases != std::set<std::string>{"M", "X"}) {
    return "event phases are not exactly {M, X}";
  }
  return "";
}

/// Read `path` back and check it: `problem` says what is wrong with the
/// parsed document, or returns "".
void CheckFile(const std::string& name, const std::string& path,
               const std::function<std::string(const json::Value&)>& problem,
               bool* failed) {
  std::string why;
  try {
    why = problem(json::ParseFile(path));
  } catch (const Error& e) {
    why = std::string("parse error: ") + e.what();
  }
  PrintCheck(name + " " + path, why.empty() ? "ok" : "FAILED", why);
  if (!why.empty()) *failed = true;
}

/// `experiments check FILE...`: validate reports written earlier.
int CheckReports(int argc, char** argv) {
  if (argc == 0) {
    PrintUsage();
    return 2;
  }
  bool failed = false;
  for (int i = 0; i < argc; ++i) {
    CheckFile("report", argv[i], [](const json::Value& doc) {
      const Experiment* e = FindExperiment(doc.get_string("name", ""));
      return ReportProblem(doc, e == nullptr || (e->shared & kModelOnly) == 0);
    }, &failed);
  }
  return failed ? 1 : 0;
}

}  // namespace

// --- Bench ---------------------------------------------------------------

Bench::Bench(std::string name, const CliParser& cli, unsigned shared)
    : name_(std::move(name)), cli_(cli), shared_(shared) {
  if ((shared & kObs) != 0) {
    config_.engine.collect_counters = !cli.GetString("counters").empty();
    config_.engine.collect_trace = !cli.GetString("trace").empty();
  }
  if ((shared & kFidelityMode) != 0) {
    config_.engine.fidelity.mode =
        sim::ParseFidelityMode(cli.GetString("fidelity"));
  }
  if ((shared & kCalibration) != 0) {
    const std::string& calib = cli.GetString("fidelity-calibration");
    if (!calib.empty()) {
      config_.engine.fidelity.calibration =
          sim::FidelityCalibration::FromFile(calib);
    }
  }
  if ((shared & kFaults) != 0 && !cli.GetString("fault-plan").empty()) {
    fault_plan_ = fault::FaultPlan::Parse(cli.GetString("fault-plan"));
    const std::int64_t seed = cli.GetInt("fault-seed");
    if (seed != 0) fault_plan_.seed = static_cast<std::uint64_t>(seed);
  }
}

core::ClusterConfig Bench::FaultConfig() const {
  core::ClusterConfig c;
  c.fabric.fault = fault_plan_;
  c.engine.collect_counters = config_.engine.collect_counters;
  c.engine.collect_trace = config_.engine.collect_trace;
  return c;
}

void Bench::Check(const std::string& name, bool ok,
                  const std::string& detail) {
  PrintCheck(name_ + "." + name, ok ? "ok" : "FAILED", detail);
  if (!ok) failed_ = true;
}

void Bench::Skip(const std::string& name, const std::string& why) {
  PrintCheck(name_ + "." + name, "skipped", why);
}

void Bench::CheckFaults(const json::Value& faults) {
  const json::Value& totals = faults.at("totals");
  const auto count = [&](const char* key) { return totals.get_int(key, 0); };
  Check("faults.enabled", faults.get_bool("enabled", false), "");
  Check("faults.seed",
        faults.get_int("seed", -1) ==
            static_cast<std::int64_t>(fault_plan_.seed),
        "plan seed " + std::to_string(fault_plan_.seed));
  Check("faults.sections",
        faults.contains("failovers") && faults.contains("links"),
        "\"failovers\" and \"links\"");
  Check("faults.delivered", count("delivered") > 0,
        std::to_string(count("delivered")));
  Check("faults.checksums",
        count("checksum_failures") <= count("wire_corruptions"),
        "checksum failures <= wire corruptions");
  // A run that sends few frames for its drop rate may see no drop at all.
  const double expected_drops =
      fault_plan_.default_spec.drop_rate *
      static_cast<double>(count("frames_sent"));
  if (expected_drops < 5.0) {
    Skip("faults.drops", Format("%.1f drops expected, need 5", expected_drops));
    return;
  }
  Check("faults.drops", count("wire_drops") > 0,
        std::to_string(count("wire_drops")));
  Check("faults.retransmits", count("retransmits") > 0,
        std::to_string(count("retransmits")));
}

void Bench::Finish(PerfReport& report, const core::RunTelemetry& obs) {
  // The graceful-degradation report of the last faulty run.
  if (!obs.faults.is_null()) CheckFaults(obs.faults);
  if (!obs.summary.is_null()) {
    Check("observability.total_cycles",
          obs.summary.get_int("total_cycles", 0) > 0, "");
  }
  report.SetSection("faults", obs.faults);
  report.SetSection("fidelity", obs.fidelity);
  report.SetSection("observability", obs.summary);

  const auto write_doc = [&](const char* option, const char* prefix,
                             const json::Value& doc,
                             std::string (*problem)(const json::Value&)) {
    if ((shared_ & kObs) == 0 || doc.is_null()) return;
    std::string path = cli_.GetString(option);
    if (path.empty()) return;
    if (path == "auto") path = prefix + report.name() + ".json";
    json::WriteFile(path, doc);
    std::printf("wrote %s\n", path.c_str());
    CheckFile(option, path, problem, &failed_);
  };
  write_doc("counters", "COUNTERS_", obs.counters, CountersProblem);
  write_doc("trace", "TRACE_", obs.trace, TraceProblem);

  std::string path = cli_.GetString("json");
  if (path.empty()) return;
  if (path == "auto") path = PerfReport::DefaultPath(report.name());
  report.Write(path);
  std::printf("\nwrote %s\n", path.c_str());
  const bool expect_results = (shared_ & kModelOnly) == 0;
  CheckFile("report", path, [&](const json::Value& doc) {
    return ReportProblem(doc, expect_results);
  }, &failed_);
}

}  // namespace smi::bench

int main(int argc, char** argv) {
  using namespace smi;
  using namespace smi::bench;
  const std::string name = argc >= 2 ? argv[1] : "";
  if (name == "--list") {
    for (const Experiment& e : kExperiments) std::printf("%s\n", e.name);
    return 0;
  }
  if (name == "check") return CheckReports(argc - 2, argv + 2);
  const Experiment* e = FindExperiment(name);
  if (e == nullptr) {
    if (!name.empty()) {
      std::fprintf(stderr, "unknown experiment '%s'\n", name.c_str());
    }
    PrintUsage();
    return 2;
  }

  CliParser cli("experiments " + name, e->title);
  cli.AddString("json", "",
                "write a machine-readable BENCH_<name>.json report to this "
                "path (\"auto\" = ./BENCH_<name>.json)");
  if ((e->shared & kObs) != 0) {
    cli.AddString("counters", "",
                  "write per-entity telemetry counters (FIFO stalls, CK "
                  "polling, link utilization) to this path "
                  "(\"auto\" = ./COUNTERS_<name>.json)");
    cli.AddString("trace", "",
                  "write a Chrome trace-event timeline (kernel activity, "
                  "packet hops) to this path (\"auto\" = ./TRACE_<name>.json)");
  }
  if ((e->shared & kFaults) != 0) {
    cli.AddString("fault-plan", "",
                  "add a faulty series over reliable links: an inline spec "
                  "(\"drop=0.01,corrupt=0.001,budget=4\") or a JSON plan "
                  "file (see src/fault/fault.h)");
    cli.AddInt("fault-seed", 0,
               "override the fault plan's seed (0 = keep the plan's)");
  }
  if ((e->shared & kFidelityMode) != 0) {
    cli.AddString("fidelity", "cycle",
                  "link simulation fidelity: \"cycle\" (cycle-accurate), "
                  "\"flow\" (analytic flow model), or \"auto\" (flow with "
                  "automatic drop-down to cycle accuracy; see "
                  "sim/fidelity.h)");
  }
  if ((e->shared & kCalibration) != 0) {
    cli.AddString("fidelity-calibration", "",
                  "flow-model calibration constants, a JSON file like "
                  "data/fidelity_calibration.json (empty = identity "
                  "constants)");
  }
  if (e->options != nullptr) e->options(cli);
  if (!cli.Parse(argc - 1, argv + 1)) return 2;

  try {
    Bench bench(name, cli, e->shared);
    e->run(bench);
    return bench.exit_code();
  } catch (const Error& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
}
