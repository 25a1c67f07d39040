#include "mpi/selector.h"

#include "common/error.h"

namespace smi::mpi {
namespace {

// The selector routes between the linear and tree ports the MPI shim
// instantiates; the in-network algo is not among them.
core::CollAlgo AlgoFromName(const std::string& name, std::size_t rule) {
  for (const core::CollAlgo algo :
       {core::CollAlgo::kLinear, core::CollAlgo::kTree}) {
    if (name == core::CollAlgoName(algo)) return algo;
  }
  throw ParseError("selector rule " + std::to_string(rule) +
                   ": unknown algorithm '" + name + "'");
}

std::optional<core::CollKind> KindFromName(const std::string& name,
                                           std::size_t rule) {
  if (name == "any") return std::nullopt;
  for (const core::CollKind k :
       {core::CollKind::kBcast, core::CollKind::kReduce,
        core::CollKind::kScatter, core::CollKind::kGather,
        core::CollKind::kAllreduce}) {
    if (name == core::CollKindName(k)) return k;
  }
  throw ParseError("selector rule " + std::to_string(rule) +
                   ": unknown collective '" + name + "'");
}

std::uint64_t GetBound(const json::Value& o, const char* key,
                       std::size_t rule) {
  if (!o.contains(key)) return 0;
  const std::int64_t v = o.at(key).as_int();
  if (v < 0) {
    throw ParseError("selector rule " + std::to_string(rule) + ": " + key +
                     " must be non-negative");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

Selector Selector::Defaults() {
  std::vector<SelectorRule> rules;
  // comm <= 3: the tree degenerates to (nearly) the linear scheme but pays
  // its per-tile handshakes; always linear.
  rules.push_back(SelectorRule{std::nullopt, 1, 3, 0, 0,
                               core::CollAlgo::kLinear});
  // comm 4-7: the tree wins once the message amortizes the extra hop
  // latency (~4 KiB per rank on the torus sweeps).
  rules.push_back(SelectorRule{std::nullopt, 4, 7, 4096, 0,
                               core::CollAlgo::kTree});
  // comm >= 8: root serialization dominates early; switch from 256 B.
  rules.push_back(SelectorRule{std::nullopt, 8, 0, 256, 0,
                               core::CollAlgo::kTree});
  return Selector(std::move(rules));
}

core::CollAlgo Selector::Choose(core::CollKind kind, std::uint64_t bytes,
                                int comm_size) const {
  core::CollAlgo algo = core::CollAlgo::kLinear;
  for (const SelectorRule& r : rules_) {
    if (r.kind && *r.kind != kind) continue;
    if (comm_size < r.min_comm) continue;
    if (r.max_comm != 0 && comm_size > r.max_comm) continue;
    if (bytes < r.min_bytes) continue;
    if (r.max_bytes != 0 && bytes > r.max_bytes) continue;
    algo = r.algo;
    break;
  }
  // Only the linear Scatter/Gather support kernels exist (§4.4 extends the
  // tree scheme to Bcast and Reduce).
  if (kind == core::CollKind::kScatter || kind == core::CollKind::kGather) {
    algo = core::CollAlgo::kLinear;
  }
  return algo;
}

json::Value Selector::ToJson() const {
  json::Array rules;
  for (const SelectorRule& r : rules_) {
    json::Object o;
    o["collective"] =
        json::Value(r.kind ? core::CollKindName(*r.kind) : "any");
    o["min_comm"] = json::Value(r.min_comm);
    o["max_comm"] = json::Value(r.max_comm);
    o["min_bytes"] = json::Value(static_cast<std::int64_t>(r.min_bytes));
    o["max_bytes"] = json::Value(static_cast<std::int64_t>(r.max_bytes));
    o["algorithm"] = json::Value(core::CollAlgoName(r.algo));
    rules.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["rules"] = json::Value(std::move(rules));
  return json::Value(std::move(root));
}

Selector Selector::FromJson(const json::Value& v) {
  std::vector<SelectorRule> rules;
  const json::Array& arr = v.at("rules").as_array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const json::Value& o = arr[i];
    SelectorRule r;
    r.kind = KindFromName(o.get_string("collective", "any"), i);
    const std::uint64_t min_comm = GetBound(o, "min_comm", i);
    const std::uint64_t max_comm = GetBound(o, "max_comm", i);
    r.min_comm = static_cast<int>(min_comm);
    r.max_comm = static_cast<int>(max_comm);
    r.min_bytes = GetBound(o, "min_bytes", i);
    r.max_bytes = GetBound(o, "max_bytes", i);
    if (r.max_comm != 0 && r.max_comm < r.min_comm) {
      throw ParseError("selector rule " + std::to_string(i) +
                       ": max_comm < min_comm");
    }
    if (r.max_bytes != 0 && r.max_bytes < r.min_bytes) {
      throw ParseError("selector rule " + std::to_string(i) +
                       ": max_bytes < min_bytes");
    }
    r.algo = AlgoFromName(o.at("algorithm").as_string(), i);
    rules.push_back(r);
  }
  return Selector(std::move(rules));
}

Selector Selector::FromFile(const std::string& path) {
  return FromJson(json::ParseFile(path));
}

}  // namespace smi::mpi
