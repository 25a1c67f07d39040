#include "mpi/mpi.h"

namespace smi::mpi {
namespace {

int KindIndex(core::CollKind kind) {
  switch (kind) {
    case core::CollKind::kBcast: return 0;
    case core::CollKind::kReduce: return 1;
    case core::CollKind::kScatter: return 2;
    case core::CollKind::kGather: return 3;
    case core::CollKind::kAllreduce: return 4;
  }
  throw ConfigError("unknown collective kind");
}

int TypeIndex(core::DataType type) {
  switch (type) {
    case core::DataType::kInt: return 0;
    case core::DataType::kFloat: return 1;
    case core::DataType::kDouble: return 2;
    default:
      throw ConfigError(std::string("the MPI shim instantiates collectives "
                                    "for int/float/double, not ") +
                        core::DataTypeName(type));
  }
}

}  // namespace

int CollectivePort(int world_size, core::CollKind kind, core::CollAlgo algo,
                   core::DataType type) {
  const int algo_index = algo == core::CollAlgo::kTree ? 1 : 0;
  return world_size + KindIndex(kind) * 6 + algo_index * 3 + TypeIndex(type);
}

core::ProgramSpec WorldSpec(int world_size, const ShimConfig& config) {
  if (world_size < 1) throw ConfigError("MPI shim world must be non-empty");
  if (world_size + 30 > 256) {
    throw ConfigError("MPI shim needs world_size + 30 <= 256 (8-bit ports)");
  }
  core::ProgramSpec spec;
  // P2p: port s carries messages sent by rank s. The spec is SPMD, so every
  // rank gets both endpoints of every port; the endpoint types are metadata
  // only (transient channels carry their own datatype at runtime).
  for (int s = 0; s < world_size; ++s) {
    spec.Add(core::OpSpec::Send(s, core::DataType::kInt));
    spec.Add(core::OpSpec::Recv(s, core::DataType::kInt));
  }
  for (const core::DataType type : config.types) {
    (void)TypeIndex(type);  // validate
    using K = core::CollKind;
    using A = core::CollAlgo;
    for (const A algo : {A::kLinear, A::kTree}) {
      spec.Add(core::OpSpec::Bcast(CollectivePort(world_size, K::kBcast, algo,
                                                  type),
                                   type, algo));
      spec.Add(core::OpSpec::Reduce(
          CollectivePort(world_size, K::kReduce, algo, type), type, algo));
      spec.Add(core::OpSpec::Allreduce(
          CollectivePort(world_size, K::kAllreduce, algo, type), type, algo));
    }
    // Scatter/Gather only exist in the linear variant; their tree port
    // slots stay unused.
    spec.Add(core::OpSpec::Scatter(
        CollectivePort(world_size, K::kScatter, A::kLinear, type), type));
    spec.Add(core::OpSpec::Gather(
        CollectivePort(world_size, K::kGather, A::kLinear, type), type));
  }
  return spec;
}

void DecisionLog::Record(core::CollKind kind, core::CollAlgo algo,
                         std::uint64_t bytes, int comm_size) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& entry = decisions_[Key{kind, bytes, comm_size}];
  entry.first = algo;
  ++entry.second;
}

json::Value DecisionLog::ToJson() const {
  const std::lock_guard<std::mutex> lock(mu_);
  json::Array out;
  for (const auto& [key, value] : decisions_) {
    json::Object o;
    o["collective"] = json::Value(core::CollKindName(std::get<0>(key)));
    o["bytes"] = json::Value(static_cast<std::int64_t>(std::get<1>(key)));
    o["comm"] = json::Value(std::get<2>(key));
    o["algorithm"] = json::Value(core::CollAlgoName(value.first));
    o["calls"] = json::Value(static_cast<std::int64_t>(value.second));
    out.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["decisions"] = json::Value(std::move(out));
  return json::Value(std::move(root));
}

}  // namespace smi::mpi
