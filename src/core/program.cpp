#include "core/program.h"

#include <set>

#include "common/error.h"

namespace smi::core {

const char* OpKindName(OpSpec::Kind kind) {
  switch (kind) {
    case OpSpec::Kind::kSend: return "send";
    case OpSpec::Kind::kRecv: return "recv";
    case OpSpec::Kind::kBcast: return "bcast";
    case OpSpec::Kind::kReduce: return "reduce";
    case OpSpec::Kind::kScatter: return "scatter";
    case OpSpec::Kind::kGather: return "gather";
    case OpSpec::Kind::kAllreduce: return "allreduce";
  }
  return "?";
}

namespace {

OpSpec::Kind KindFromName(const std::string& name) {
  if (name == "send") return OpSpec::Kind::kSend;
  if (name == "recv") return OpSpec::Kind::kRecv;
  if (name == "bcast") return OpSpec::Kind::kBcast;
  if (name == "reduce") return OpSpec::Kind::kReduce;
  if (name == "scatter") return OpSpec::Kind::kScatter;
  if (name == "gather") return OpSpec::Kind::kGather;
  if (name == "allreduce") return OpSpec::Kind::kAllreduce;
  throw ParseError("unknown op kind: " + name);
}

DataType TypeFromName(const std::string& name) {
  if (name == "SMI_CHAR") return DataType::kChar;
  if (name == "SMI_SHORT") return DataType::kShort;
  if (name == "SMI_INT") return DataType::kInt;
  if (name == "SMI_FLOAT") return DataType::kFloat;
  if (name == "SMI_DOUBLE") return DataType::kDouble;
  throw ParseError("unknown datatype: " + name);
}

ReduceOp ReduceOpFromName(const std::string& name) {
  if (name == "SMI_ADD") return ReduceOp::kAdd;
  if (name == "SMI_MAX") return ReduceOp::kMax;
  if (name == "SMI_MIN") return ReduceOp::kMin;
  throw ParseError("unknown reduce op: " + name);
}

}  // namespace

ProgramSpec::ProgramSpec(std::vector<OpSpec> ops) {
  for (const OpSpec& op : ops) Add(op);
}

void ProgramSpec::Validate(const OpSpec& op) const {
  if (op.port < 0) throw ConfigError("negative SMI port");
  if (const auto kind = op.coll_kind()) {
    CheckCollAlgo(*kind, op.algo);
  } else if (op.algo != CollAlgo::kLinear) {
    throw ConfigError(std::string(OpKindName(op.kind)) +
                      " is point-to-point and takes no collective algo");
  }
  for (const OpSpec& existing : ops_) {
    if (existing.port != op.port) continue;
    const bool clash =
        existing.is_collective() || op.is_collective() ||
        existing.kind == op.kind;
    if (clash) {
      throw ConfigError(std::string("port ") + std::to_string(op.port) +
                        " already used by a " + OpKindName(existing.kind) +
                        " operation; cannot add " + OpKindName(op.kind));
    }
  }
}

ProgramSpec& ProgramSpec::Add(OpSpec op) {
  Validate(op);
  ops_.push_back(op);
  return *this;
}

std::vector<int> ProgramSpec::SendPorts() const {
  std::set<int> ports;
  for (const OpSpec& op : ops_) {
    if (op.kind == OpSpec::Kind::kRecv) continue;
    ports.insert(op.port);  // sends and collectives
  }
  return {ports.begin(), ports.end()};
}

std::vector<int> ProgramSpec::RecvPorts() const {
  std::set<int> ports;
  for (const OpSpec& op : ops_) {
    if (op.kind == OpSpec::Kind::kSend) continue;
    ports.insert(op.port);
  }
  return {ports.begin(), ports.end()};
}

std::vector<OpSpec> ProgramSpec::CollectiveOps() const {
  std::vector<OpSpec> out;
  for (const OpSpec& op : ops_) {
    if (op.is_collective()) out.push_back(op);
  }
  return out;
}

json::Value ProgramSpec::ToJson() const {
  json::Array ops;
  for (const OpSpec& op : ops_) {
    json::Object o;
    o["kind"] = json::Value(OpKindName(op.kind));
    o["port"] = json::Value(op.port);
    o["type"] = json::Value(DataTypeName(op.type));
    if (op.is_collective()) {
      o["algo"] = json::Value(CollAlgoName(op.algo));
      if (op.kind == OpSpec::Kind::kReduce ||
          op.kind == OpSpec::Kind::kAllreduce) {
        o["reduce_op"] = json::Value(ReduceOpName(op.reduce_op));
      }
    }
    ops.push_back(json::Value(std::move(o)));
  }
  json::Object root;
  root["ops"] = json::Value(std::move(ops));
  return json::Value(std::move(root));
}

ProgramSpec ProgramSpec::FromJson(const json::Value& v) {
  ProgramSpec spec;
  for (const json::Value& o : v.at("ops").as_array()) {
    OpSpec op;
    op.kind = KindFromName(o.at("kind").as_string());
    op.port = static_cast<int>(o.at("port").as_int());
    op.type = TypeFromName(o.at("type").as_string());
    op.algo = ParseCollAlgo(o.get_string("algo", "linear"));
    op.reduce_op = ReduceOpFromName(o.get_string("reduce_op", "SMI_ADD"));
    spec.Add(op);
  }
  return spec;
}

}  // namespace smi::core
