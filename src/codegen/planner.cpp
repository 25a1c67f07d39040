#include "codegen/planner.h"

#include "common/error.h"

namespace smi::codegen {

resources::Resources FabricPlan::EstimateResources() const {
  resources::Resources total = resources::Transport(ports_per_rank);
  for (const SupportKernelPlan& sk : support_kernels) {
    total += resources::CollectiveKernel(sk.kind, sk.algo);
  }
  for (const HandlerPlan& h : handlers) {
    total += resources::Handler(h.kind, h.type);
  }
  return total;
}

json::Value FabricPlan::ToJson() const {
  json::Object root;
  root["ports_per_rank"] = json::Value(ports_per_rank);
  root["endpoint_fifo_depth"] =
      json::Value(static_cast<std::int64_t>(endpoint_fifo_depth));
  json::Array eps;
  for (const EndpointPlan& ep : endpoints) {
    json::Object o;
    o["port"] = json::Value(ep.app_port);
    o["direction"] = json::Value(ep.is_send ? "send" : "recv");
    o["ck"] = json::Value(ep.ck_index);
    o["type"] = json::Value(core::DataTypeName(ep.type));
    eps.push_back(json::Value(std::move(o)));
  }
  root["endpoints"] = json::Value(std::move(eps));
  json::Array sks;
  for (const SupportKernelPlan& sk : support_kernels) {
    json::Object o;
    o["port"] = json::Value(sk.app_port);
    o["kind"] = json::Value(core::CollKindName(sk.kind));
    o["type"] = json::Value(core::DataTypeName(sk.type));
    o["algo"] = json::Value(core::CollAlgoName(sk.algo));
    sks.push_back(json::Value(std::move(o)));
  }
  root["support_kernels"] = json::Value(std::move(sks));
  if (!handlers.empty()) {
    json::Array hs;
    for (const HandlerPlan& h : handlers) {
      json::Object o;
      o["port"] = json::Value(h.app_port);
      o["class"] = json::Value(resources::HandlerKindName(h.kind));
      o["type"] = json::Value(core::DataTypeName(h.type));
      hs.push_back(json::Value(std::move(o)));
    }
    root["handlers"] = json::Value(std::move(hs));
  }
  const resources::Resources res = EstimateResources();
  json::Object r;
  r["luts"] = json::Value(res.luts);
  r["ffs"] = json::Value(res.ffs);
  r["m20ks"] = json::Value(res.m20ks);
  r["dsps"] = json::Value(res.dsps);
  root["resources"] = json::Value(std::move(r));
  return json::Value(std::move(root));
}

namespace {

core::DataType TypeFromName(const std::string& name) {
  for (const core::DataType t :
       {core::DataType::kChar, core::DataType::kShort, core::DataType::kInt,
        core::DataType::kFloat, core::DataType::kDouble}) {
    if (name == core::DataTypeName(t)) return t;
  }
  throw ParseError("unknown datatype in plan: " + name);
}

core::CollKind KindFromName(const std::string& name) {
  for (const core::CollKind k :
       {core::CollKind::kBcast, core::CollKind::kReduce,
        core::CollKind::kScatter, core::CollKind::kGather,
        core::CollKind::kAllreduce}) {
    if (name == core::CollKindName(k)) return k;
  }
  throw ParseError("unknown collective kind in plan: " + name);
}

resources::HandlerKind HandlerKindFromName(const std::string& name) {
  for (const resources::HandlerKind k :
       {resources::HandlerKind::kReduceCombine, resources::HandlerKind::kFanOut,
        resources::HandlerKind::kFilter}) {
    if (name == resources::HandlerKindName(k)) return k;
  }
  throw ParseError("unknown handler class in plan: " + name);
}

}  // namespace

FabricPlan FabricPlan::FromJson(const json::Value& v) {
  FabricPlan plan;
  plan.ports_per_rank = static_cast<int>(v.at("ports_per_rank").as_int());
  plan.endpoint_fifo_depth =
      static_cast<std::size_t>(v.at("endpoint_fifo_depth").as_int());
  for (const json::Value& o : v.at("endpoints").as_array()) {
    EndpointPlan ep;
    ep.app_port = static_cast<int>(o.at("port").as_int());
    ep.is_send = o.at("direction").as_string() == "send";
    ep.ck_index = static_cast<int>(o.at("ck").as_int());
    ep.type = TypeFromName(o.at("type").as_string());
    plan.endpoints.push_back(ep);
  }
  for (const json::Value& o : v.at("support_kernels").as_array()) {
    SupportKernelPlan sk;
    sk.app_port = static_cast<int>(o.at("port").as_int());
    sk.kind = KindFromName(o.at("kind").as_string());
    sk.type = TypeFromName(o.at("type").as_string());
    sk.algo = core::ParseCollAlgo(o.get_string("algo", "linear"));
    core::CheckCollAlgo(sk.kind, sk.algo);
    plan.support_kernels.push_back(sk);
  }
  if (v.contains("handlers")) {
    for (const json::Value& o : v.at("handlers").as_array()) {
      HandlerPlan h;
      h.app_port = static_cast<int>(o.at("port").as_int());
      h.kind = HandlerKindFromName(o.at("class").as_string());
      h.type = TypeFromName(o.at("type").as_string());
      plan.handlers.push_back(h);
    }
  }
  return plan;
}

FabricPlan Plan(const core::ProgramSpec& spec, int ports_per_rank,
                std::size_t endpoint_fifo_depth) {
  if (ports_per_rank < 1) {
    throw ConfigError("fabric plan needs at least one network port");
  }
  FabricPlan plan;
  plan.ports_per_rank = ports_per_rank;
  plan.endpoint_fifo_depth = endpoint_fifo_depth;
  for (const core::OpSpec& op : spec.ops()) {
    const int ck = op.port % ports_per_rank;
    if (op.kind == core::OpSpec::Kind::kSend ||
        op.is_collective()) {
      plan.endpoints.push_back(EndpointPlan{op.port, true, ck, op.type});
    }
    if (op.kind == core::OpSpec::Kind::kRecv ||
        op.is_collective()) {
      plan.endpoints.push_back(EndpointPlan{op.port, false, ck, op.type});
    }
    if (op.is_collective()) {
      plan.support_kernels.push_back(
          SupportKernelPlan{op.port, *op.coll_kind(), op.type, op.algo});
      if (op.algo == core::CollAlgo::kInnet) {
        // In-network Reduce generates a combine stage in the CKS forwarding
        // path and a credit fan-out stage in the CKR path on this port.
        plan.handlers.push_back(
            {op.port, resources::HandlerKind::kReduceCombine, op.type});
        plan.handlers.push_back(
            {op.port, resources::HandlerKind::kFanOut, op.type});
      }
    }
  }
  return plan;
}

}  // namespace smi::codegen
