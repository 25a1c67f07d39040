#include "codegen/planner.h"

#include <gtest/gtest.h>

namespace smi::codegen {
namespace {

using core::DataType;
using core::OpSpec;
using core::ProgramSpec;

ProgramSpec ExampleSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(5, DataType::kFloat));
  spec.Add(OpSpec::Bcast(2, DataType::kFloat));
  spec.Add(OpSpec::Reduce(3, DataType::kFloat));
  return spec;
}

TEST(Planner, AssignsEndpointsRoundRobin) {
  const FabricPlan plan = Plan(ExampleSpec(), 4);
  // send port 0 -> CK 0; recv port 5 -> CK 1; collectives get both
  // directions on their port's CK.
  ASSERT_EQ(plan.endpoints.size(), 6u);  // 1 send + 1 recv + 2x2 collective
  EXPECT_EQ(plan.endpoints[0].app_port, 0);
  EXPECT_TRUE(plan.endpoints[0].is_send);
  EXPECT_EQ(plan.endpoints[0].ck_index, 0);
  EXPECT_EQ(plan.endpoints[1].app_port, 5);
  EXPECT_FALSE(plan.endpoints[1].is_send);
  EXPECT_EQ(plan.endpoints[1].ck_index, 1);
  ASSERT_EQ(plan.support_kernels.size(), 2u);
  EXPECT_EQ(plan.support_kernels[0].kind, core::CollKind::kBcast);
  EXPECT_EQ(plan.support_kernels[1].kind, core::CollKind::kReduce);
}

TEST(Planner, SinglePortFabric) {
  const FabricPlan plan = Plan(ExampleSpec(), 1);
  for (const EndpointPlan& ep : plan.endpoints) {
    EXPECT_EQ(ep.ck_index, 0);
  }
}

TEST(Planner, ResourceEstimateIncludesSupportKernels) {
  const FabricPlan with_colls = Plan(ExampleSpec(), 4);
  ProgramSpec p2p_only;
  p2p_only.Add(OpSpec::Send(0, DataType::kInt));
  const FabricPlan without = Plan(p2p_only, 4);
  EXPECT_GT(with_colls.EstimateResources().luts,
            without.EstimateResources().luts);
  EXPECT_EQ(with_colls.EstimateResources().dsps, 6);  // Reduce FP32 SUM
}

TEST(Planner, JsonRoundTrip) {
  const FabricPlan plan = Plan(ExampleSpec(), 4, 32);
  const FabricPlan again = FabricPlan::FromJson(plan.ToJson());
  EXPECT_EQ(again.ports_per_rank, plan.ports_per_rank);
  EXPECT_EQ(again.endpoint_fifo_depth, 32u);
  ASSERT_EQ(again.endpoints.size(), plan.endpoints.size());
  for (std::size_t i = 0; i < plan.endpoints.size(); ++i) {
    EXPECT_EQ(again.endpoints[i].app_port, plan.endpoints[i].app_port);
    EXPECT_EQ(again.endpoints[i].is_send, plan.endpoints[i].is_send);
    EXPECT_EQ(again.endpoints[i].ck_index, plan.endpoints[i].ck_index);
    EXPECT_EQ(again.endpoints[i].type, plan.endpoints[i].type);
  }
  ASSERT_EQ(again.support_kernels.size(), plan.support_kernels.size());
}

TEST(Planner, RejectsInvalidPortCount) {
  EXPECT_THROW(Plan(ExampleSpec(), 0), smi::ConfigError);
}

TEST(Planner, InnetReducePlansHandlerStages) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(3, DataType::kFloat, core::CollAlgo::kInnet));
  const FabricPlan plan = Plan(spec, 4);
  ASSERT_EQ(plan.handlers.size(), 2u);
  EXPECT_EQ(plan.handlers[0].app_port, 3);
  EXPECT_EQ(plan.handlers[0].kind, resources::HandlerKind::kReduceCombine);
  EXPECT_EQ(plan.handlers[0].type, DataType::kFloat);
  EXPECT_EQ(plan.handlers[1].kind, resources::HandlerKind::kFanOut);
  // A tree reduce on the same port plans no handlers.
  ProgramSpec tree;
  tree.Add(OpSpec::Reduce(3, DataType::kFloat, core::CollAlgo::kTree));
  EXPECT_TRUE(Plan(tree, 4).handlers.empty());
}

TEST(Planner, HandlerResourcesAreCounted) {
  ProgramSpec innet;
  innet.Add(OpSpec::Reduce(0, DataType::kFloat, core::CollAlgo::kInnet));
  const FabricPlan plan = Plan(innet, 4);
  resources::Resources expected =
      resources::Transport(4) +
      resources::CollectiveKernel(core::CollKind::kReduce,
                                  core::CollAlgo::kInnet);
  for (const HandlerPlan& h : plan.handlers) {
    expected += resources::Handler(h.kind, h.type);
  }
  EXPECT_DOUBLE_EQ(plan.EstimateResources().luts, expected.luts);
  EXPECT_DOUBLE_EQ(plan.EstimateResources().dsps, expected.dsps);
  // The combine stage carries the FP fold pipeline: DSPs over the fan-out.
  EXPECT_GT(resources::Handler(resources::HandlerKind::kReduceCombine,
                               DataType::kFloat)
                .dsps,
            resources::Handler(resources::HandlerKind::kFanOut,
                               DataType::kFloat)
                .dsps);
}

TEST(Planner, InnetJsonRoundTrip) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(1, DataType::kInt, core::CollAlgo::kInnet));
  const FabricPlan plan = Plan(spec, 4);
  const FabricPlan again = FabricPlan::FromJson(plan.ToJson());
  ASSERT_EQ(again.support_kernels.size(), 1u);
  EXPECT_EQ(again.support_kernels[0].algo, core::CollAlgo::kInnet);
  ASSERT_EQ(again.handlers.size(), plan.handlers.size());
  for (std::size_t i = 0; i < plan.handlers.size(); ++i) {
    EXPECT_EQ(again.handlers[i].app_port, plan.handlers[i].app_port);
    EXPECT_EQ(again.handlers[i].kind, plan.handlers[i].kind);
    EXPECT_EQ(again.handlers[i].type, plan.handlers[i].type);
  }
  EXPECT_DOUBLE_EQ(again.EstimateResources().luts,
                   plan.EstimateResources().luts);
}

TEST(Planner, JsonRejectsAlgoWithoutSupportKernel) {
  ProgramSpec spec;
  spec.Add(OpSpec::Scatter(1, DataType::kInt));
  json::Value doc = Plan(spec, 4).ToJson();
  auto set_algo = [&](const char* algo) {
    doc.as_object()["support_kernels"].as_array()[0].as_object()["algo"] =
        json::Value(algo);
  };
  set_algo("tree");
  EXPECT_THROW(FabricPlan::FromJson(doc), ConfigError);
  set_algo("innet");
  EXPECT_THROW(FabricPlan::FromJson(doc), ConfigError);
  set_algo("ring");
  EXPECT_THROW(FabricPlan::FromJson(doc), ParseError);
  set_algo("linear");
  EXPECT_EQ(FabricPlan::FromJson(doc).support_kernels[0].algo,
            core::CollAlgo::kLinear);
}

}  // namespace
}  // namespace smi::codegen
