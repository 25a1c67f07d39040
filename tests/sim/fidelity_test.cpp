#include "sim/fidelity.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.h"
#include "sim/engine.h"
#include "sim/flow_link.h"

namespace smi::sim {
namespace {

// --- PlanFlowTransfer closed forms -------------------------------------

FidelityCalibration Identity() { return FidelityCalibration{}; }

TEST(PlanFlowTransfer, ZeroElapsedPlansNothing) {
  const FlowBatch b = PlanFlowTransfer(100, 100, 50, 50, Identity());
  EXPECT_EQ(b.accepts, 0u);
  EXPECT_EQ(b.interval_budget, 0u);
}

TEST(PlanFlowTransfer, EmptyTxPlansNothingButReportsBudget) {
  // Zero-length message stream: the wake still elapses a full interval.
  const FlowBatch b = PlanFlowTransfer(64, 96, 0, 50, Identity());
  EXPECT_EQ(b.accepts, 0u);
  EXPECT_EQ(b.interval_budget, 32u);
}

TEST(PlanFlowTransfer, SaturatedMatchesPerCycleSchedule) {
  // tx and window both exceed the elapsed budget: one pop per cycle,
  // last_wake + 1 .. now, exactly what the cycle-accurate link does.
  const FlowBatch b = PlanFlowTransfer(64, 96, 100, 100, Identity());
  EXPECT_EQ(b.accepts, 32u);
  EXPECT_EQ(b.interval_budget, 32u);
  EXPECT_EQ(b.first_pop, 65u);
  EXPECT_EQ(b.first_pop + b.accepts - 1, 96u);
}

TEST(PlanFlowTransfer, SingleCreditWindowIsLatestConsistent) {
  // The credit window caps the batch at one payload. The pop cycle of a
  // credit-gated payload is unknown within the window, so the plan must be
  // latest-consistent: the single pop lands on the wake cycle itself.
  const FlowBatch b = PlanFlowTransfer(64, 96, 100, 1, Identity());
  EXPECT_EQ(b.accepts, 1u);
  EXPECT_EQ(b.first_pop, 96u);
}

TEST(PlanFlowTransfer, ExhaustedWindowPlansNothing) {
  // Saturated-contention corner: no credit left at all.
  const FlowBatch b = PlanFlowTransfer(64, 96, 100, 0, Identity());
  EXPECT_EQ(b.accepts, 0u);
  EXPECT_EQ(b.interval_budget, 32u);
}

TEST(PlanFlowTransfer, DrainedTailIsEarliestConsistent) {
  // TX-bound partial batch: all five payloads were committed-available at
  // the previous wake and the window stays open, so the cycle-accurate link
  // would have popped them back-to-back right after it.
  const FlowBatch b = PlanFlowTransfer(64, 96, 5, 100, Identity());
  EXPECT_EQ(b.accepts, 5u);
  EXPECT_EQ(b.interval_budget, 32u);
  EXPECT_EQ(b.first_pop, 65u);
}

TEST(PlanFlowTransfer, HalfRateCalibrationHalvesTheBudget) {
  FidelityCalibration c;
  c.cycles_per_payload = 2.0;
  const FlowBatch b = PlanFlowTransfer(0, 32, 100, 100, c);
  EXPECT_EQ(b.interval_budget, 16u);
  EXPECT_EQ(b.accepts, 16u);
  // 16 pops ending at the wake cycle.
  EXPECT_EQ(b.first_pop, 17u);
}

// --- Calibrated estimates ----------------------------------------------

TEST(FidelityEstimates, IdentityHopLatency) {
  EXPECT_EQ(EstimateHopLatency(16, Identity()), 16u);
  EXPECT_EQ(EstimateHopLatency(0, Identity()), 0u);
}

TEST(FidelityEstimates, ScaledAndOffsetHopLatency) {
  FidelityCalibration c;
  c.latency_scale = 0.5;
  c.latency_offset = 3;
  EXPECT_EQ(EstimateHopLatency(16, c), 11u);
  c.latency_offset = -100;
  EXPECT_EQ(EstimateHopLatency(16, c), 0u);  // clamped at zero
}

TEST(FidelityEstimates, SteadyBandwidthIsInverseCost) {
  FidelityCalibration c;
  c.cycles_per_payload = 4.0;
  EXPECT_DOUBLE_EQ(EstimateSteadyBandwidth(c), 0.25);
  EXPECT_DOUBLE_EQ(EstimateSteadyBandwidth(Identity()), 1.0);
}

// --- Strict mode parsing -----------------------------------------------

TEST(ParseFidelityModeTest, AcceptsExactTokens) {
  EXPECT_EQ(ParseFidelityMode("cycle"), FidelityMode::kCycle);
  EXPECT_EQ(ParseFidelityMode("flow"), FidelityMode::kFlow);
  EXPECT_EQ(ParseFidelityMode("auto"), FidelityMode::kAuto);
}

TEST(ParseFidelityModeTest, RejectsPartialAndDecoratedTokens) {
  EXPECT_THROW(ParseFidelityMode(""), ConfigError);
  EXPECT_THROW(ParseFidelityMode("Auto"), ConfigError);
  EXPECT_THROW(ParseFidelityMode("flow,"), ConfigError);
  EXPECT_THROW(ParseFidelityMode(" cycle"), ConfigError);
  EXPECT_THROW(ParseFidelityMode("cycle "), ConfigError);
  EXPECT_THROW(ParseFidelityMode("fl"), ConfigError);
}

// --- Calibration parsing ------------------------------------------------

json::Value CalibJson(double cpp, double scale, double offset) {
  json::Object o;
  o["cycles_per_payload"] = cpp;
  o["latency_scale"] = scale;
  o["latency_offset"] = offset;
  return o;
}

TEST(FidelityCalibrationTest, RoundTripsThroughJson) {
  FidelityCalibration c;
  c.cycles_per_payload = 1.25;
  c.latency_scale = 0.75;
  c.latency_offset = -2;
  const FidelityCalibration back = FidelityCalibration::FromJson(c.ToJson());
  EXPECT_DOUBLE_EQ(back.cycles_per_payload, 1.25);
  EXPECT_DOUBLE_EQ(back.latency_scale, 0.75);
  EXPECT_EQ(back.latency_offset, -2);
}

TEST(FidelityCalibrationTest, RejectsMalformedObjects) {
  EXPECT_THROW(FidelityCalibration::FromJson(json::Value()), ConfigError);
  json::Value missing = CalibJson(1.0, 1.0, 0.0);
  missing.as_object().erase("latency_scale");
  EXPECT_THROW(FidelityCalibration::FromJson(missing), ConfigError);
  json::Value extra = CalibJson(1.0, 1.0, 0.0);
  extra.as_object()["bogus"] = 1.0;
  EXPECT_THROW(FidelityCalibration::FromJson(extra), ConfigError);
  EXPECT_THROW(FidelityCalibration::FromJson(CalibJson(0.0, 1.0, 0.0)),
               ConfigError);
  EXPECT_THROW(FidelityCalibration::FromJson(CalibJson(1.0, -1.0, 0.0)),
               ConfigError);
  EXPECT_THROW(FidelityCalibration::FromJson(CalibJson(1.0, 1.0, 0.5)),
               ConfigError);
  json::Value text = CalibJson(1.0, 1.0, 0.0);
  text.as_object()["cycles_per_payload"] = std::string("fast");
  EXPECT_THROW(FidelityCalibration::FromJson(text), ConfigError);
}

TEST(FidelityCalibrationTest, LoadsFromFile) {
  const std::string path =
      testing::TempDir() + "/fidelity_calibration_test.json";
  {
    std::ofstream out(path);
    out << "{\"calibration\": {\"cycles_per_payload\": 1.0, "
           "\"latency_scale\": 1.0, \"latency_offset\": 0}}";
  }
  const FidelityCalibration c = FidelityCalibration::FromFile(path);
  EXPECT_DOUBLE_EQ(c.cycles_per_payload, 1.0);
  std::remove(path.c_str());

  const std::string bad = testing::TempDir() + "/fidelity_bad_test.json";
  {
    std::ofstream out(bad);
    out << "{\"not_calibration\": {}}";
  }
  EXPECT_THROW(FidelityCalibration::FromFile(bad), ConfigError);
  std::remove(bad.c_str());
}

// --- Bulk modeled FIFO transfers ---------------------------------------

TEST(FifoBulkModeled, MovesSpansAndKeepsCommitSemantics) {
  Fifo<int> f("bulk", 8);
  int in[6] = {1, 2, 3, 4, 5, 6};
  f.Commit(0);
  EXPECT_EQ(f.ModeledPushBudget(), 8u);
  f.PushBulkModeled(in, 6, 1);
  // Staged but not committed: nothing is poppable yet.
  EXPECT_EQ(f.ModeledPopBudget(), 0u);
  EXPECT_EQ(f.ModeledPushBudget(), 2u);
  f.Commit(1);
  EXPECT_EQ(f.ModeledPopBudget(), 6u);
  int out[6] = {0};
  f.PopBulkModeled(out, 6, 2);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i + 1);
  f.Commit(2);
  EXPECT_EQ(f.ModeledPopBudget(), 0u);
}

TEST(FifoBulkModeled, WrapsAroundTheRing) {
  Fifo<int> f("wrap", 8);
  // Advance head/tail to force the two-span path.
  int seed[5] = {9, 9, 9, 9, 9};
  f.PushBulkModeled(seed, 5, 0);
  f.Commit(0);
  int drop[5];
  f.PopBulkModeled(drop, 5, 1);
  f.Commit(1);
  int in[6] = {1, 2, 3, 4, 5, 6};
  f.PushBulkModeled(in, 6, 2);  // crosses the ring boundary at 8
  f.Commit(2);
  int out[6] = {0};
  f.PopBulkModeled(out, 6, 3);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(FifoBulkModeled, EnforcesBudgets) {
  Fifo<int> f("strict", 4);
  int in[5] = {1, 2, 3, 4, 5};
  EXPECT_THROW(f.PushBulkModeled(in, 5, 0), ConfigError);
  f.PushBulkModeled(in, 4, 0);
  f.Commit(0);
  int out[5];
  EXPECT_THROW(f.PopBulkModeled(out, 5, 1), ConfigError);
  // Zero-length transfers are no-ops, never errors.
  f.PopBulkModeled(out, 0, 1);
  f.PushBulkModeled(in, 0, 1);
}

// --- FlowLink state machine --------------------------------------------

Kernel Produce(Fifo<int>& out, int n) {
  for (int i = 0; i < n; ++i) co_await fifo_push(out, i);
}

Kernel BurstyProduce(Fifo<int>& out, int bursts, int burst, int gap) {
  for (int b = 0; b < bursts; ++b) {
    for (int i = 0; i < burst; ++i) co_await fifo_push(out, b * burst + i);
    co_await WaitCycles{static_cast<Cycle>(gap)};
  }
}

Kernel Consume(Fifo<int>& in, int n, std::vector<int>& sink) {
  for (int i = 0; i < n; ++i) sink.push_back(co_await fifo_pop(in));
}

struct ChainResult {
  Cycle cycles = 0;
  std::vector<int> sink;
  std::size_t registered = 0;  ///< links in engine.flow_links()
  bool any_in_flow_mode = false;
  std::uint64_t promotions = 0;
  std::uint64_t demotions_drain = 0;
  std::uint64_t thrash_warnings = 0;
  std::uint64_t modeled_cycles = 0;
};

ChainResult RunChain(FidelityMode mode, int hops, int payloads,
                     const FidelityPolicy& base) {
  EngineConfig config;
  config.fidelity = base;
  config.fidelity.mode = mode;
  Engine engine(config);
  std::vector<Fifo<int>*> fifos;
  for (int i = 0; i <= hops; ++i) {
    fifos.push_back(&engine.MakeFifo<int>("f" + std::to_string(i), 64));
  }
  // Counters are read from the links themselves, not from
  // engine.flow_links(): a kCycle link never registers there.
  std::vector<const FlowLink<int>*> links;
  for (int i = 0; i < hops; ++i) {
    links.push_back(&engine.MakeComponent<FlowLink<int>>(
        engine, "link" + std::to_string(i), *fifos[static_cast<std::size_t>(i)],
        *fifos[static_cast<std::size_t>(i) + 1], 8, config.fidelity));
  }
  ChainResult r;
  engine.AddKernel(Produce(*fifos.front(), payloads), "p");
  engine.AddKernel(Consume(*fifos.back(), payloads, r.sink), "c");
  r.cycles = engine.Run().cycles;
  r.registered = engine.flow_links().size();
  for (const FlowLink<int>* link : links) {
    r.any_in_flow_mode = r.any_in_flow_mode || link->in_flow_mode();
    const obs::FidelityCounters& c = link->fidelity_counters();
    r.promotions += c.promotions;
    r.demotions_drain += c.demotions_drain;
    r.thrash_warnings += c.thrash_warnings;
    r.modeled_cycles += c.modeled_cycles;
  }
  return r;
}

TEST(FlowLinkStateMachine, CycleModeNeverPromotes) {
  FidelityPolicy policy;
  const ChainResult r = RunChain(FidelityMode::kCycle, 3, 5000, policy);
  EXPECT_EQ(r.registered, 0u);
  EXPECT_FALSE(r.any_in_flow_mode);
  EXPECT_EQ(r.promotions, 0u);
  EXPECT_EQ(r.modeled_cycles, 0u);
  ASSERT_EQ(r.sink.size(), 5000u);
}

TEST(FlowLinkStateMachine, AutoPromotesOnSteadyStateAndStaysAccurate) {
  FidelityPolicy policy;
  policy.steady_window = 128;
  policy.flow_interval = 16;
  const ChainResult cycle = RunChain(FidelityMode::kCycle, 3, 20000, policy);
  const ChainResult fast = RunChain(FidelityMode::kAuto, 3, 20000, policy);
  // Every link promoted at least once and drained back at the stream tail.
  EXPECT_GE(fast.promotions, 3u);
  EXPECT_GE(fast.demotions_drain, 3u);
  EXPECT_GT(fast.modeled_cycles, 0u);
  // Payload stream is bit-identical; total cycles within the 2% contract.
  EXPECT_EQ(fast.sink, cycle.sink);
  const double divergence =
      100.0 *
      (static_cast<double>(fast.cycles) - static_cast<double>(cycle.cycles)) /
      static_cast<double>(cycle.cycles);
  EXPECT_GE(divergence, 0.0);  // the flow model never finishes early
  EXPECT_LE(divergence, 2.0);
}

TEST(FlowLinkStateMachine, BurstyTrafficUnderFlowModeCountsThrash) {
  // kFlow with a tiny hysteresis window promotes on every burst and drains
  // in every gap: the thrash detector must fire and count it.
  FidelityPolicy policy;
  policy.steady_window = 1;
  policy.flow_interval = 16;
  policy.thrash_limit = 4;
  policy.thrash_window = 100000;
  EngineConfig config;
  config.fidelity = policy;
  config.fidelity.mode = FidelityMode::kFlow;
  Engine engine(config);
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 64);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 64);
  engine.MakeComponent<FlowLink<int>>(engine, "link", tx, rx, 8,
                                      config.fidelity);
  const int bursts = 20;
  const int burst = 40;
  std::vector<int> sink;
  engine.AddKernel(BurstyProduce(tx, bursts, burst, 200), "p");
  engine.AddKernel(Consume(rx, bursts * burst, sink), "c");
  engine.Run();
  ASSERT_EQ(sink.size(), static_cast<std::size_t>(bursts * burst));
  for (int i = 0; i < bursts * burst; ++i) EXPECT_EQ(sink[i], i);
  const obs::FidelityCounters& c =
      engine.flow_links().front()->fidelity_counters();
  EXPECT_GT(c.promotions, 1u);
  EXPECT_GT(c.demotions_drain, 1u);
  EXPECT_GE(c.thrash_warnings, 1u);
}

TEST(FlowLinkStateMachine, FidelityReportShapesUp) {
  FidelityPolicy policy;
  policy.steady_window = 64;
  policy.flow_interval = 16;
  EngineConfig config;
  config.fidelity = policy;
  config.fidelity.mode = FidelityMode::kAuto;
  Engine engine(config);
  Fifo<int>& tx = engine.MakeFifo<int>("tx", 64);
  Fifo<int>& rx = engine.MakeFifo<int>("rx", 64);
  engine.MakeComponent<FlowLink<int>>(engine, "link", tx, rx, 8,
                                      config.fidelity);
  std::vector<int> sink;
  engine.AddKernel(Produce(tx, 4000), "p");
  engine.AddKernel(Consume(rx, 4000, sink), "c");
  engine.Run();
  const std::vector<FlowLinkControl*>& regs = engine.flow_links();
  const std::vector<const FlowLinkControl*> links(regs.begin(), regs.end());
  const json::Value report = FidelityReportJson(FidelityMode::kAuto, links);
  ASSERT_TRUE(report.is_object());
  EXPECT_EQ(report.at("mode").as_string(), "auto");
  const double frac = report.at("modeled_fraction").as_double();
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  ASSERT_TRUE(report.at("links").is_array());
  ASSERT_EQ(report.at("links").as_array().size(), 1u);
  const json::Value& row = report.at("links").as_array().front();
  EXPECT_EQ(row.at("link").as_string(), "link");
  EXPECT_TRUE(row.at("demotions").is_object());
}

}  // namespace
}  // namespace smi::sim
