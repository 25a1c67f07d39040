/// \file ck_counters_test.cpp
/// Pins every communication kernel's telemetry row — polls, hits, bursts,
/// stalls, forwarded packets by op and the handler fields — in three
/// scenarios that between them drive every part of the CKS and CKR:
///   * a one-way stream across a FatTree(4, 4, 2) bisection into receivers
///     that pop every fourth cycle (sparse wiring: switch ranks with CK
///     holes, crossbars between a few active ports, CKs stalled on full
///     outputs);
///   * an in-network Reduce on a 4x4 torus (the CKS combine buffer and the
///     CKR fan-out queue of the credit grants);
///   * a Ring(4) stream whose 0 <-> 1 cable dies under a stalled transit CKS
///     (the CKS recovery queue after a failover);
///   * diagonal streams on a 4x4 torus whose receivers declare recv port 2
///     only, so every delivery crosses the CKR crossbar into CKR 2 while
///     each CKR's arbiter polls past the slots of edges the fabric leaves
///     out (no CKR crossbar toward CKRs 0, 1 and 3, no CKS -> CKR edge at
///     ports 0, 1 and 3).
/// Each scenario runs under the synchronous, event-driven and parallel
/// schedulers and must reproduce the rows in testdata/ck_rows_<name>.jsonl
/// (one JSON row per CK, in the counter document's order) byte for byte.
/// smibench pins only the totals; this pins each CK.
///
/// A mismatch writes the rows the run produced to
/// `ck_rows_<name>.actual.jsonl` in the working directory.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/smi.h"
#include "fault/fault.h"

namespace smi::core {
namespace {

using net::Topology;
using sim::Kernel;
using sim::SchedulerKind;

Kernel StreamTo(Context& ctx, int dst, int n, int port = 0) {
  SendChannel ch =
      ctx.OpenSendChannel(n, DataType::kInt, dst, port, ctx.world());
  for (int i = 0; i < n; ++i) co_await ch.Push<std::int32_t>(i * 3);
}

/// Pops `n` values from `src`, one every `every` cycles.
Kernel SinkFrom(Context& ctx, int src, int n, sim::Cycle every,
                int port = 0) {
  RecvChannel ch =
      ctx.OpenRecvChannel(n, DataType::kInt, src, port, ctx.world());
  for (int i = 0; i < n; ++i) {
    co_await ch.Pop<std::int32_t>();
    if (every > 1) co_await sim::WaitCycles{every - 1};
  }
}

Kernel ReduceApp(Context& ctx, int count) {
  ReduceChannel chan = ctx.OpenReduceChannel(
      count, DataType::kInt, ReduceOp::kAdd, /*port=*/0, /*root=*/0,
      ctx.world(), /*credits=*/16);
  for (int i = 0; i < count; ++i) {
    std::int32_t rcv = 0;
    co_await chan.Reduce(ctx.rank() * 5 + i, rcv);
  }
}

ProgramSpec P2pSpec() {
  ProgramSpec spec;
  spec.Add(OpSpec::Send(0, DataType::kInt));
  spec.Add(OpSpec::Recv(0, DataType::kInt));
  return spec;
}

/// The CK rows of a run's counter document, one compact JSON row per line.
std::string CkRows(const Cluster& cluster) {
  const json::Value doc = cluster.CaptureTelemetry().counters;
  std::string rows;
  for (const json::Value& row : doc.at("cks").as_array()) {
    rows += row.dump();
    rows += '\n';
  }
  return rows;
}

std::string FatTreeStream(ClusterConfig config) {
  const Topology topo = Topology::FatTree(4, 4, 2);
  const int half = topo.num_compute_ranks() / 2;
  Cluster cluster(topo, P2pSpec(), config);
  for (int h = 0; h < half; ++h) {
    cluster.AddKernel(h, StreamTo(cluster.context(h), h + half, 512), "s");
    cluster.AddKernel(h + half,
                      SinkFrom(cluster.context(h + half), h, 512, 4), "r");
  }
  cluster.Run();
  return CkRows(cluster);
}

std::string InnetReduce(ClusterConfig config) {
  ProgramSpec spec;
  spec.Add(OpSpec::Reduce(0, DataType::kInt, CollAlgo::kInnet,
                          ReduceOp::kAdd));
  Cluster cluster(Topology::Torus2D(4, 4), spec, config);
  for (int r = 0; r < 16; ++r) {
    cluster.AddKernel(r, ReduceApp(cluster.context(r), 96), "innet-reduce");
  }
  cluster.Run();
  return CkRows(cluster);
}

std::string RingFailover(ClusterConfig config) {
  // The scenario of FaultDifferential.StalledCksSurviveCableDeathByRerouting:
  // the 3 -> 1 stream transits rank 0, whose 0 -> 1 cable dies at cycle 30
  // with rank 0's transit CKS asleep on a stalled packet.
  fault::FaultPlan plan;
  plan.enabled = true;
  plan.seed = 9;
  plan.reliability.retx_timeout = 250;
  plan.reliability.backoff_cap = 1;
  plan.reliability.retry_budget = 1;
  plan.reliability.window = 8;
  fault::LinkFaultSpec kill;
  kill.kill_at = 30;
  plan.links["0:1<->1:0"] = kill;
  config.fabric.fault = plan;
  Cluster cluster(Topology::Ring(4), P2pSpec(), config);
  cluster.AddKernel(3, StreamTo(cluster.context(3), 1, 1000), "s");
  cluster.AddKernel(1, SinkFrom(cluster.context(1), 3, 1000, 2), "r");
  cluster.Run();
  return CkRows(cluster);
}

std::string TorusRecvPortTwo(ClusterConfig config) {
  // Every rank (row, col) streams to (row + 1, col + 1): the packets arrive
  // on the north or west port, never on the south port 2 that owns the one
  // receive endpoint.
  ProgramSpec spec;
  spec.Add(OpSpec::Send(2, DataType::kInt));
  spec.Add(OpSpec::Recv(2, DataType::kInt));
  Cluster cluster(Topology::Torus2D(4, 4), spec, config);
  const auto diagonal = [](int r, int step) {
    return (r / 4 + step + 4) % 4 * 4 + (r % 4 + step + 4) % 4;
  };
  for (int r = 0; r < 16; ++r) {
    cluster.AddKernel(r, StreamTo(cluster.context(r), diagonal(r, 1), 1000,
                                  /*port=*/2),
                      "s");
    cluster.AddKernel(r, SinkFrom(cluster.context(r), diagonal(r, -1), 1000, 3,
                                  /*port=*/2),
                      "r");
  }
  cluster.Run();
  return CkRows(cluster);
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(SMI_TESTDATA_DIR) + "/ck_rows_" + name +
                   ".jsonl");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `scenario` under every scheduler and compares its CK rows with the
/// golden file, naming the first row that differs.
void ExpectRowsPinned(const std::string& name,
                      std::string (*scenario)(ClusterConfig)) {
  const std::string golden = ReadGolden(name);
  ASSERT_FALSE(golden.empty()) << "missing testdata/ck_rows_" << name
                               << ".jsonl";
  const struct {
    SchedulerKind kind;
    unsigned threads;
    const char* label;
  } runs[] = {{SchedulerKind::kSynchronous, 1, "sync"},
              {SchedulerKind::kEventDriven, 1, "event"},
              {SchedulerKind::kParallel, 2, "parallel"}};
  for (const auto& run : runs) {
    ClusterConfig config;
    config.engine.scheduler = run.kind;
    config.engine.threads = run.threads;
    config.engine.collect_counters = true;
    const std::string rows = scenario(config);
    if (rows == golden) continue;
    std::ofstream("ck_rows_" + name + ".actual.jsonl") << rows;
    std::istringstream want(golden), got(rows);
    std::string w, g;
    int line = 1;
    while (std::getline(want, w) && std::getline(got, g) && w == g) ++line;
    ADD_FAILURE() << name << " under " << run.label << ": row " << line
                  << " differs\n  want: " << w << "\n  got:  " << g;
  }
}

TEST(CkCountersPinned, FatTreeStream) {
  ExpectRowsPinned("fat_tree_stream", FatTreeStream);
}

TEST(CkCountersPinned, InnetReduceOnTorus) {
  ExpectRowsPinned("innet_reduce", InnetReduce);
}

TEST(CkCountersPinned, RingCableDeathRecovery) {
  ExpectRowsPinned("ring_failover", RingFailover);
}

TEST(CkCountersPinned, TorusDeliveriesPastEmptySlots) {
  ExpectRowsPinned("torus_recv_port_two", TorusRecvPortTwo);
}

}  // namespace
}  // namespace smi::core
