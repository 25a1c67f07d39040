/// \file experiments_common.cpp
/// Helpers shared by the experiments and bench_sim_micro: formatting and
/// the cluster runners.

#include <cstdarg>

#include "experiments.h"
#include "mpi/mpi.h"

namespace smi::bench {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<std::size_t>(n > 0 ? n : 0), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

Measured RunCluster(core::Cluster& cluster,
                    const mpi::DecisionLog* selector_log) {
  Measured m;
  const WallTimer timer;
  m.run = cluster.Run();
  m.wall_seconds = timer.Seconds();
  if (selector_log != nullptr) {
    cluster.Annotate("selector", selector_log->ToJson());
  }
  m.telemetry = cluster.CaptureTelemetry();
  return m;
}

core::ProgramSpec P2pSpec() {
  core::ProgramSpec spec;
  spec.Add(core::OpSpec::Send(0, core::DataType::kInt));
  spec.Add(core::OpSpec::Recv(0, core::DataType::kInt));
  return spec;
}

namespace {

sim::Kernel StreamSender(core::Context& ctx, int dst, int packets,
                         int per_packet) {
  core::SendChannel ch = ctx.OpenSendChannel(
      packets * per_packet, core::DataType::kInt, dst, 0, ctx.world());
  const std::int32_t vals[7] = {0, 1, 2, 3, 4, 5, 6};
  for (int p = 0; p < packets; ++p) {
    co_await ch.PushPacket<std::int32_t>(vals, per_packet);
  }
}

sim::Kernel StreamReceiver(core::Context& ctx, int src, int packets,
                           int per_packet) {
  core::RecvChannel ch = ctx.OpenRecvChannel(
      packets * per_packet, core::DataType::kInt, src, 0, ctx.world());
  for (int p = 0; p < packets; ++p) {
    (void)co_await ch.PopPacket<std::int32_t>();
  }
}

}  // namespace

Measured Stream(const net::Topology& topo,
                const std::vector<std::pair<int, int>>& pairs, int packets,
                const core::ClusterConfig& config, int per_packet,
                bool* fell_back) {
  core::Cluster cluster(topo, P2pSpec(), config);
  if (fell_back != nullptr) *fell_back = cluster.routing_fell_back();
  for (const auto& [src, dst] : pairs) {
    cluster.AddKernel(
        src, StreamSender(cluster.context(src), dst, packets, per_packet),
        "stream-send");
    cluster.AddKernel(
        dst, StreamReceiver(cluster.context(dst), src, packets, per_packet),
        "stream-recv");
  }
  return RunCluster(cluster);
}

}  // namespace smi::bench
