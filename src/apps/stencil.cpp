#include "apps/stencil.h"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <random>

#include "common/error.h"

namespace smi::apps {
namespace {

using core::Cluster;
using core::Context;
using core::DataType;
using core::OpSpec;
using core::ProgramSpec;
using core::RecvChannel;
using core::SendChannel;
using sim::Fifo;
using sim::Kernel;
using sim::kMemWordElems;
using sim::MemWord;

/// Port plan (destination-side endpoints, following Listing 3):
///   1 = recv from the west neighbour, 2 = recv from the east,
///   3 = recv from the north, 4 = recv from the south.
constexpr int kPortFromWest = 1;
constexpr int kPortFromEast = 2;
constexpr int kPortFromNorth = 3;
constexpr int kPortFromSouth = 4;

/// The four halo directions. Each direction is served by its own pair of
/// send/receive kernels so that data on the four ports is consumed
/// concurrently — a single sequential consumer would suffer head-of-line
/// blocking at the shared network interfaces for halos larger than the
/// endpoint FIFOs (correctness must not depend on buffer sizes, §4.2).
enum Dir { kWest = 0, kEast = 1, kNorth = 2, kSouth = 3 };

struct RankState {
  int rank = 0;
  int pos_x = 0, pos_y = 0;  // coordinates in the rank grid
  int nx = 0, ny = 0;        // local domain size
  int neighbor[4] = {-1, -1, -1, -1};
  std::vector<float> cur, next;
  std::vector<float> halo[4];  // W/E: nx elements; N/S: ny elements
  std::vector<Fifo<MemWord>*> streams;
  // Per-timestep synchronization between this rank's nine kernels.
  Fifo<int>* go_send[4] = {};
  Fifo<int>* go_recv[4] = {};
  Fifo<int>* send_done[4] = {};
  Fifo<int>* recv_done[4] = {};

  int EdgeCount(int d) const { return d == kWest || d == kEast ? nx : ny; }
  /// The k-th element of this rank's edge facing direction d.
  float EdgeValue(int d, int k) const {
    switch (d) {
      case kWest: return At(k, 0);
      case kEast: return At(k, ny - 1);
      case kNorth: return At(0, k);
      default: return At(nx - 1, k);
    }
  }
  /// Port of the *destination's* receive endpoint when sending toward d:
  /// our west edge becomes the west neighbour's east halo, and so on.
  static int SendPort(int d) {
    switch (d) {
      case kWest: return 2;   // their recv-from-east
      case kEast: return 1;   // their recv-from-west
      case kNorth: return 4;  // their recv-from-south
      default: return 3;      // their recv-from-north
    }
  }
  /// Port of our own receive endpoint for the halo arriving from d.
  static int RecvPort(int d) { return d + 1; }  // 1=W, 2=E, 3=N, 4=S

  float At(int i, int j) const {
    return cur[static_cast<std::size_t>(i) * static_cast<std::size_t>(ny) +
               static_cast<std::size_t>(j)];
  }
  /// The stencil input at (i, j), which may live in a halo buffer or be the
  /// global Dirichlet boundary (0).
  float Sample(int i, int j) const {
    if (i < 0) {
      return neighbor[kNorth] >= 0 ? halo[kNorth][static_cast<std::size_t>(j)]
                                   : 0.0f;
    }
    if (i >= nx) {
      return neighbor[kSouth] >= 0 ? halo[kSouth][static_cast<std::size_t>(j)]
                                   : 0.0f;
    }
    if (j < 0) {
      return neighbor[kWest] >= 0 ? halo[kWest][static_cast<std::size_t>(i)]
                                  : 0.0f;
    }
    if (j >= ny) {
      return neighbor[kEast] >= 0 ? halo[kEast][static_cast<std::size_t>(i)]
                                  : 0.0f;
    }
    return At(i, j);
  }
  float Stencil(int i, int j) const {
    return 0.25f * (Sample(i - 1, j) + Sample(i + 1, j) + Sample(i, j - 1) +
                    Sample(i, j + 1));
  }
  void Set(std::vector<float>& g, int i, int j, float v) {
    g[static_cast<std::size_t>(i) * static_cast<std::size_t>(ny) +
      static_cast<std::size_t>(j)] = v;
  }
};

/// Streams this rank's edge facing direction `d` to that neighbour, one
/// transient channel per timestep. One instance per direction: the four
/// senders of a rank run as independent hardware kernels.
Kernel HaloSendKernel(Context& ctx, RankState& st, int d, int timesteps) {
  for (int t = 0; t < timesteps; ++t) {
    (void)co_await sim::fifo_pop(*st.go_send[d]);
    if (st.neighbor[d] >= 0) {
      const int count = st.EdgeCount(d);
      SendChannel ch =
          ctx.OpenSendChannel(count, DataType::kFloat, st.neighbor[d],
                              RankState::SendPort(d), ctx.world());
      for (int k = 0; k < count; ++k) {
        co_await ch.Push<float>(st.EdgeValue(d, k));
      }
    }
    co_await sim::fifo_push(*st.send_done[d], t);
  }
}

/// Receives the halo arriving from direction `d` into its buffer. One
/// instance per direction, so the four ports are drained concurrently and
/// arriving data never head-of-line blocks behind another direction.
Kernel HaloRecvKernel(Context& ctx, RankState& st, int d, int timesteps) {
  for (int t = 0; t < timesteps; ++t) {
    (void)co_await sim::fifo_pop(*st.go_recv[d]);
    if (st.neighbor[d] >= 0) {
      const int count = st.EdgeCount(d);
      RecvChannel ch =
          ctx.OpenRecvChannel(count, DataType::kFloat, st.neighbor[d],
                              RankState::RecvPort(d), ctx.world());
      for (int k = 0; k < count; ++k) {
        st.halo[d][static_cast<std::size_t>(k)] = co_await ch.Pop<float>();
      }
    }
    co_await sim::fifo_push(*st.recv_done[d], t);
  }
}

/// Streams the local domain from DRAM once per timestep (the words pace the
/// kernel at the memory-bound rate; the stencil arithmetic itself is fully
/// pipelined behind the stream). Interior cells are computed while the halo
/// exchange is in flight; boundary cells wait for the received halos.
Kernel ComputeKernel(RankState& st, int timesteps) {
  const std::size_t domain_words =
      static_cast<std::size_t>(st.nx) * static_cast<std::size_t>(st.ny) /
      kMemWordElems;
  const std::size_t banks = st.streams.size();
  for (int t = 0; t < timesteps; ++t) {
    for (int d = 0; d < 4; ++d) {
      co_await sim::fifo_push(*st.go_send[d], t);
      co_await sim::fifo_push(*st.go_recv[d], t);
    }
    // Stream the domain at up to `banks` words per cycle.
    std::size_t next_stream = 0;
    for (std::size_t w = 0; w < domain_words; ++w) {
      (void)co_await sim::fifo_pop(*st.streams[next_stream]);
      next_stream = (next_stream + 1) % banks;
    }
    // Interior cells depend only on local data: computed behind the stream.
    // Same expression and operand order as Stencil(), on row pointers.
    const std::size_t row = static_cast<std::size_t>(st.ny);
    for (std::size_t i = 1; i + 1 < static_cast<std::size_t>(st.nx); ++i) {
      const float* up = st.cur.data() + (i - 1) * row;
      const float* mid = up + row;
      const float* down = mid + row;
      float* out = st.next.data() + i * row;
      for (std::size_t j = 1; j + 1 < row; ++j) {
        out[j] = 0.25f * (up[j] + down[j] + mid[j - 1] + mid[j + 1]);
      }
    }
    // Boundary cells need the halos.
    for (int d = 0; d < 4; ++d) {
      (void)co_await sim::fifo_pop(*st.recv_done[d]);
    }
    const int boundary_cells = 2 * (st.nx + st.ny) - 4;
    co_await sim::WaitCycles{static_cast<sim::Cycle>(
        boundary_cells / (kMemWordElems * banks) + 1)};
    for (int j = 0; j < st.ny; ++j) {
      st.Set(st.next, 0, j, st.Stencil(0, j));
      st.Set(st.next, st.nx - 1, j, st.Stencil(st.nx - 1, j));
    }
    for (int i = 1; i + 1 < st.nx; ++i) {
      st.Set(st.next, i, 0, st.Stencil(i, 0));
      st.Set(st.next, i, st.ny - 1, st.Stencil(i, st.ny - 1));
    }
    // The send kernels read `cur`; wait for them before swapping buffers.
    for (int d = 0; d < 4; ++d) {
      (void)co_await sim::fifo_pop(*st.send_done[d]);
    }
    st.cur.swap(st.next);
  }
}

/// Offset in the global grid of row `i` of `st`'s block.
std::size_t BlockRowOffset(const StencilConfig& config, const RankState& st,
                           int i) {
  const auto gi = static_cast<std::size_t>(st.pos_x * st.nx + i);
  const auto gj = static_cast<std::size_t>(st.pos_y * st.ny);
  return gi * static_cast<std::size_t>(config.ny_global) + gj;
}

}  // namespace

std::vector<float> MakeStencilGrid(int nx, int ny, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> g(static_cast<std::size_t>(nx) *
                       static_cast<std::size_t>(ny));
  for (float& v : g) v = dist(rng);
  return g;
}

StencilResult RunStencilSmi(const StencilConfig& config) {
  const int ranks = config.rx * config.ry;
  if (ranks < 1) throw ConfigError("stencil needs at least one rank");
  if (config.nx_global % config.rx != 0 ||
      config.ny_global % config.ry != 0) {
    throw ConfigError("stencil grid must divide evenly across ranks");
  }
  const int nx = config.nx_global / config.rx;
  const int ny = config.ny_global / config.ry;
  if (ny % static_cast<int>(kMemWordElems) != 0) {
    throw ConfigError("local stencil columns must be a multiple of 16");
  }
  if (nx < 2 || ny < 2) throw ConfigError("local stencil domain too small");

  // SPMD spec: send + recv endpoints on ports 1..4. Unused directions at
  // the rank-grid boundary simply never open their channels.
  ProgramSpec spec;
  for (const int p : {kPortFromWest, kPortFromEast, kPortFromNorth,
                      kPortFromSouth}) {
    spec.Add(OpSpec::Send(p, DataType::kFloat));
    spec.Add(OpSpec::Recv(p, DataType::kFloat));
  }

  // Topology: the paper's 2x4 torus for 8 ranks, a 1D bus for fewer ranks,
  // a torus matching the rank grid otherwise.
  net::Topology topo = [&] {
    if (ranks == 1) return net::Topology(1, 4);
    if (config.rx >= 2 && config.ry >= 2) {
      return net::Topology::Torus2D(config.rx, config.ry);
    }
    return net::Topology::Bus(ranks);
  }();

  Cluster cluster(topo, spec, config.cluster);

  const std::vector<float> global =
      MakeStencilGrid(config.nx_global, config.ny_global, config.seed);
  std::vector<std::unique_ptr<RankState>> states;

  for (int r = 0; r < ranks; ++r) {
    auto st = std::make_unique<RankState>();
    st->rank = r;
    st->pos_x = r / config.ry;
    st->pos_y = r % config.ry;
    st->nx = nx;
    st->ny = ny;
    if (st->pos_y > 0) st->neighbor[kWest] = r - 1;
    if (st->pos_y + 1 < config.ry) st->neighbor[kEast] = r + 1;
    if (st->pos_x > 0) st->neighbor[kNorth] = r - config.ry;
    if (st->pos_x + 1 < config.rx) st->neighbor[kSouth] = r + config.ry;
    st->cur.resize(static_cast<std::size_t>(nx) *
                   static_cast<std::size_t>(ny));
    st->next = st->cur;
    for (int d = 0; d < 4; ++d) {
      st->halo[d].assign(static_cast<std::size_t>(st->EdgeCount(d)), 0.0f);
    }
    // Scatter the rank's block out of the global grid, a row at a time.
    for (int i = 0; i < nx; ++i) {
      const float* from = global.data() + BlockRowOffset(config, *st, i);
      std::copy(from, from + ny,
                st->cur.begin() + static_cast<std::ptrdiff_t>(i) * ny);
    }

    // DRAM stream and kernel-handshake FIFOs are rank-local.
    sim::PartitionTagScope tag(cluster.engine(), r);
    cluster.AddMemoryBanks(r, config.banks, config.words_per_cycle);
    const std::uint64_t words =
        static_cast<std::uint64_t>(nx) * static_cast<std::uint64_t>(ny) /
        kMemWordElems;
    for (int bank = 0; bank < config.banks; ++bank) {
      Fifo<MemWord>& fifo = cluster.engine().MakeFifo<MemWord>(
          "r" + std::to_string(r) + ".grid.b" + std::to_string(bank), 8);
      cluster.context(r).memory_bank(bank).AddLoopingReadStream(
          st->cur.data(), static_cast<std::uint64_t>(bank), words, fifo,
          static_cast<std::uint64_t>(config.banks));
      st->streams.push_back(&fifo);
    }
    for (int d = 0; d < 4; ++d) {
      const std::string suffix =
          "r" + std::to_string(r) + ".d" + std::to_string(d);
      st->go_send[d] =
          &cluster.engine().MakeFifo<int>("go_send." + suffix, 2);
      st->go_recv[d] =
          &cluster.engine().MakeFifo<int>("go_recv." + suffix, 2);
      st->send_done[d] =
          &cluster.engine().MakeFifo<int>("send_done." + suffix, 2);
      st->recv_done[d] =
          &cluster.engine().MakeFifo<int>("recv_done." + suffix, 2);
    }
    states.push_back(std::move(st));
  }

  for (int r = 0; r < ranks; ++r) {
    RankState& st = *states[static_cast<std::size_t>(r)];
    for (int d = 0; d < 4; ++d) {
      cluster.AddKernel(r, HaloSendKernel(cluster.context(r), st, d,
                                          config.timesteps),
                        "halo-send" + std::to_string(d));
      cluster.AddKernel(r, HaloRecvKernel(cluster.context(r), st, d,
                                          config.timesteps),
                        "halo-recv" + std::to_string(d));
    }
    cluster.AddKernel(r, ComputeKernel(st, config.timesteps), "compute");
  }

  StencilResult result;
  result.run = cluster.Run();
  result.telemetry = cluster.CaptureTelemetry();

  // Gather the final global grid, a row at a time.
  result.grid.resize(global.size());
  for (int r = 0; r < ranks; ++r) {
    const RankState& st = *states[static_cast<std::size_t>(r)];
    for (int i = 0; i < nx; ++i) {
      const auto from = st.cur.begin() + static_cast<std::ptrdiff_t>(i) * ny;
      std::copy(from, from + ny,
                result.grid.begin() + static_cast<std::ptrdiff_t>(
                                          BlockRowOffset(config, st, i)));
    }
  }
  return result;
}

}  // namespace smi::apps
