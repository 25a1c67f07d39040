#ifndef SMI_MPI_MPI_H
#define SMI_MPI_MPI_H

/// \file mpi.h
/// Funneled MPI-subset shim lowered onto SMI channels.
///
/// The paper positions SMI as "MPI-like": transient channels replace
/// matching, collectives are first-class channel types. This shim closes
/// the loop — it lets an MPI-style program (a single sequential kernel per
/// rank issuing Send/Recv/Bcast/Reduce/Allreduce/Scatter/Gather/Barrier
/// calls on buffers, the MPI_THREAD_FUNNELED discipline) run unchanged on
/// the simulated SMI fabric. Each call opens a transient SMI channel and
/// streams the buffer element by element through it.
///
/// Port layout (the static fabric the shim's program spec requests):
///  * p2p: port s carries every message whose *sender* is global rank s.
///    Sends from one rank are serialized by the funneled discipline and
///    ports are sender-unique, so receives need no tag matching. Tags and
///    MPI_ANY_SOURCE are not supported.
///  * collectives: one port per (kind, algorithm, datatype) triple starting
///    at world_size — both the linear and the binomial-tree support kernels
///    are instantiated, and the per-size Selector steers each call to one
///    of them (a routing decision; the fabric is static).
/// Ports are 8-bit on the wire, so world_size + 30 must be <= 256.
///
/// Usage inside a kernel:
///   smi::mpi::Comm comm = smi::mpi::MPI_Init(ctx, config);
///   co_await smi::mpi::MPI_Allreduce(snd, rcv, n, ReduceOp::kAdd, comm);

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "core/smi.h"
#include "mpi/selector.h"

namespace smi::mpi {

/// Collective port for (kind, algo, type) in a world of `world_size` ranks.
/// The layout is fixed (Scatter/Gather tree slots exist but stay unused),
/// so it can be computed by tests and tools without a Comm.
int CollectivePort(int world_size, core::CollKind kind, core::CollAlgo algo,
                   core::DataType type);

/// Thread-safe record of the selector's per-call decisions, shared by every
/// rank's Comm (ranks run on different threads under the parallel
/// scheduler). Deduped by (collective, bytes, comm size) with call counts,
/// so the content is deterministic regardless of arrival order.
class DecisionLog {
 public:
  void Record(core::CollKind kind, core::CollAlgo algo, std::uint64_t bytes,
              int comm_size);
  /// {"decisions": [{"collective", "bytes", "comm", "algorithm", "calls"}]}
  json::Value ToJson() const;

 private:
  using Key = std::tuple<core::CollKind, std::uint64_t, int>;
  mutable std::mutex mu_;
  std::map<Key, std::pair<core::CollAlgo, std::uint64_t>> decisions_;
};

struct ShimConfig {
  Selector selector = Selector::Defaults();
  /// Reduce/Allreduce flow-control tile size C (§4.4).
  int credits = 64;
  /// Decision log shared across ranks (optional; not owned).
  DecisionLog* log = nullptr;
  /// Datatypes the fabric instantiates collective support kernels for.
  std::vector<core::DataType> types = {core::DataType::kInt,
                                       core::DataType::kFloat,
                                       core::DataType::kDouble};
};

/// The SPMD program spec every rank of an MPI-shim world uses: p2p send +
/// recv endpoints on ports 0..world_size-1 and the collective support
/// kernels of the layout above for each type in `config.types`.
core::ProgramSpec WorldSpec(int world_size, const ShimConfig& config = {});

namespace detail {
template <typename T> struct SendCall;
template <typename T> struct RecvCall;
template <typename T> struct CollCall;
struct BarrierCall;
}  // namespace detail

/// Per-rank communicator handle (the world communicator). Construct once
/// per application kernel; every method returns an awaitable that completes
/// when the whole buffer has been streamed.
class Comm {
 public:
  explicit Comm(core::Context& ctx, ShimConfig config = {})
      : ctx_(&ctx), config_(std::move(config)) {
    if (ctx.world_size() + 30 > 256) {
      throw ConfigError("MPI shim needs world_size + 30 <= 256 "
                        "(8-bit ports)");
    }
  }

  int rank() const { return ctx_->rank(); }
  int size() const { return ctx_->world_size(); }

  template <typename T>
  detail::SendCall<T> Send(const T* buf, int count, int dest) {
    return detail::SendCall<T>(
        ctx_->OpenSendChannel(count, core::DataTypeOf<T>::value, dest,
                              /*port=*/rank(), ctx_->world()),
        buf, count);
  }

  template <typename T>
  detail::RecvCall<T> Recv(T* buf, int count, int source) {
    return detail::RecvCall<T>(
        ctx_->OpenRecvChannel(count, core::DataTypeOf<T>::value, source,
                              /*port=*/source, ctx_->world()),
        buf, count);
  }

  template <typename T>
  detail::CollCall<T> Bcast(T* buf, int count, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kBcast, count, type);
    return detail::CollCall<T>(
        ctx_->OpenBcastChannel(count, type, port, root, ctx_->world()), buf,
        buf);
  }

  template <typename T>
  detail::CollCall<T> Reduce(const T* snd, T* rcv, int count,
                             core::ReduceOp op, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kReduce, count, type);
    return detail::CollCall<T>(
        ctx_->OpenReduceChannel(count, type, op, port, root, ctx_->world(),
                                config_.credits),
        snd, rcv);
  }

  template <typename T>
  detail::CollCall<T> Allreduce(const T* snd, T* rcv, int count,
                                core::ReduceOp op) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kAllreduce, count, type);
    return detail::CollCall<T>(
        ctx_->OpenAllreduceChannel(count, type, op, port, ctx_->world(),
                                   config_.credits),
        snd, rcv);
  }

  /// The root reads count*size() elements from snd; every rank receives
  /// count into rcv.
  template <typename T>
  detail::CollCall<T> Scatter(const T* snd, T* rcv, int count, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kScatter, count, type);
    return detail::CollCall<T>(
        ctx_->OpenScatterChannel(count, type, port, root, ctx_->world()),
        snd, rcv);
  }

  /// Every rank sends count elements from snd; the root receives
  /// count*size() into rcv.
  template <typename T>
  detail::CollCall<T> Gather(const T* snd, T* rcv, int count, int root) {
    const core::DataType type = core::DataTypeOf<T>::value;
    const int port = ChoosePort(core::CollKind::kGather, count, type);
    return detail::CollCall<T>(
        ctx_->OpenGatherChannel(count, type, port, root, ctx_->world()), snd,
        rcv);
  }

  detail::BarrierCall Barrier();

 private:
  /// Run the selector for one call, record the decision, and map the verdict
  /// to the port hosting that algorithm's support kernel.
  int ChoosePort(core::CollKind kind, int count, core::DataType type) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * core::SizeOf(type);
    const core::CollAlgo algo = config_.selector.Choose(kind, bytes, size());
    if (config_.log != nullptr) {
      config_.log->Record(kind, algo, bytes, size());
    }
    return CollectivePort(size(), kind, algo, type);
  }

  core::Context* ctx_;
  ShimConfig config_;
};

// ---------------------------------------------------------------------------
// Call awaitables: each streams a whole buffer through one transient SMI
// channel, one element per cycle (the inner per-element awaitables enforce
// II=1 and backpressure; the call owns the channel and the loop).
// ---------------------------------------------------------------------------

namespace detail {

template <typename T>
struct SendCall final : sim::detail::AwaitableBase<SendCall<T>> {
  SendCall(core::SendChannel chan, const T* buf, int count)
      : chan(std::move(chan)), buf(buf), count(count) {}
  core::SendChannel chan;
  const T* buf;
  int count;
  int idx = 0;
  std::optional<core::detail::PushAwaitable<T>> inner;

  bool TryComplete(sim::Cycle now) override {
    if (idx == count) return true;
    if (!inner) inner.emplace(chan.Push(buf[idx]));
    if (inner->TryComplete(now)) {
      if (++idx == count) return true;
      inner.emplace(chan.Push(buf[idx]));
    }
    return false;
  }
  std::string Describe() const override {
    return "MPI_Send (" + std::to_string(idx) + "/" + std::to_string(count) +
           ")";
  }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    out.push_back(chan.endpoint_fifo());
  }
  sim::Cycle NextPollCycle(sim::Cycle now) const override {
    return chan.OpThisCycle(now) ? now + 1 : sim::kNeverCycle;
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct RecvCall final : sim::detail::AwaitableBase<RecvCall<T>> {
  RecvCall(core::RecvChannel chan, T* buf, int count)
      : chan(std::move(chan)), buf(buf), count(count) {}
  core::RecvChannel chan;
  T* buf;
  int count;
  int idx = 0;
  std::optional<core::detail::PopAwaitable<T>> inner;

  bool TryComplete(sim::Cycle now) override {
    if (idx == count) return true;
    if (!inner) inner.emplace(chan.Pop<T>());
    if (inner->TryComplete(now)) {
      buf[idx] = inner->value;
      if (++idx == count) return true;
      inner.emplace(chan.Pop<T>());
    }
    return false;
  }
  std::string Describe() const override {
    return "MPI_Recv (" + std::to_string(idx) + "/" + std::to_string(count) +
           ")";
  }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    out.push_back(chan.endpoint_fifo());
  }
  sim::Cycle NextPollCycle(sim::Cycle now) const override {
    return chan.OpThisCycle(now) ? now + 1 : sim::kNeverCycle;
  }
  void await_resume() const noexcept {}
};

/// The one buffer call of every collective: streams the buffers through
/// the channel's element calls (core::detail::CollAwaitable), one per
/// cycle at best. The send cursor advances on each element call that
/// pushed, the receive cursor on each that popped, so core::StepOf alone
/// decides which buffer slots a rank reads and writes.
template <typename T>
struct CollCall final : sim::detail::AwaitableBase<CollCall<T>> {
  /// Every channel type is a CollChannelBase with no state of its own.
  CollCall(core::CollChannelBase chan, const T* snd, T* rcv)
      : chan(std::move(chan)), snd(snd), rcv(rcv) {}
  core::CollChannelBase chan;
  const T* snd;
  T* rcv;
  int snd_idx = 0;
  int rcv_idx = 0;
  std::optional<core::detail::CollAwaitable<T>> inner;

  void Arm() {
    inner.emplace(chan.Call<T>(snd == nullptr ? nullptr : snd + snd_idx,
                               rcv == nullptr ? nullptr : rcv + rcv_idx));
  }
  bool TryComplete(sim::Cycle now) override {
    if (chan.calls() == chan.total_calls()) return true;
    if (!inner) Arm();
    if (inner->TryComplete(now)) {
      snd_idx += inner->pushed ? 1 : 0;
      rcv_idx += inner->popped ? 1 : 0;
      if (chan.calls() == chan.total_calls()) return true;
      Arm();
    }
    return false;
  }
  std::string Describe() const override {
    return std::string("MPI_") + core::CollKindName(chan.kind()) + " (" +
           std::to_string(chan.calls()) + "/" +
           std::to_string(chan.total_calls()) + ")";
  }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    inner->WatchFifos(out);
  }
  sim::Cycle NextPollCycle(sim::Cycle now) const override {
    return inner->NextPollCycle(now);
  }
  void await_resume() const noexcept {}
};

/// Barrier = one-element int Allreduce nobody reads. The members are
/// declared before `inner` so its buffer pointers are valid; mandatory copy
/// elision keeps them stable through the prvalue return.
struct BarrierCall final : sim::detail::AwaitableBase<BarrierCall> {
  explicit BarrierCall(core::AllreduceChannel chan)
      : inner(std::move(chan), &snd, &rcv) {}
  std::int32_t snd = 0;
  std::int32_t rcv = 0;
  CollCall<std::int32_t> inner;

  bool TryComplete(sim::Cycle now) override { return inner.TryComplete(now); }
  std::string Describe() const override { return "MPI_Barrier"; }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    inner.WatchFifos(out);
  }
  sim::Cycle NextPollCycle(sim::Cycle now) const override {
    return inner.NextPollCycle(now);
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline detail::BarrierCall Comm::Barrier() {
  const int port = ChoosePort(core::CollKind::kAllreduce, 1,
                              core::DataType::kInt);
  return detail::BarrierCall(ctx_->OpenAllreduceChannel(
      1, core::DataType::kInt, core::ReduceOp::kMax, port, ctx_->world(),
      config_.credits));
}

// ---------------------------------------------------------------------------
// MPI-flavored free functions, for porting MPI programs with minimal edits.
// ---------------------------------------------------------------------------

inline Comm MPI_Init(core::Context& ctx, ShimConfig config = {}) {
  return Comm(ctx, std::move(config));
}
inline void MPI_Comm_rank(const Comm& comm, int* rank) { *rank = comm.rank(); }
inline void MPI_Comm_size(const Comm& comm, int* size) { *size = comm.size(); }

template <typename T>
detail::SendCall<T> MPI_Send(const T* buf, int count, int dest, Comm& comm) {
  return comm.Send(buf, count, dest);
}
template <typename T>
detail::RecvCall<T> MPI_Recv(T* buf, int count, int source, Comm& comm) {
  return comm.Recv(buf, count, source);
}
template <typename T>
detail::CollCall<T> MPI_Bcast(T* buf, int count, int root, Comm& comm) {
  return comm.Bcast(buf, count, root);
}
template <typename T>
detail::CollCall<T> MPI_Reduce(const T* snd, T* rcv, int count,
                               core::ReduceOp op, int root, Comm& comm) {
  return comm.Reduce(snd, rcv, count, op, root);
}
template <typename T>
detail::CollCall<T> MPI_Allreduce(const T* snd, T* rcv, int count,
                                  core::ReduceOp op, Comm& comm) {
  return comm.Allreduce(snd, rcv, count, op);
}
template <typename T>
detail::CollCall<T> MPI_Scatter(const T* snd, T* rcv, int count, int root,
                                Comm& comm) {
  return comm.Scatter(snd, rcv, count, root);
}
template <typename T>
detail::CollCall<T> MPI_Gather(const T* snd, T* rcv, int count, int root,
                               Comm& comm) {
  return comm.Gather(snd, rcv, count, root);
}
inline detail::BarrierCall MPI_Barrier(Comm& comm) { return comm.Barrier(); }

}  // namespace smi::mpi

#endif  // SMI_MPI_MPI_H
