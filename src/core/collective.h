#ifndef SMI_CORE_COLLECTIVE_H
#define SMI_CORE_COLLECTIVE_H

/// \file collective.h
/// Application-side collective channels (§3.2). Each collective has its own
/// channel type and communication primitive, mirroring the paper's API:
///
///   SMI_BChannel / SMI_Bcast   -> BcastChannel::Bcast
///   SMI_RChannel / SMI_Reduce  -> ReduceChannel::Reduce
///   ScatterChannel::Scatter, GatherChannel::Gather
///
/// A channel open is recorded locally and announced to the rank's support
/// kernel with a config token on the first primitive call; root and
/// non-root roles both use the same call sequence where the paper defines
/// one (Bcast, Reduce), and the documented asymmetric sequences for Scatter
/// and Gather (the root streams count*comm_size elements, non-roots stream
/// count). Every primitive is one element call (detail::CollAwaitable):
/// StepOf says whether the call pushes, pops, or both.

#include <string>

#include "core/coll_token.h"
#include "core/comm.h"
#include "core/types.h"
#include "sim/kernel.h"

namespace smi::core {

namespace detail {
template <typename T> struct CollAwaitable;
}  // namespace detail

/// What one collective call does at one rank: push the rank's element to
/// the support kernel, pop a result from it, or both.
struct CollStep {
  bool push = false;
  bool pop = false;
};

/// The one rule behind every collective call: call `call` of communicator
/// rank `me` pushes if the rank contributes to it and pops if it receives
/// one. A Scatter/Gather root makes count*comm_size calls in rank order, so
/// its own segment is the window call / count == root.
inline CollStep StepOf(const CollConfig& cfg, int me, int call) {
  const bool root = me == cfg.root_comm;
  const bool own_window =
      root && cfg.count > 0 && call / cfg.count == cfg.root_comm;
  switch (cfg.kind) {
    case CollKind::kBcast: return {root, !root};
    case CollKind::kReduce: return {true, root};
    case CollKind::kAllreduce: return {true, true};
    case CollKind::kScatter: return {root, !root || own_window};
    case CollKind::kGather: return {!root || own_window, root};
  }
  return {};
}

/// Base for all collective channels: owns the config token, the FIFOs to
/// the support kernel and the call counter that StepOf reads.
class CollChannelBase {
 public:
  CollChannelBase(CollConfig config, int my_global, TokenFifo& app_in,
                  TokenFifo& app_out)
      : config_(std::move(config)),
        app_in_(&app_in),
        app_out_(&app_out) {
    my_comm_ = -1;
    for (std::size_t i = 0; i < config_.comm_global.size(); ++i) {
      if (config_.comm_global[i] == my_global) {
        my_comm_ = static_cast<int>(i);
        break;
      }
    }
    if (my_comm_ < 0) {
      throw ConfigError("collective opened by a rank outside its "
                        "communicator");
    }
    if (config_.root_comm < 0 ||
        config_.root_comm >= static_cast<int>(config_.comm_global.size())) {
      throw ConfigError("collective root rank out of range");
    }
  }

  bool is_root() const { return my_comm_ == config_.root_comm; }
  CollKind kind() const { return config_.kind; }
  int count() const { return config_.count; }
  DataType type() const { return config_.type; }
  int comm_size() const {
    return static_cast<int>(config_.comm_global.size());
  }
  int root_comm_rank() const { return config_.root_comm; }
  /// Calls completed so far, and calls the channel accepts: count, or
  /// count*comm_size at a Scatter/Gather root.
  int calls() const { return calls_; }
  int total_calls() const {
    const bool all_segments =
        is_root() && (config_.kind == CollKind::kScatter ||
                      config_.kind == CollKind::kGather);
    return all_segments ? config_.count * comm_size() : config_.count;
  }

  /// The generic collective call every primitive below forwards to: pushes
  /// *snd if this call contributes, pops into *rcv if it receives (StepOf).
  /// Throws ConfigError past total_calls() and on a null pointer the call
  /// would read or write.
  template <typename T>
  detail::CollAwaitable<T> Call(const T* snd, T* rcv) {
    CheckType<T>();
    if (calls_ >= total_calls()) {
      throw ConfigError(std::string("SMI_") + CollKindName(config_.kind) +
                        " beyond the declared count (" +
                        std::to_string(total_calls()) + " calls)");
    }
    return detail::CollAwaitable<T>(this, snd, rcv);
  }

  /// "SMI_Reduce (root, call 3/5, awaiting result)": the deadlock-report
  /// line of the call in progress.
  std::string Describe(const char* phase) const {
    return std::string("SMI_") + CollKindName(config_.kind) + " (" +
           (is_root() ? "root" : "non-root") + ", call " +
           std::to_string(calls_ + 1) + "/" + std::to_string(total_calls()) +
           ", " + phase + ")";
  }

  /// Push the config token if not yet announced; returns false while the
  /// FIFO cannot accept it this cycle.
  bool EnsureConfigSent(sim::Cycle now) {
    if (config_sent_) return true;
    if (!app_in_->CanPush(now)) return false;
    app_in_->Push(CollToken(config_), now);
    config_sent_ = true;
    return true;
  }

  TokenFifo& app_in() { return *app_in_; }
  TokenFifo& app_out() { return *app_out_; }
  const TokenFifo& app_in() const { return *app_in_; }
  const TokenFifo& app_out() const { return *app_out_; }

 protected:
  template <typename T> friend struct detail::CollAwaitable;

  template <typename T>
  void CheckType() const {
    if (DataTypeOf<T>::value != config_.type) {
      throw ConfigError(std::string("collective datatype mismatch: declared ") +
                        DataTypeName(config_.type) + ", accessed as " +
                        DataTypeName(DataTypeOf<T>::value));
    }
  }

  Element PopElement(sim::Cycle now) {
    CollToken tok = app_out_->Pop(now);
    if (!std::holds_alternative<Element>(tok)) {
      throw ConfigError("collective channel received a non-element token");
    }
    return std::get<Element>(tok);
  }

  CollConfig config_;
  TokenFifo* app_in_;
  TokenFifo* app_out_;
  int my_comm_;
  bool config_sent_ = false;
  int calls_ = 0;
};

/// SMI_BChannel: the root streams `count` elements to every other rank in
/// the communicator; every rank calls Bcast exactly `count` times.
class BcastChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;

  /// SMI_Bcast: the root pushes data toward the other ranks; non-roots
  /// receive into data.
  template <typename T>
  detail::CollAwaitable<T> Bcast(T& data) {
    return Call<T>(&data, &data);
  }
};

/// SMI_RChannel: every rank contributes `count` elements; the reduced
/// results are produced at the root. Every rank calls Reduce `count` times.
class ReduceChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;
  ReduceOp op() const { return config_.op; }

  /// SMI_Reduce: sends data_snd; at the root, data_rcv receives the
  /// element-wise reduction across all ranks. Non-roots leave data_rcv
  /// untouched.
  template <typename T>
  detail::CollAwaitable<T> Reduce(const T& data_snd, T& data_rcv) {
    return Call<T>(&data_snd, &data_rcv);
  }
};

/// Scatter: the root streams count*comm_size elements (its own segment
/// loops back); non-roots receive count elements.
///  * root:     count*comm_size calls; snd must point to the element; rcv is
///              written (returns true) during the root's own segment window;
///  * non-root: count calls; snd is ignored, rcv always written.
class ScatterChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;

  template <typename T>
  detail::CollAwaitable<T> Scatter(const T* snd, T& rcv) {
    return Call<T>(snd, &rcv);
  }
};

/// Gather: non-roots stream count elements to the root; the root receives
/// count*comm_size elements in communicator rank order (its own segment is
/// supplied via snd during its window).
///  * root:     count*comm_size calls; snd consumed during the root window;
///              rcv must point to the element and is always written (returns
///              true);
///  * non-root: count calls; rcv untouched (returns false).
class GatherChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;

  template <typename T>
  detail::CollAwaitable<T> Gather(const T& snd, T* rcv) {
    return Call<T>(&snd, rcv);
  }
};

/// Allreduce: every rank contributes `count` elements and every rank
/// receives all `count` reduced results — the rootless reduce-then-broadcast
/// composition. Every rank calls Allreduce exactly `count` times.
class AllreduceChannel : public CollChannelBase {
 public:
  using CollChannelBase::CollChannelBase;
  ReduceOp op() const { return config_.op; }

  /// Sends data_snd; data_rcv receives the element-wise reduction across
  /// all ranks (written on every rank, unlike Reduce).
  template <typename T>
  detail::CollAwaitable<T> Allreduce(const T& data_snd, T& data_rcv) {
    return Call<T>(&data_snd, &data_rcv);
  }
};

namespace detail {

/// The element awaitable of every collective call: announce the channel
/// (config token), push the element if StepOf says so, pop the result if it
/// says so. Every failure is a CanPush on app_in or a CanPop on app_out, so
/// watching those two FIFOs is sufficient and no timed poll is needed.
template <typename T>
struct CollAwaitable final : sim::detail::AwaitableBase<CollAwaitable<T>> {
  CollAwaitable(CollChannelBase* c, const T* s, T* r)
      : chan(c), step(StepOf(c->config_, c->my_comm_, c->calls_)), rcv(r) {
    if (step.push && s == nullptr) {
      throw ConfigError(chan->Describe("sending") + ": null send element");
    }
    if (step.pop && r == nullptr) {
      throw ConfigError(chan->Describe("receiving") +
                        ": null receive element");
    }
    if (step.push) snd = *s;
  }
  CollChannelBase* chan;
  CollStep step;
  T snd{};
  T* rcv;
  bool pushed = false;
  bool popped = false;

  bool TryComplete(sim::Cycle now) override {
    if (!chan->EnsureConfigSent(now)) return false;
    if (step.push && !pushed) {
      if (!chan->app_in().CanPush(now)) return false;
      chan->app_in().Push(CollToken(Element::Of<T>(snd)), now);
      pushed = true;
    }
    if (step.pop) {
      if (!chan->app_out().CanPop(now)) return false;
      *rcv = chan->PopElement(now).As<T>();
      popped = true;
    }
    ++chan->calls_;
    return true;
  }
  std::string Describe() const override {
    return chan->Describe(!chan->config_sent_     ? "opening"
                          : step.push && !pushed ? "sending"
                                                 : "awaiting result");
  }
  void WatchFifos(std::vector<const sim::FifoBase*>& out) const override {
    out.push_back(&chan->app_in());
    out.push_back(&chan->app_out());
  }
  sim::Cycle NextPollCycle(sim::Cycle /*now*/) const override {
    return sim::kNeverCycle;
  }
  /// True if *rcv was written by this call.
  bool await_resume() const noexcept { return popped; }
};

}  // namespace detail
}  // namespace smi::core

#endif  // SMI_CORE_COLLECTIVE_H
