#ifndef SMI_SIM_KERNEL_H
#define SMI_SIM_KERNEL_H

/// \file kernel.h
/// Coroutine-based kernel model for HLS-style pipelined code.
///
/// An application kernel in the paper is an HLS-compiled pipelined loop; the
/// interesting contract is its cycle behaviour: one channel operation per
/// endpoint per cycle (II = 1), blocking on full/empty FIFOs. We model a
/// kernel as a C++20 coroutine driven by the cycle engine:
///
///  * `co_await fifo_push(fifo, v)` / `co_await fifo_pop(fifo)` complete
///    immediately (no suspension) when the FIFO port is available this
///    cycle; otherwise the coroutine parks on a poll object that the engine
///    re-checks every subsequent cycle.
///  * Since each FIFO accepts one push and one pop per cycle, a loop body
///    containing one pop and one push naturally runs at II = 1 without any
///    explicit cycle bookkeeping by the kernel author.
///  * `co_await NextCycle{}` models a pure compute/pipeline bubble;
///    `PollingCycle` is the same re-poll point with a self-description.
///
/// Exceptions thrown inside a kernel are captured and rethrown by the
/// engine.

#include <coroutine>
#include <exception>
#include <string>
#include <utility>

#include "sim/clock.h"
#include "sim/fifo.h"

namespace smi::sim {

/// Interface polled by the engine while a kernel is parked. TryComplete must
/// perform the pending operation and return true exactly when it succeeds;
/// it is called at most once per cycle.
///
/// The event-driven scheduler (engine.h) only re-polls a parked kernel when
/// one of the FIFOs reported by WatchFifos committed a transfer, or at the
/// cycle reported by NextPollCycle, whichever comes first. A blocker that
/// fails at cycle `c` must therefore keep failing until one of those events:
/// WatchFifos must cover every FIFO whose activity could make TryComplete
/// succeed, and NextPollCycle must bound any purely time-based completion.
/// The defaults (no watched FIFOs, poll again at now+1) are always correct —
/// they reproduce the synchronous engine's poll-every-cycle behaviour.
class Blocker {
 public:
  virtual ~Blocker() = default;
  /// Attempt the blocked operation at cycle `now`.
  virtual bool TryComplete(Cycle now) = 0;
  /// Human-readable description, used in deadlock diagnostics.
  virtual std::string Describe() const = 0;
  /// Append the FIFOs whose committed activity could unblock this operation.
  virtual void WatchFifos(std::vector<const FifoBase*>& /*out*/) const {}
  /// Next cycle (> now) at which TryComplete could succeed without activity
  /// on a watched FIFO; kNeverCycle if FIFO activity is the only trigger.
  virtual Cycle NextPollCycle(Cycle now) const { return now + 1; }
};

/// Coroutine handle for a simulated kernel; move-only owner of the frame.
class Kernel {
 public:
  struct promise_type {
    Kernel get_return_object() {
      return Kernel(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      exception = std::current_exception();
    }

    Blocker* blocker = nullptr;        ///< set while parked on an operation
    const Cycle* now = nullptr;        ///< engine cycle counter (for awaitables)
    std::exception_ptr exception;
  };

  Kernel() = default;
  explicit Kernel(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}
  Kernel(Kernel&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Kernel& operator=(Kernel&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_.done(); }
  promise_type& promise() const { return handle_.promise(); }
  void Resume() { handle_.resume(); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

namespace detail {

/// Common awaitable plumbing: on suspension, park the blocker in the
/// promise so the engine can poll it.
template <typename Derived>
struct AwaitableBase : Blocker {
  bool await_ready() { return false; }  // overridden via await_suspend logic

  bool await_suspend(std::coroutine_handle<Kernel::promise_type> handle) {
    promise = &handle.promise();
    // Fast path: the operation may already be possible this cycle.
    if (static_cast<Derived*>(this)->TryComplete(*promise->now)) {
      return false;  // do not suspend
    }
    promise->blocker = this;
    return true;
  }

  Kernel::promise_type* promise = nullptr;
};

}  // namespace detail

/// Awaitable: push `value` into `fifo`. Completes in the first cycle in
/// which the FIFO's write port is free and a slot is available.
template <typename T>
struct FifoPushAwaitable final
    : detail::AwaitableBase<FifoPushAwaitable<T>> {
  FifoPushAwaitable(Fifo<T>& f, T v) : fifo(&f), value(std::move(v)) {}

  bool TryComplete(Cycle now) override {
    if (!fifo->CanPush(now)) return false;
    fifo->Push(value, now);
    return true;
  }
  std::string Describe() const override {
    return "push on FIFO '" + fifo->name() + "'";
  }
  void WatchFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(fifo);
  }
  Cycle NextPollCycle(Cycle /*now*/) const override { return kNeverCycle; }
  void await_resume() const noexcept {}

  Fifo<T>* fifo;
  T value;
};

/// Awaitable: pop one element from `fifo`; `await_resume` yields the value.
template <typename T>
struct FifoPopAwaitable final : detail::AwaitableBase<FifoPopAwaitable<T>> {
  explicit FifoPopAwaitable(Fifo<T>& f) : fifo(&f) {}

  bool TryComplete(Cycle now) override {
    if (!fifo->CanPop(now)) return false;
    value = fifo->Pop(now);
    return true;
  }
  std::string Describe() const override {
    return "pop on FIFO '" + fifo->name() + "'";
  }
  void WatchFifos(std::vector<const FifoBase*>& out) const override {
    out.push_back(fifo);
  }
  Cycle NextPollCycle(Cycle /*now*/) const override { return kNeverCycle; }
  T await_resume() noexcept { return std::move(value); }

  Fifo<T>* fifo;
  T value{};
};

/// Awaitable: yield until the next cycle. This is a re-poll point (used by
/// polling loops), not a stall: an operation completing in the resume cycle
/// still sustains II=1. Use WaitCycles{k} to model a loop iteration that
/// takes k cycles (II=k).
struct NextCycle final : detail::AwaitableBase<NextCycle> {
  bool TryComplete(Cycle now) override {
    if (armed && now > start) return true;
    armed = true;
    start = now;
    return false;
  }
  std::string Describe() const override { return "next-cycle bubble"; }
  void await_resume() const noexcept {}

  bool armed = false;
  Cycle start = 0;
};

/// Awaitable: NextCycle for a polling loop that can say what it waits for.
/// It polls exactly like NextCycle and watches nothing; `describe()` — the
/// loop's own account of the missing input, read off its live state — is
/// called only for deadlock diagnostics.
template <typename F>
struct PollingCycle final : detail::AwaitableBase<PollingCycle<F>> {
  explicit PollingCycle(F f) : describe(std::move(f)) {}
  bool TryComplete(Cycle now) override { return bubble.TryComplete(now); }
  std::string Describe() const override { return describe(); }
  void await_resume() const noexcept {}

  NextCycle bubble;
  F describe;
};

/// Awaitable: suspend until `n` cycles after the cycle in which the wait was
/// issued. Issued right after an operation at cycle c, the next operation
/// can happen at cycle c+n — i.e. this models an iteration latency of n.
struct WaitCycles final : detail::AwaitableBase<WaitCycles> {
  explicit WaitCycles(Cycle n) : remaining(n) {}
  bool TryComplete(Cycle now) override {
    if (!armed) {
      armed = true;
      deadline = now + remaining;
      return remaining == 0;
    }
    return now >= deadline;
  }
  std::string Describe() const override { return "timed wait"; }
  Cycle NextPollCycle(Cycle now) const override {
    if (!armed) return now + 1;
    return deadline > now ? deadline : now + 1;
  }
  void await_resume() const noexcept {}

  Cycle remaining;
  Cycle deadline = 0;
  bool armed = false;
};

/// Convenience factories so kernels read naturally.
template <typename T>
FifoPushAwaitable<T> fifo_push(Fifo<T>& fifo, T value) {
  return FifoPushAwaitable<T>(fifo, std::move(value));
}
template <typename T>
FifoPopAwaitable<T> fifo_pop(Fifo<T>& fifo) {
  return FifoPopAwaitable<T>(fifo);
}

}  // namespace smi::sim

#endif  // SMI_SIM_KERNEL_H
