#ifndef SMI_SIM_FIFO_H
#define SMI_SIM_FIFO_H

/// \file fifo.h
/// Hardware FIFO model with cycle-boundary commit semantics.
///
/// Every on-chip connection in the simulated fabric — application endpoint to
/// communication kernel, CK crossbar edge, link interface, memory stream —
/// is a `Fifo<T>`. Two properties make the simulation deterministic and
/// hardware-faithful:
///
///  1. *Commit semantics*: pushes and pops performed during cycle `c` become
///     visible to readiness checks only from cycle `c+1`. Readiness therefore
///     depends only on the state committed at the previous cycle boundary,
///     never on the order in which components and kernels execute within a
///     cycle. Every FIFO consequently has a minimum latency of one cycle,
///     like a registered hardware FIFO.
///  2. *Port limits*: a FIFO has one write port and one read port; at most
///     one push and one pop can be accepted per cycle. This is what enforces
///     initiation interval 1 on the kernels that use it.
///
/// A FIFO's ring storage is allocated by its first push, not at
/// construction. A fabric creates its crossbar edges and link interface
/// FIFOs up front (19,456 on a 296-rank fat-tree), and only the ones that
/// traffic actually crosses (~2k there) ever hold an element.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/counters.h"
#include "sim/clock.h"

namespace smi::sim {

/// Type-erased base so the engine can commit all FIFOs at cycle boundaries.
class FifoBase {
 public:
  FifoBase(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {
    if (capacity_ == 0) {
      throw ConfigError("FIFO capacity must be >= 1: " + name_);
    }
  }
  virtual ~FifoBase() = default;
  FifoBase(const FifoBase&) = delete;
  FifoBase& operator=(const FifoBase&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }

  /// Total pushes/pops over the whole run (for traffic statistics).
  std::uint64_t total_pushes() const { return tail_; }
  std::uint64_t total_pops() const { return head_; }

  /// Elements currently stored (committed or staged).
  std::size_t occupancy() const {
    return static_cast<std::size_t>(tail_ - head_);
  }

  /// True if a push can be accepted at cycle `now`: a free slot exists among
  /// slots committed free at the last boundary, and the write port is unused
  /// this cycle. (`push_used_` is cleared at every commit, so it means
  /// "the write port was used since the last cycle boundary".)
  bool CanPush(Cycle /*now*/) const {
    return (tail_ - visible_head_) < capacity_ && !push_used_;
  }

  /// True if a pop can be accepted at cycle `now`: a committed element is
  /// available and the read port is unused this cycle.
  bool CanPop(Cycle /*now*/) const {
    return head_ < visible_tail_ && !pop_used_;
  }

  /// --- Modeled bulk access (flow-level link model; see sim/fidelity.h) ---
  ///
  /// A flow-modeled link moves several cycles' worth of payloads in one
  /// wake, deliberately bypassing the one-operation-per-port-per-cycle
  /// limit — it stands in for the operations the skipped cycles would have
  /// performed. Commit semantics still hold: bulk pops only consume
  /// elements committed at the last boundary, bulk pushes only fill slots
  /// committed free, so no same-cycle producer/consumer can observe the
  /// transfer early. Only legal from a component's Step (the transfers
  /// still commit through the normal boundary).

  /// Committed elements available to a modeled bulk pop.
  std::uint64_t ModeledPopBudget() const {
    return visible_tail_ > head_ ? visible_tail_ - head_ : 0;
  }
  /// Committed-free slots available to a modeled bulk push.
  std::uint64_t ModeledPushBudget() const {
    const std::uint64_t used = tail_ - visible_head_;
    return capacity_ > used ? capacity_ - used : 0;
  }

  /// True if a push / a pop was staged since the last commit.
  bool push_staged() const { return visible_tail_ != tail_; }
  bool pop_staged() const { return visible_head_ != head_; }

  /// Commit staged pushes/pops: called by the engine at the boundary of
  /// cycle `now`; the committed state is observed from cycle `now + 1`.
  /// Returns true if any transfer happened during the elapsed cycle (used by
  /// the deadlock watchdog's progress detection).
  bool Commit(Cycle now) {
    const bool active = (visible_tail_ != tail_) || (visible_head_ != head_);
    visible_tail_ = tail_;
    visible_head_ = head_;
    push_used_ = false;
    pop_used_ = false;
    dirty_ = false;
    if (obs_ != nullptr) obs_->OnCommit(now, occupancy(), capacity_);
    return active;
  }

  /// Telemetry counter block, owned by the engine's recorder; null unless
  /// telemetry collection is enabled.
  void set_counters(obs::FifoCounters* counters) { obs_ = counters; }
  obs::FifoCounters* counters() const { return obs_; }

  /// Register this FIFO with a scheduler's dirty list. Any push or pop then
  /// appends the FIFO to `dirty_list` (once per cycle), so the owner only has
  /// to commit FIFOs that were actually touched. `index` is the owner's
  /// bookkeeping slot for this FIFO and `owner` identifies the scheduler so
  /// foreign FIFOs can be told apart (see sched_owner()).
  void AttachScheduler(const void* owner, std::vector<FifoBase*>* dirty_list,
                       std::size_t index) {
    sched_owner_ = owner;
    dirty_list_ = dirty_list;
    sched_index_ = index;
  }
  const void* sched_owner() const { return sched_owner_; }
  std::size_t sched_index() const { return sched_index_; }

 protected:
  void RecordPush(Cycle now) {
    push_used_ = true;
    ++tail_;
    MarkDirty();
    if (obs_ != nullptr) obs_->OnPush(now);
  }
  void RecordPop(Cycle now) {
    pop_used_ = true;
    ++head_;
    MarkDirty();
    if (obs_ != nullptr) obs_->OnPop(now);
  }
  void RecordPushBulk(std::size_t n, Cycle now) {
    push_used_ = true;
    tail_ += n;
    MarkDirty();
    if (obs_ != nullptr) obs_->OnPushBulk(now, n);
  }
  void RecordPopBulk(std::size_t n, Cycle now) {
    pop_used_ = true;
    head_ += n;
    MarkDirty();
    if (obs_ != nullptr) obs_->OnPopBulk(now, n);
  }

  std::uint64_t head_ = 0;          ///< next pop position (live)
  std::uint64_t tail_ = 0;          ///< next push position (live)
  std::uint64_t visible_head_ = 0;  ///< head at last cycle boundary
  std::uint64_t visible_tail_ = 0;  ///< tail at last cycle boundary

 private:
  void MarkDirty() {
    if (dirty_list_ != nullptr && !dirty_) {
      dirty_ = true;
      dirty_list_->push_back(this);
    }
  }

  std::string name_;
  std::size_t capacity_;
  bool push_used_ = false;
  bool pop_used_ = false;
  bool dirty_ = false;
  const void* sched_owner_ = nullptr;
  std::vector<FifoBase*>* dirty_list_ = nullptr;
  std::size_t sched_index_ = 0;
  obs::FifoCounters* obs_ = nullptr;
};

/// Typed hardware FIFO. Storage is a power-of-two ring buffer sized to the
/// configured capacity, allocated by the first push.
template <typename T>
class Fifo final : public FifoBase {
 public:
  Fifo(std::string name, std::size_t capacity)
      : FifoBase(std::move(name), capacity), mask_(RingSize(capacity) - 1) {}

  /// Push `value`; the caller must have checked CanPush(now).
  void Push(const T& value, Cycle now) {
    if (!CanPush(now)) {
      throw ConfigError("push on full/busy FIFO: " + name());
    }
    EnsureRing();
    ring_[static_cast<std::size_t>(tail_) & mask_] = value;
    RecordPush(now);
  }

  /// Pop the head element; the caller must have checked CanPop(now).
  T Pop(Cycle now) {
    if (!CanPop(now)) {
      throw ConfigError("pop on empty/busy FIFO: " + name());
    }
    T value = std::move(ring_[static_cast<std::size_t>(head_) & mask_]);
    RecordPop(now);
    return value;
  }

  /// Peek the head element without consuming it (combinational read of the
  /// FIFO output register — free in hardware). Caller must check CanPop.
  const T& Front(Cycle now) const {
    if (!CanPop(now)) {
      throw ConfigError("front on empty/busy FIFO: " + name());
    }
    return ring_[static_cast<std::size_t>(head_) & mask_];
  }

  /// Modeled bulk push/pop (see FifoBase): move `n` elements in one call as
  /// (at most two) contiguous span copies instead of `n` element operations
  /// — the flow-level fast path's per-payload cost lives or dies here. Port
  /// limits are bypassed, the commit-semantics bounds (ModeledPushBudget /
  /// ModeledPopBudget) are not.
  void PushBulkModeled(T* data, std::size_t n, Cycle now) {
    if (n == 0) return;
    if (ModeledPushBudget() < n) {
      throw ConfigError("modeled bulk push overflows FIFO: " + name());
    }
    EnsureRing();
    const std::size_t pos = static_cast<std::size_t>(tail_) & mask_;
    const std::size_t first = std::min(n, ring_.size() - pos);
    std::move(data, data + first, ring_.begin() + pos);
    std::move(data + first, data + n, ring_.begin());
    RecordPushBulk(n, now);
  }
  void PopBulkModeled(T* out, std::size_t n, Cycle now) {
    if (n == 0) return;
    if (ModeledPopBudget() < n) {
      throw ConfigError("modeled bulk pop underflows FIFO: " + name());
    }
    const std::size_t pos = static_cast<std::size_t>(head_) & mask_;
    const std::size_t first = std::min(n, ring_.size() - pos);
    std::move(ring_.begin() + pos, ring_.begin() + pos + first, out);
    std::move(ring_.begin(), ring_.begin() + (n - first), out + first);
    RecordPopBulk(n, now);
  }

  /// Maintenance drain used by link failover: removes every element —
  /// committed and staged — ignoring the one-pop-per-cycle port limit.
  /// Only legal between cycles (from an engine global event or barrier),
  /// never from a component's Step.
  std::vector<T> DrainAll(Cycle now) {
    std::vector<T> out;
    out.reserve(occupancy());
    while (head_ < tail_) {
      out.push_back(std::move(ring_[static_cast<std::size_t>(head_) & mask_]));
      RecordPop(now);
    }
    return out;
  }

 private:
  static std::size_t RingSize(std::size_t capacity) {
    std::size_t n = 1;
    while (n < capacity) n <<= 1;
    return n;
  }
  /// Every pop, peek and drain follows a push, so only pushes allocate.
  void EnsureRing() {
    if (ring_.empty()) [[unlikely]] ring_.resize(mask_ + 1);
  }

  std::vector<T> ring_;
  std::size_t mask_;
};

}  // namespace smi::sim

#endif  // SMI_SIM_FIFO_H
