#ifndef SMI_SIM_SERIAL_LINK_H
#define SMI_SIM_SERIAL_LINK_H

/// \file serial_link.h
/// The core both serial links build on: `FlowLink` (lossless, credit
/// window, flow-level fast path) and `ReliableLink` (go-back-N framing) run
/// their protocols over the same pieces.
///
///  * `Ring<T>`: a growable power-of-two FIFO ring, empty (and unallocated)
///    until the first push, so an idle link allocates nothing.
///  * `Wire<T>`: one channel's in-flight payloads with batch-compressed
///    ready stamps (payload i of a batch matures at first_ready + i*step),
///    so the flow path moves a whole interval with span copies. While the
///    link is split the sender half writes only the staging buffer and the
///    receiver half touches only the ring; the barrier `Merge` is the only
///    place the ring grows in split mode.
///  * `SerialLink<T>`: the Component + CutLink boilerplate and the link's
///    counters. Every counter update is logged in one `obs::Journal` per
///    half, active for the whole parallel run (split or not), cleared at
///    every barrier and replayed by `TrimDeliveriesAtOrAfter` — the
///    mechanism the recorder uses for every other telemetry counter.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.h"
#include "obs/recorder.h"
#include "sim/clock.h"
#include "sim/component.h"
#include "sim/fifo.h"

namespace smi::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  T& front() { return (*this)[0]; }
  const T& front() const { return buf_[head_ & mask_]; }
  T& back() { return (*this)[count_ - 1]; }

  void push_back(T value) {
    if (count_ == buf_.size()) Grow(1);
    (*this)[count_] = std::move(value);
    ++count_;
  }
  void pop_front() {
    ++head_;  // monotone; masked on access
    --count_;
  }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

  /// Bulk append/remove of `n` elements through at most two contiguous
  /// spans (the ring may wrap): `fill(T*, count)` writes the new tail,
  /// `drain(T*, count)` consumes the head.
  template <typename Fn>
  void PushSpans(std::size_t n, Fn&& fill) {
    if (count_ + n > buf_.size()) Grow(n);
    Spans(head_ + count_, n, fill);
    count_ += n;
  }
  template <typename Fn>
  void PopSpans(std::size_t n, Fn&& drain) {
    Spans(head_, n, drain);
    head_ += n;
    count_ -= n;
  }

 private:
  template <typename Fn>
  void Spans(std::size_t start, std::size_t n, Fn& fn) {
    const std::size_t pos = start & mask_;
    const std::size_t first = std::min(n, buf_.size() - pos);
    fn(&buf_[pos], first);
    if (n > first) fn(&buf_[0], n - first);
  }

  void Grow(std::size_t need) {
    std::size_t size = std::max<std::size_t>(buf_.size(), 2);
    while (size < count_ + need) size <<= 1;
    std::vector<T> next(size);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = size - 1;
  }

  std::vector<T> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

template <typename T>
class Wire {
 public:
  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return ring_.size(); }
  Cycle FrontReady() const { return batches_.front().first_ready; }
  bool HeadMatured(Cycle now) const {
    return !empty() && FrontReady() <= now;
  }
  const T& Front() const { return ring_.front(); }

  /// Append one payload maturing at `ready`, extending the tail batch when
  /// the stamp continues its arithmetic run (the per-cycle common case).
  void Push(T payload, Cycle ready) {
    ring_.push_back(std::move(payload));
    if (!batches_.empty()) {
      Batch& b = batches_.back();
      if ((b.step == 1 && ready == b.first_ready + b.count) ||
          (b.step == 0 && ready == b.first_ready)) {
        ++b.count;
        return;
      }
      if (b.count == 1 && ready == b.first_ready) {
        b.step = 0;
        ++b.count;
        return;
      }
    }
    batches_.push_back(Batch{ready, 1, 1});
  }

  /// Pop the head payload.
  T Pop() {
    T payload = std::move(ring_.front());
    ring_.pop_front();
    Batch& b = batches_.front();
    b.first_ready += b.step;
    if (--b.count == 0) batches_.pop_front();
    return payload;
  }

  /// The sender's entry point: the ring when fused, the staging buffer
  /// while split (BeginSplit .. EndSplit).
  void Send(T payload, Cycle ready) {
    if (split_) {
      staging_.push_back(Slot{std::move(payload), ready});
    } else {
      Push(std::move(payload), ready);
    }
  }
  void BeginSplit() { split_ = true; }
  void EndSplit() {
    Merge();
    split_ = false;
  }
  /// Barrier merge: hand the staged payloads to the receiver's ring.
  void Merge() {
    for (Slot& slot : staging_) Push(std::move(slot.payload), slot.ready);
    staging_.clear();
  }
  void Clear() {
    ring_.clear();
    batches_.clear();
    staging_.clear();
  }

  /// Flow path: deliver every matured payload `rx` has committed room for,
  /// as span copies. A step-1 batch can be split by the maturity horizon or
  /// the space bound; the rest stays at the front for the next wake.
  /// Returns the number delivered.
  std::uint64_t DeliverMatured(Fifo<T>& rx, Cycle now) {
    std::uint64_t space = rx.ModeledPushBudget();
    std::uint64_t moved = 0;
    while (space > 0 && !empty()) {
      Batch& b = batches_.front();
      if (b.first_ready > now) break;
      std::uint64_t m = b.count;
      if (b.step != 0) {
        const std::uint64_t mature =
            static_cast<std::uint64_t>(now - b.first_ready) + 1;
        if (mature < m) m = mature;
      }
      if (m > space) m = space;
      ring_.PopSpans(static_cast<std::size_t>(m), [&](T* p, std::size_t k) {
        rx.PushBulkModeled(p, k, now);
      });
      if (b.step != 0) b.first_ready += static_cast<Cycle>(m);
      b.count -= m;
      if (b.count == 0) batches_.pop_front();
      space -= m;
      moved += m;
    }
    return moved;
  }

  /// Flow path: pop `n` payloads off `tx` as span copies. They left on
  /// consecutive cycles with payload i due at r0 + i, but nothing matures
  /// before `now + 1`: the already-due prefix matures together next cycle
  /// (step 0), the rest one per cycle (step 1).
  void AcceptBulk(Fifo<T>& tx, std::uint64_t n, Cycle r0, Cycle now) {
    ring_.PushSpans(static_cast<std::size_t>(n), [&](T* p, std::size_t k) {
      tx.PopBulkModeled(p, k, now);
    });
    if (r0 > now) {
      batches_.push_back(Batch{r0, n, 1});
      return;
    }
    std::uint64_t clamped = static_cast<std::uint64_t>(now - r0) + 1;
    if (clamped > n) clamped = n;
    batches_.push_back(Batch{now + 1, clamped, 0});
    if (n > clamped) batches_.push_back(Batch{now + 1, n - clamped, 1});
  }

 private:
  /// Ready stamps of a run of consecutive in-flight payloads: payload i
  /// matures at first_ready + i*step.
  struct Batch {
    Cycle first_ready = 0;
    std::uint64_t count = 0;
    std::uint32_t step = 0;
  };
  struct Slot {
    T payload;
    Cycle ready;
  };

  Ring<T> ring_;
  Ring<Batch> batches_;
  std::vector<Slot> staging_;
  bool split_ = false;
};

template <typename T>
class SerialLink : public Component, public CutLink {
 public:
  std::uint64_t delivered() const { return stats_.delivered; }
  const obs::ReliabilityCounters& stats() const { return stats_; }

  /// TX is the link's input, RX its output. A push into TX wakes the link
  /// on the next cycle whatever it holds: the sender side accounts its
  /// credit-stall state from the step that observes it, and a push can turn
  /// that state on.
  void DeclareFifos(FifoRoles& roles) override {
    roles.inputs.push_back(tx_);
    roles.outputs.push_back(rx_);
  }
  Cycle InputPushed(std::size_t /*slot*/, Cycle now) override {
    return now + 1;
  }
  void AttachObservability(obs::Recorder& recorder) override {
    obs_ = recorder.AddLink(name(), latency_);
    obs_->reliability = &stats_;
  }

  Cycle link_latency() const override { return latency_; }
  const FifoBase* tx_fifo() const override { return tx_; }
  const FifoBase* rx_fifo() const override { return rx_; }

  void BeginParallelRun() override { SetJournaling(true); }
  void EndParallelRun() override { SetJournaling(false); }
  void OnUnsplitBarrier(Cycle /*epoch_start*/) override { ClearJournals(); }
  void TrimDeliveriesAtOrAfter(Cycle cycle) override {
    tx_journal_.TrimAtOrAfter(cycle);
    rx_journal_.TrimAtOrAfter(cycle);
  }

 protected:
  SerialLink(std::string name, Fifo<T>& tx, Fifo<T>& rx, Cycle latency)
      : Component(std::move(name)), tx_(&tx), rx_(&rx), latency_(latency) {}

  /// `counter += n` at cycle `now`, made by the sender or receiver half.
  void CountTx(std::uint64_t& counter, Cycle now) {
    ++counter;
    tx_journal_.Add(&counter, now, 1);
  }
  void CountRx(std::uint64_t& counter, Cycle now, std::uint64_t n = 1) {
    counter += n;
    rx_journal_.Add(&counter, now, n);
  }
  void CountDelivered(Cycle now, std::uint64_t n = 1) {
    CountRx(stats_.delivered, now, n);
    if (obs_ != nullptr) obs_->OnDeliver(now, n);
  }
  /// The sender side's step at `now` ended credit-stalled or not (TX data
  /// it could not accept); the stall span runs until the next such step.
  void CountTxCycle(Cycle now, bool stalled) {
    tx_stalled_ = stalled;
    if (obs_ != nullptr) obs_->OnTxCycle(now, stalled);
  }
  /// TX holds data the last sender step did not count as stalled: the next
  /// cycle either accepts it or starts a credit-stall span, and both need a
  /// sender step.
  bool TxNeedsStep() const { return !tx_stalled_ && tx_->occupancy() > 0; }
  /// Only the final epoch's updates can need trimming.
  void ClearJournals() {
    tx_journal_.Clear();
    rx_journal_.Clear();
  }

  Fifo<T>* tx_;
  Fifo<T>* rx_;
  Cycle latency_;
  obs::LinkCounters* obs_ = nullptr;
  obs::ReliabilityCounters stats_;

 private:
  void SetJournaling(bool on) {
    tx_journal_.set_active(on);
    rx_journal_.set_active(on);
  }

  obs::Journal tx_journal_;
  obs::Journal rx_journal_;
  bool tx_stalled_ = false;  ///< see CountTxCycle
};

}  // namespace smi::sim

#endif  // SMI_SIM_SERIAL_LINK_H
