#ifndef SMI_TRANSPORT_ARBITER_H
#define SMI_TRANSPORT_ARBITER_H

/// \file arbiter.h
/// The configurable polling scheme shared by CKS and CKR modules (§4.3):
/// the module examines one incoming connection per cycle; when the examined
/// connection has data available it keeps reading from it — up to R packets,
/// while data is available — before continuing to poll the other
/// connections. R trades single-stream bandwidth against per-connection
/// latency when many connections are active.
///
/// With R=1 and five incoming connections, a lone active source is serviced
/// once every 5 cycles — exactly the 5-cycle injection latency the paper
/// reports in Table 4.
///
/// ## Empty slots
///
/// A connection the fabric does not build (an edge no packet can take, see
/// transport/fabric.h) still occupies its slot: `AddEmptySlot` appends one
/// shared, engine-less FIFO that is never written. The pointer examines it
/// like an idle input — examining it costs the cycle and it never holds
/// data, so its has-data bit stays clear — and every later slot keeps its
/// index. Grants, `PollsUntilData`, `WakeForPush` and the CK counters are
/// therefore exactly those of an arbiter with a never-written FIFO in that
/// slot. `AppendInputs` reports the slot too; the engine ignores it, as it
/// ignores every FIFO it does not own.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "obs/counters.h"
#include "sim/clock.h"
#include "sim/fifo.h"

namespace smi::transport {

using PacketFifo = sim::Fifo<net::Packet>;

class PollingArbiter {
 public:
  /// `r` is the paper's R parameter (maximum burst length per connection).
  explicit PollingArbiter(int r) : r_(r) {}

  void AddInput(PacketFifo& fifo) {
    inputs_.push_back(&fifo);
    has_data_.resize((inputs_.size() + 63) / 64, 0);
  }
  /// Append an empty slot (see the file comment).
  void AddEmptySlot() { AddInput(EmptySlot()); }
  std::size_t num_inputs() const { return inputs_.size(); }

  /// Select the input to service at cycle `now`, or nullptr if the
  /// currently examined connection has no data (the pointer then advances —
  /// examining an empty connection costs the cycle).
  ///
  /// The caller must either consume one packet from the returned FIFO this
  /// cycle and then call `Serviced(now)`, or call `Stalled(now)` if its
  /// output was full (the arbiter then retries the same connection next
  /// cycle, since hardware cannot drop the packet it has already latched).
  ///
  /// Cycles since the previous Select are replayed. After a stall they are
  /// stalled retries of the latched packet (the event-driven engine sleeps
  /// a CK whose output is full): pointer and burst stay put, each counts a
  /// hit and a stall. Otherwise they are empty polls: cycles the engine
  /// skipped (see PollsUntilData) and cycles in which the CK stepped without
  /// polling (see SkipPoll). The connection pointer lands exactly where
  /// per-cycle stepping would have left it, so the R-polling cost model is
  /// bit-identical under every scheduler.
  PacketFifo* Select(sim::Cycle now) {
    if (inputs_.empty()) return nullptr;
    const bool retry = stalled_;
    stalled_ = false;
    if (!retry && polled_ && now > last_poll_ + 1) {
      FastForwardIdle(now - last_poll_ - 1);
    }
    polled_ = true;
    last_poll_ = now;
    // One connection is examined per cycle, including the replayed cycles;
    // the watermark counts them all in bulk.
    if (obs_ != nullptr) {
      obs_->CountPollsTo(now + 1);
      if (retry) obs_->EndStall(now);
    }
    PacketFifo* in = inputs_[index_];
    if (in->CanPop(now)) {
      if (obs_ != nullptr) obs_->OnHit(now);
      return in;
    }
    burst_ = 0;
    Advance();
    return nullptr;
  }

  /// The CK stepped at `now` without polling (it drained its fan-out or
  /// recovery queue). A stall's retries end here: the next Select replays
  /// the cycles from `now` on as empty polls, as per-cycle stepping would.
  void SkipPoll(sim::Cycle now) {
    if (!stalled_) return;
    stalled_ = false;
    last_poll_ = now - 1;
    if (obs_ != nullptr) obs_->EndStall(now);
  }

  /// Number of cycles after `now + 1` before the pointer examines an input
  /// that holds data, or kNeverCycle if no input holds any. Called after
  /// cycle `now`'s Step: with no new push, a Select at any earlier cycle is
  /// an empty poll, i.e. exactly what Select replays. Reads the has-data
  /// mask (see MarkHasData): a masked bit scan per 64 inputs.
  ///
  /// The pointer keeps moving between Selects: the next Select replays the
  /// cycles since `last_poll_`, so at cycle w > last_poll_ it examines
  /// `index_ + (w - last_poll_ - 1)`. Before the first Select there is no
  /// replay (the first Select examines `index_` whenever it comes), so an
  /// arbiter that never polled must step as soon as any input holds data.
  /// A stalled arbiter's pointer stays on the latched input, which holds
  /// data: the answer is 0.
  sim::Cycle PollsUntilData(sim::Cycle now) const {
    const std::size_t n = inputs_.size();
    if (n == 0) return sim::kNeverCycle;
    if (!polled_) {
      for (const std::uint64_t word : has_data_) {
        if (word != 0) return 0;
      }
      return sim::kNeverCycle;
    }
    const std::size_t at = PointerAt(now);
    // Scan from `at` to the end, then wrap around to the start word, whose
    // bits at or above `at` are known clear by then.
    const std::size_t words = has_data_.size();
    std::size_t w = at >> 6;
    std::uint64_t word = has_data_[w] & (~std::uint64_t{0} << (at & 63));
    for (std::size_t i = 0; i <= words; ++i) {
      if (word != 0) {
        const std::size_t k =
            w * 64 + static_cast<std::size_t>(std::countr_zero(word));
        return k >= at ? k - at : k + n - at;
      }
      if (++w == words) w = 0;
      word = has_data_[w];
    }
    return sim::kNeverCycle;
  }

  /// Number of cycles after `now + 1` before the pointer examines input
  /// `slot`; kNeverCycle while stalled (the pointer stays on the latched
  /// input until the stall ends), 0 before the first Select (see
  /// PollsUntilData). The O(1) answer to a push into `slot`.
  sim::Cycle PollsUntilInput(std::size_t slot, sim::Cycle now) const {
    if (!polled_) return 0;
    if (stalled_) return sim::kNeverCycle;
    const std::size_t at = PointerAt(now);
    return slot >= at ? slot - at : slot + inputs_.size() - at;
  }

  /// A push into input `slot` committed at `now`: mark it holding data and
  /// return the cycle the pointer examines it (kNeverCycle while stalled).
  /// The CK's answer to the push notification.
  sim::Cycle WakeForPush(std::size_t slot, sim::Cycle now) {
    MarkHasData(slot);
    const sim::Cycle polls = PollsUntilInput(slot, now);
    return polls == sim::kNeverCycle ? sim::kNeverCycle : now + 1 + polls;
  }

  /// Has-data mask: bit i is set while input i holds a packet. A push into
  /// input `slot` sets it (the CK's push notification); the CK's own pop
  /// clears it in Serviced once the input is empty; ResyncHasData rebuilds
  /// it from occupancy when a run starts.
  void MarkHasData(std::size_t slot) {
    has_data_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void ResyncHasData() {
    std::fill(has_data_.begin(), has_data_.end(), 0);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (inputs_[i]->occupancy() > 0) MarkHasData(i);
    }
  }

  /// Append all inputs to `out`, in slot order and empty slots included, so
  /// the engine's slot numbers are the arbiter's (for
  /// Component::DeclareFifos).
  void AppendInputs(std::vector<const sim::FifoBase*>& out) const {
    for (const PacketFifo* in : inputs_) out.push_back(in);
  }

  void Serviced(sim::Cycle now) {
    if (inputs_[index_]->occupancy() == 0) {
      has_data_[index_ >> 6] &= ~(std::uint64_t{1} << (index_ & 63));
    }
    if (obs_ != nullptr && burst_ == 0) obs_->OnBurstStart(now);
    if (++burst_ >= r_) {
      burst_ = 0;
      Advance();
    }
  }

  void Stalled(sim::Cycle now) {  // stay on the same connection
    stalled_ = true;
    if (obs_ != nullptr) obs_->OnStall(now);
  }

  int r() const { return r_; }

  /// Telemetry block of the owning CK; null unless collection is enabled.
  void set_counters(obs::CkCounters* counters) { obs_ = counters; }

 private:
  /// The one FIFO behind every empty slot: never pushed, popped or
  /// committed, so concurrent arbiters only ever read it.
  static PacketFifo& EmptySlot() {
    static PacketFifo slot("empty-slot", 1);
    return slot;
  }

  void Advance() { index_ = (index_ + 1) % inputs_.size(); }

  /// Replay `idle` cycles in which every input was empty: each such cycle
  /// clears the burst counter and advances the connection pointer by one.
  void FastForwardIdle(sim::Cycle idle) {
    burst_ = 0;
    index_ = (index_ + static_cast<std::size_t>(
                           idle % static_cast<sim::Cycle>(inputs_.size()))) %
             inputs_.size();
  }

  /// The input the pointer examines at cycle `now + 1` (the caller has
  /// polled at least once). The common case (polled this cycle) needs no
  /// modulo; a lag shorter than one rotation needs no division either.
  std::size_t PointerAt(sim::Cycle now) const {
    const std::size_t n = inputs_.size();
    std::size_t at = index_;
    if (!stalled_ && now > last_poll_) {
      const sim::Cycle lag = now - last_poll_;
      at += static_cast<std::size_t>(lag < n ? lag : lag % n);
      if (at >= n) at -= n;
    }
    return at;
  }

  int r_;
  std::size_t index_ = 0;
  int burst_ = 0;
  bool polled_ = false;
  bool stalled_ = false;  ///< the last Select's packet stalled (see Select)
  sim::Cycle last_poll_ = 0;
  std::vector<PacketFifo*> inputs_;
  std::vector<std::uint64_t> has_data_;
  obs::CkCounters* obs_ = nullptr;
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_ARBITER_H
