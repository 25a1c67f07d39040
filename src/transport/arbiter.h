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

  void AddInput(PacketFifo& fifo) { inputs_.push_back(&fifo); }
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
  /// Cycles since the previous Select are replayed as empty polls: cycles
  /// the event-driven engine skipped (see PollsUntilData) and cycles in
  /// which the CK stepped without polling (draining its fan-out or recovery
  /// queue). The connection pointer lands exactly where per-cycle stepping
  /// would have left it, so the R-polling cost model is bit-identical under
  /// every scheduler.
  PacketFifo* Select(sim::Cycle now) {
    if (inputs_.empty()) return nullptr;
    if (polled_ && now > last_poll_ + 1) {
      FastForwardIdle(now - last_poll_ - 1);
    }
    polled_ = true;
    last_poll_ = now;
    // One connection is examined per cycle, including the replayed idle
    // cycles; the watermark counts them all in bulk.
    if (obs_ != nullptr) obs_->CountPollsTo(now + 1);
    PacketFifo* in = inputs_[index_];
    if (in->CanPop(now)) {
      if (obs_ != nullptr) obs_->OnHit(now);
      return in;
    }
    burst_ = 0;
    Advance();
    return nullptr;
  }

  /// Replay `idle` cycles in which every input was empty: each such cycle
  /// clears the burst counter and advances the connection pointer by one.
  void FastForwardIdle(sim::Cycle idle) {
    if (inputs_.empty() || idle == 0) return;
    burst_ = 0;
    index_ = (index_ + static_cast<std::size_t>(
                           idle % static_cast<sim::Cycle>(inputs_.size()))) %
             inputs_.size();
  }

  /// Number of cycles after `now + 1` before the pointer examines an input
  /// that holds data (`occupancy() > 0`), or kNeverCycle if no input holds
  /// any. Called after cycle `now`'s Step: with no new push, a Select at
  /// any earlier cycle is an empty poll, i.e. exactly what Select replays.
  ///
  /// The pointer keeps moving between Selects: the next Select replays the
  /// cycles since `last_poll_`, so at cycle w > last_poll_ it examines
  /// `index_ + (w - last_poll_ - 1)`. Before the first Select there is no
  /// replay (the first Select examines `index_` whenever it comes), so an
  /// arbiter that never polled must step as soon as any input holds data.
  sim::Cycle PollsUntilData(sim::Cycle now) const {
    const std::size_t n = inputs_.size();
    if (n == 0) return sim::kNeverCycle;
    if (!polled_) {
      for (const PacketFifo* in : inputs_) {
        if (in->occupancy() > 0) return 0;
      }
      return sim::kNeverCycle;
    }
    // Pointer at cycle now + 1. The common case (polled this cycle) needs
    // no modulo; a lag shorter than one rotation needs no division either.
    std::size_t at = index_;
    if (now > last_poll_) {
      const sim::Cycle lag = now - last_poll_;
      at += static_cast<std::size_t>(lag < n ? lag : lag % n);
      if (at >= n) at -= n;
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (inputs_[at]->occupancy() > 0) return k;
      if (++at == n) at = 0;
    }
    return sim::kNeverCycle;
  }

  /// Append all inputs to `out` (for Component::DeclareInputFifos).
  void AppendInputs(std::vector<const sim::FifoBase*>& out) const {
    for (const PacketFifo* in : inputs_) out.push_back(in);
  }

  void Serviced(sim::Cycle now) {
    if (obs_ != nullptr && burst_ == 0) obs_->OnBurstStart(now);
    if (++burst_ >= r_) {
      burst_ = 0;
      Advance();
    }
  }

  void Stalled(sim::Cycle now) {  // stay on the same connection
    if (obs_ != nullptr) obs_->OnStall(now);
  }

  int r() const { return r_; }

  /// Telemetry block of the owning CK; null unless collection is enabled.
  void set_counters(obs::CkCounters* counters) { obs_ = counters; }

 private:
  void Advance() { index_ = (index_ + 1) % inputs_.size(); }

  int r_;
  std::size_t index_ = 0;
  int burst_ = 0;
  bool polled_ = false;
  sim::Cycle last_poll_ = 0;
  std::vector<PacketFifo*> inputs_;
  obs::CkCounters* obs_ = nullptr;
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_ARBITER_H
