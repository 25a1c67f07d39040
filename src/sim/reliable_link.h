#ifndef SMI_SIM_RELIABLE_LINK_H
#define SMI_SIM_RELIABLE_LINK_H

/// \file reliable_link.h
/// Serial link with an explicit link-level reliability protocol, for fabrics
/// whose transceivers do *not* hide error handling in the BSP shell (the
/// lossless `FlowLink` models the paper's Nallatech boards, where they do).
///
/// Protocol: go-back-N.
///  * Every frame carries a sequence number and an FNV-1a checksum computed
///    over the payload's wire image before it enters the (lossy) medium.
///  * The sender keeps up to `window` unacknowledged frames; the window
///    replaces the lossless link's credit window as the flow-control bound.
///  * The receiver accepts exactly the next expected sequence number into a
///    window-deep receive buffer and answers every arriving frame with a
///    cumulative acknowledgement (the next expected sequence number) on a
///    reverse channel with the same wire latency. Corrupted frames (the
///    checksum is computed over the original image, so any wire corruption
///    is detected) and out-of-sequence frames are discarded and re-acked.
///    When the receive buffer is full the receiver withholds the ack —
///    back-pressure degrades into retransmissions if it persists beyond the
///    timeout, like a real lossy link without end-to-end flow control.
///  * A retransmission timer covers the oldest unacknowledged frame; on
///    expiry the sender replays the whole window (one frame per cycle) and
///    backs the timeout off exponentially up to `backoff_cap` doublings.
///    `retry_budget` consecutive fruitless timeout rounds declare the link
///    permanently dead: the sender half freezes and reports the death to the
///    `LinkDeathSink` (the transport fabric), which later quiesces the link
///    and recovers the undelivered payloads (`TakeUndelivered`) for
///    re-injection over surviving routes. The receiver half keeps delivering
///    frames already in flight until that failover — required for scheduler
///    bit-identity, since under the parallel scheduler the receiver cannot
///    learn of the death before the next epoch barrier anyway.
///
/// Layering: the protocol is framing over the serial-link core
/// (sim/serial_link.h). The forward and acknowledgement channels are two
/// `Wire`s; the delivered and protocol counters (`stats()`) and their
/// parallel-overshoot journals come from `SerialLink`, split or not. A
/// death at or after the trim cycle is undone through `dead_cycle_`.
///
/// Determinism: fault decisions are pure functions of (seed, cycle, channel)
/// — see link_fault.h — and both directions of the wire are latency-delayed,
/// so a split epoch no longer than the latency cannot observe anything the
/// fused link would not; `ExchangeAtBarrier` therefore returns the full
/// latency as slack. Unlike the lossless link there is no instantaneous
/// credit channel and hence no barrier-time delivery prediction.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/fifo.h"
#include "sim/link_fault.h"
#include "sim/serial_link.h"

namespace smi::sim {

struct ReliableLinkConfig {
  Cycle latency = 105;            ///< pipeline depth, cycles (per direction)
  std::size_t window = 0;         ///< go-back-N window; 0 = 2 * (latency + 1)
  Cycle rto = 0;                  ///< base retransmission timeout; 0 = 4 * (latency + 1)
  int backoff_cap = 6;            ///< max exponential backoff doublings
  std::uint64_t retry_budget = 0; ///< fruitless timeout rounds before death; 0 = never
};

template <typename T>
class ReliableLink final : public SerialLink<T> {
  using SerialLink<T>::tx_;
  using SerialLink<T>::rx_;
  using SerialLink<T>::latency_;
  using SerialLink<T>::stats_;

 public:
  ReliableLink(std::string name, Fifo<T>& tx, Fifo<T>& rx,
               ReliableLinkConfig config)
      : SerialLink<T>(std::move(name), tx, rx,
                      std::max<Cycle>(config.latency, 1)),
        window_(config.window != 0
                    ? config.window
                    : 2 * (static_cast<std::size_t>(latency_) + 1)),
        rto_(config.rto != 0 ? config.rto : 4 * (latency_ + 1)),
        backoff_cap_(std::clamp(config.backoff_cap, 0, 32)),
        retry_budget_(config.retry_budget) {}

  void set_fault_hook(LinkFaultHook* hook) { hook_ = hook; }
  void set_death_sink(LinkDeathSink* sink, std::size_t link_id) {
    sink_ = sink;
    link_id_ = link_id;
  }

  void Step(Cycle now) override {
    StepRx(now);
    StepTx(now);
  }

  Cycle NextSelfWake(Cycle now) const override {
    return std::min(NextTxSelfWake(now), NextRxSelfWake(now));
  }

  bool dead() const { return dead_ || fully_dead_; }
  Cycle dead_cycle() const { return dead_cycle_; }

  /// Failover support (called by the fabric from a global event, never from
  /// a Step): the payloads not yet delivered to the RX FIFO, in stream order
  /// — receiver-buffered frames first, then unacknowledged window frames
  /// from the receiver's next expected sequence on. Frames below the
  /// expected sequence were already received and would be duplicates.
  std::vector<T> TakeUndelivered() {
    std::vector<T> out;
    out.reserve(rx_pending_.size() + send_window_.size());
    for (std::size_t i = 0; i < rx_pending_.size(); ++i) {
      out.push_back(std::move(rx_pending_[i]));
    }
    rx_pending_.clear();
    for (std::size_t i = 0; i < send_window_.size(); ++i) {
      Frame& f = send_window_[i];
      if (f.seq >= expected_seq_) out.push_back(std::move(f.payload));
    }
    send_window_.clear();
    stats_.recovered += out.size();
    return out;
  }

  /// Final shutdown at failover: drop everything in flight and freeze both
  /// halves. Call after TakeUndelivered.
  void Quiesce() {
    fwd_wire_.Clear();
    ack_wire_.Clear();
    send_window_.clear();
    rx_pending_.clear();
    fully_dead_ = true;
  }

  // --- CutLink implementation (parallel scheduler; see component.h) ------

  void BeginSplit() override {
    fwd_wire_.BeginSplit();
    ack_wire_.BeginSplit();
  }
  void EndSplit() override {
    fwd_wire_.EndSplit();
    ack_wire_.EndSplit();
  }

  Cycle ExchangeAtBarrier(Cycle /*epoch_start*/) override {
    fwd_wire_.Merge();
    ack_wire_.Merge();
    this->ClearJournals();
    // Both directions are latency-delayed and there is no instantaneous
    // credit channel, so any epoch no longer than the latency is exact.
    return latency_;
  }

  void TrimDeliveriesAtOrAfter(Cycle cycle) override {
    SerialLink<T>::TrimDeliveriesAtOrAfter(cycle);
    if (dead_cycle_ >= cycle) {
      dead_ = false;
      dead_cycle_ = kNeverCycle;
    }
  }

  Cycle NextRxSelfWake(Cycle now) const override {
    if (fully_dead_) return kNeverCycle;
    // A buffered payload with RX FIFO space drains on the next cycle even
    // when the wire is empty (the link's own transfers wake nothing); with
    // the FIFO full, the consumer's pop is the wake. The remaining timed
    // events are the wire head maturing and the frame-per-cycle drain of a
    // matured backlog.
    if (!rx_pending_.empty() && rx_->occupancy() < rx_->capacity()) {
      return now + 1;
    }
    if (fwd_wire_.empty()) return kNeverCycle;
    if (fwd_wire_.FrontReady() > now) return fwd_wire_.FrontReady();
    // Matured head left unconsumed: if it is acceptable but the receive
    // buffer is full, only RX FIFO activity can unblock it; if it is
    // garbage (bad checksum or out of sequence) it will be discarded on the
    // next step regardless of buffer space.
    if (rx_pending_.size() < window_) return now + 1;
    const Frame& head = fwd_wire_.Front();
    const bool discardable =
        WireChecksum(head.payload) != head.checksum || head.seq != expected_seq_;
    return discardable ? now + 1 : kNeverCycle;
  }

  Cycle NextTxSelfWake(Cycle now) const override {
    if (dead_ || fully_dead_) return kNeverCycle;
    Cycle wake = kNeverCycle;
    if (!ack_wire_.empty()) {
      wake = std::min(wake, std::max(ack_wire_.FrontReady(), now + 1));
    }
    const bool replay = retx_next_seq_ < retx_end_seq_;
    if (replay) {
      wake = std::min(wake, now + 1);
    } else if (!send_window_.empty()) {
      wake = std::min(wake, std::max(rto_deadline_, now + 1));
    }
    if ((!replay && send_window_.size() < window_ && tx_->occupancy() > 0) ||
        this->TxNeedsStep()) {
      wake = std::min(wake, now + 1);
    }
    return wake;
  }

  /// Receiver half; the fused Step runs it before the sender half.
  void StepRx(Cycle now) override {
    if (fully_dead_) return;
    // Deliver the head of the receive buffer into the RX FIFO.
    if (!rx_pending_.empty() && rx_->CanPush(now)) {
      rx_->Push(rx_pending_.front(), now);
      rx_pending_.pop_front();
      this->CountDelivered(now);
    }
    // Examine at most one matured wire frame per cycle.
    if (!fwd_wire_.HeadMatured(now)) return;
    const Frame& f = fwd_wire_.Front();
    if (WireChecksum(f.payload) != f.checksum) {
      this->CountRx(stats_.checksum_failures, now);
      (void)fwd_wire_.Pop();
      SendAck(now);
    } else if (f.seq != expected_seq_) {
      this->CountRx(stats_.seq_discards, now);
      (void)fwd_wire_.Pop();
      SendAck(now);
    } else if (rx_pending_.size() < window_) {
      rx_pending_.push_back(fwd_wire_.Pop().payload);
      ++expected_seq_;
      SendAck(now);
    }
    // else: receive buffer full — hold the frame unacknowledged; the ack
    // starvation back-pressures the sender (at worst via retransmission).
  }

  /// Sender half; a dead sender stays frozen.
  void StepTx(Cycle now) override {
    if (dead_ || fully_dead_) return;
    // Consume at most one matured cumulative acknowledgement per cycle.
    if (ack_wire_.HeadMatured(now)) {
      const std::uint64_t a = ack_wire_.Pop();
      if (a > base_seq_) {
        while (base_seq_ < a && !send_window_.empty()) {
          send_window_.pop_front();
          ++base_seq_;
        }
        rounds_ = 0;
        backoff_ = 0;
        rto_deadline_ =
            send_window_.empty() ? kNeverCycle : now + rto_;
        if (retx_next_seq_ < base_seq_) retx_next_seq_ = base_seq_;
      }
    }
    // One wire entry per cycle: retransmission replay takes priority over
    // the timeout check, which takes priority over accepting new frames.
    const bool has_data = tx_->CanPop(now);
    bool accept = false;
    if (retx_next_seq_ < retx_end_seq_) {
      SendFrame(send_window_[static_cast<std::size_t>(retx_next_seq_ -
                                                      base_seq_)],
                now, /*retransmit=*/true);
      ++retx_next_seq_;
    } else if (!send_window_.empty() && now >= rto_deadline_) {
      this->CountTx(stats_.timeouts, now);
      ++rounds_;
      if (retry_budget_ != 0 && rounds_ > retry_budget_) {
        Die(now);
        return;
      }
      const Cycle scale = Cycle{1} << std::min(backoff_, backoff_cap_);
      rto_deadline_ = now + rto_ * scale;
      ++backoff_;
      retx_next_seq_ = base_seq_;
      retx_end_seq_ = next_seq_;
      SendFrame(send_window_.front(), now, /*retransmit=*/true);
      ++retx_next_seq_;
    } else {
      accept = has_data && send_window_.size() < window_;
      if (accept) {
        Frame f;
        f.payload = tx_->Pop(now);
        f.seq = next_seq_++;
        f.checksum = WireChecksum(f.payload);
        if (send_window_.empty()) rto_deadline_ = now + rto_;
        send_window_.push_back(f);
        SendFrame(send_window_.back(), now, /*retransmit=*/false);
      }
    }
    this->CountTxCycle(now, has_data && !accept);
  }

 private:
  struct Frame {
    T payload;
    std::uint64_t seq = 0;
    std::uint32_t checksum = 0;
  };

  void SendFrame(const Frame& f, Cycle now, bool retransmit) {
    this->CountTx(stats_.frames_sent, now);
    if (retransmit) this->CountTx(stats_.retransmits, now);
    auto action = LinkFaultHook::Action::kNone;
    if (hook_ != nullptr) {
      action = hook_->OnWireEntry(now, LinkFaultHook::kForwardChannel);
    }
    if (action == LinkFaultHook::Action::kDrop) {
      this->CountTx(stats_.wire_drops, now);
      return;
    }
    Frame wire = f;
    if (action == LinkFaultHook::Action::kCorrupt) {
      CorruptInPlace(wire.payload, hook_->CorruptionPattern(now));
      this->CountTx(stats_.wire_corruptions, now);
    }
    fwd_wire_.Send(std::move(wire), now + latency_);
  }

  void SendAck(Cycle now) {
    this->CountRx(stats_.acks_sent, now);
    auto action = LinkFaultHook::Action::kNone;
    if (hook_ != nullptr) {
      action = hook_->OnWireEntry(now, LinkFaultHook::kAckChannel);
    }
    if (action != LinkFaultHook::Action::kNone) {
      // A corrupted ack fails the sender's validity check; same as a drop.
      this->CountRx(stats_.acks_dropped, now);
      return;
    }
    ack_wire_.Send(expected_seq_, now + latency_);
  }

  void Die(Cycle now) {
    dead_ = true;
    dead_cycle_ = now;
    if (sink_ != nullptr) sink_->OnLinkDead(link_id_, now);
  }

  std::size_t window_;
  Cycle rto_;
  int backoff_cap_;
  std::uint64_t retry_budget_;

  LinkFaultHook* hook_ = nullptr;
  LinkDeathSink* sink_ = nullptr;
  std::size_t link_id_ = 0;

  // Sender half.
  Ring<Frame> send_window_;        ///< unacknowledged frames, base first
  std::uint64_t next_seq_ = 0;     ///< next fresh sequence number
  std::uint64_t base_seq_ = 0;     ///< oldest unacknowledged sequence
  Wire<std::uint64_t> ack_wire_;   ///< reverse channel: cumulative acks
  Cycle rto_deadline_ = kNeverCycle;
  int backoff_ = 0;
  std::uint64_t rounds_ = 0;            ///< consecutive fruitless timeouts
  std::uint64_t retx_next_seq_ = 0;     ///< replay cursor
  std::uint64_t retx_end_seq_ = 0;      ///< replay end (exclusive)
  bool dead_ = false;
  Cycle dead_cycle_ = kNeverCycle;

  // Receiver half.
  Wire<Frame> fwd_wire_;           ///< forward channel
  Ring<T> rx_pending_;             ///< accepted frames awaiting RX FIFO space
  std::uint64_t expected_seq_ = 0;

  bool fully_dead_ = false;  ///< quiesced by failover; both halves frozen
};

}  // namespace smi::sim

#endif  // SMI_SIM_RELIABLE_LINK_H
