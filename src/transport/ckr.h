#ifndef SMI_TRANSPORT_CKR_H
#define SMI_TRANSPORT_CKR_H

/// \file ckr.h
/// CKR — the receive communication kernel (§4.2–4.3).
///
/// One CKR manages one network interface of the rank. Its inputs are the
/// network port, the paired CKS (local deliveries from applications on this
/// rank), and the other local CKR modules. Routing:
///   * destination != local rank -> the paired CKS (this rank is an
///     intermediate hop);
///   * destination == local rank -> by the packet's port: either to the
///     application endpoint connected to this CKR, or to the CKR that owns
///     the destination port.
///
/// ## In-network fan-out
///
/// When the rank's handler table (transport/handler.h) holds a fan-out entry
/// matching a locally delivered packet's (port, op), the CKR also replicates
/// the packet toward the entry's children: one copy per cycle, re-addressed
/// per child and re-injected through the paired CKS for routing. A tree of
/// fan entries multicasts one source packet with log-depth latency instead
/// of the source serializing per destination. Note: CKR has no failover
/// re-queue — recovered packets are re-injected on the CKS side only
/// (`Cks::InjectRecovered`), so there is no copy-push pattern to fix here.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/component.h"
#include "transport/arbiter.h"
#include "transport/handler.h"

namespace smi::transport {

class Ckr final : public sim::Component {
 public:
  Ckr(std::string name, int local_rank, int port_index, int poll_r)
      : Component(std::move(name)),
        local_rank_(local_rank),
        port_index_(port_index),
        arbiter_(poll_r) {}

  /// --- fabric wiring ---
  void AddInput(PacketFifo& fifo) { arbiter_.AddInput(fifo); }
  void SetPairedCksOutput(PacketFifo& fifo) { to_cks_ = &fifo; }
  void SetCkrOutput(int q, PacketFifo& fifo) {
    if (to_ckr_.size() <= static_cast<std::size_t>(q)) {
      to_ckr_.resize(static_cast<std::size_t>(q) + 1, nullptr);
    }
    to_ckr_[static_cast<std::size_t>(q)] = &fifo;
  }
  /// Application endpoint for `app_port`, connected directly to this CKR.
  void AttachEndpoint(int app_port, PacketFifo& fifo) {
    endpoints_[app_port] = &fifo;
  }
  /// Declare that `app_port` is owned by the CKR at network port `q`.
  void SetPortOwner(int app_port, int owner_ckr) {
    port_owner_[app_port] = owner_ckr;
  }

  /// Install the rank's in-network handler table (validated by the fabric).
  void UploadHandlers(HandlerTable table) { handlers_ = std::move(table); }

  void Step(sim::Cycle now) override;

  /// Registers a CkCounters block (forwarded-by-op, polls/hits/bursts/
  /// stalls, handler activity) and shares it with the arbiter.
  void AttachObservability(obs::Recorder& recorder) override;

  /// Event-driven wake contract: as for Cks, except that the queue keeping
  /// it due every cycle is the fan-out queue (a CKR has no recovery queue).
  /// Its outputs are the paired-CKS, crossbar and endpoint FIFOs.
  void DeclareFifos(sim::FifoRoles& roles) override;
  sim::Cycle InputPushed(std::size_t slot, sim::Cycle now) override {
    return arbiter_.WakeForPush(slot, now);
  }
  sim::Cycle OutputPopped(std::size_t /*slot*/, sim::Cycle now) override {
    return stall_out_ != nullptr ? NextSelfWake(now) : sim::kNeverCycle;
  }
  sim::Cycle NextSelfWake(sim::Cycle now) const override {
    if (!fan_queue_.empty()) return now + 1;
    if (stall_out_ != nullptr) {
      return stall_out_->occupancy() < stall_out_->capacity()
                 ? now + 1
                 : sim::kNeverCycle;
    }
    const sim::Cycle polls = arbiter_.PollsUntilData(now);
    return polls == sim::kNeverCycle ? sim::kNeverCycle : now + 1 + polls;
  }

  std::uint64_t forwarded() const { return forwarded_; }
  /// Fan-out copies injected so far (handler side channel).
  std::uint64_t handler_splits() const { return handler_splits_; }
  std::size_t fan_pending() const { return fan_queue_.size(); }

 private:
  PacketFifo* Route(const net::Packet& pkt) const;

  int local_rank_;
  int port_index_;
  PollingArbiter arbiter_;
  PacketFifo* to_cks_ = nullptr;
  std::vector<PacketFifo*> to_ckr_;
  std::map<int, PacketFifo*> endpoints_;
  std::map<int, int> port_owner_;
  HandlerTable handlers_;
  /// The full output the latched packet stalled on in the last Step (see
  /// Cks::stall_out_); a CKR's routes and fan-out never change a retry.
  PacketFifo* stall_out_ = nullptr;
  std::deque<net::Packet> fan_queue_;  ///< replicated copies awaiting injection
  std::uint64_t forwarded_ = 0;
  std::uint64_t handler_splits_ = 0;
  obs::CkCounters* obs_ = nullptr;
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_CKR_H
