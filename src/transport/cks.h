#ifndef SMI_TRANSPORT_CKS_H
#define SMI_TRANSPORT_CKS_H

/// \file cks.h
/// CKS — the send communication kernel (§4.2–4.3).
///
/// One CKS manages one network interface of the rank. Its inputs are the
/// FIFOs of the application send endpoints assigned to it, the paired CKR
/// (packets transiting this rank toward another), and the other local CKS
/// modules. Each accepted packet is forwarded according to the routing
/// table, indexed by destination rank:
///   * destination == local rank  -> the paired CKR (local delivery);
///   * route's out-port == own port -> the network interface;
///   * otherwise -> the CKS that owns the route's out-port.
/// The table is uploaded at runtime and can be replaced without rebuilding
/// the fabric.
///
/// ## In-network handlers
///
/// When a handler table is uploaded (see transport/handler.h), the CKS runs
/// the filter and reduce-in-transit handlers on its forwarding path. The
/// combine buffer holds up to kCombineSlots data packets at the network
/// egress; a packet matching a buffered one (same destination, port and
/// envelope base) is folded into it instead of forwarded, and a buffered
/// packet leaves when its hold window expires or its contribution count
/// completes. With no table uploaded every handler check is a single empty()
/// test and the datapath is cycle-identical to the handler-free build.

#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/component.h"
#include "transport/arbiter.h"
#include "transport/handler.h"

namespace smi::transport {

class Cks final : public sim::Component {
 public:
  /// Combine-buffer depth: concurrent (destination, base) flows a hop can
  /// hold for merging. Matches the handful of packet-wide registers a
  /// hardware combine stage would synthesize.
  static constexpr int kCombineSlots = 8;

  Cks(std::string name, int local_rank, int port_index, int poll_r)
      : Component(std::move(name)),
        local_rank_(local_rank),
        port_index_(port_index),
        arbiter_(poll_r) {}

  /// --- fabric wiring (called once at construction time) ---
  /// `from_crossbar` marks inputs fed by a sibling CKS of the same rank:
  /// packets arriving there already ran the rank's filter handler at the
  /// CKS where they entered the rank, so the filter must not fire again.
  void AddInput(PacketFifo& fifo, bool from_crossbar = false) {
    arbiter_.AddInput(fifo);
    if (from_crossbar) xbar_inputs_.push_back(&fifo);
  }
  void SetNetworkOutput(PacketFifo& fifo) { to_net_ = &fifo; }
  void SetPairedCkrOutput(PacketFifo& fifo) { to_ckr_ = &fifo; }
  /// Output toward the local CKS owning network port `q`.
  void SetCksOutput(int q, PacketFifo& fifo) {
    if (to_cks_.size() <= static_cast<std::size_t>(q)) {
      to_cks_.resize(static_cast<std::size_t>(q) + 1, nullptr);
    }
    to_cks_[static_cast<std::size_t>(q)] = &fifo;
  }

  /// --- runtime routing upload ---
  /// `next_port[d]` = network port this rank uses toward rank d (may be -1
  /// for d == local rank). A CKS sleeping on a stalled packet must be
  /// stepped after a mid-run upload, which may reroute that packet (the
  /// fabric wakes every CKS at a failover).
  void UploadRoutes(std::vector<int> next_port) {
    next_port_ = std::move(next_port);
  }

  /// Install the rank's in-network handler table (validated by the fabric).
  /// Resets the per-entry filter phase; the combine buffer must be empty
  /// (tables are uploaded before traffic flows).
  void UploadHandlers(HandlerTable table) {
    handlers_ = std::move(table);
    filter_seen_.assign(handlers_.size(), 0);
  }

  /// Re-queue packets stranded by a link failover (see transport/fabric.h).
  /// They take strict priority over arbitered input — one per cycle, routed
  /// with the *current* table — which preserves the original stream order of
  /// the recovered in-flight window before any new traffic interleaves.
  /// Recovered packets bypass the in-network handlers: a packet may already
  /// carry merged contributions, and forwarding it unmodified is always
  /// protocol-correct, so nothing can be combined twice across a failover.
  void InjectRecovered(std::vector<net::Packet> packets) {
    recovery_.insert(recovery_.end(),
                     std::make_move_iterator(packets.begin()),
                     std::make_move_iterator(packets.end()));
  }
  std::size_t recovery_pending() const { return recovery_.size(); }

  void Step(sim::Cycle now) override;

  /// Registers a CkCounters block (forwarded-by-op, polls/hits/bursts/
  /// stalls, handler activity) and shares it with the arbiter.
  void AttachObservability(obs::Recorder& recorder) override;

  /// Event-driven wake contract: the arbiter inputs are the inputs, the
  /// network, paired-CKR and crossbar FIFOs the outputs. A CK is due when
  /// the polling pointer reaches an input holding data, when a held
  /// combine-buffer packet's hold window expires, and every cycle while
  /// recovered packets wait. A CK whose latched packet stalled on a full
  /// output sleeps until that output has room (see stall_out_).
  void DeclareFifos(sim::FifoRoles& roles) override;
  sim::Cycle InputPushed(std::size_t slot, sim::Cycle now) override {
    return arbiter_.WakeForPush(slot, now);
  }
  sim::Cycle OutputPopped(std::size_t /*slot*/, sim::Cycle now) override {
    return stall_out_ != nullptr ? NextSelfWake(now) : sim::kNeverCycle;
  }
  sim::Cycle NextSelfWake(sim::Cycle now) const override {
    if (!recovery_.empty()) return now + 1;
    if (stall_out_ != nullptr) {
      return stall_out_->occupancy() < stall_out_->capacity()
                 ? now + 1
                 : sim::kNeverCycle;
    }
    const sim::Cycle polls = arbiter_.PollsUntilData(now);
    sim::Cycle wake = polls == sim::kNeverCycle ? sim::kNeverCycle
                                                : now + 1 + polls;
    if (combine_held_ == 0 || wake == now + 1) return wake;
    for (const CombineSlot& slot : combine_) {
      if (!slot.busy) continue;
      const sim::Cycle due =
          slot.deadline > now ? slot.deadline : now + 1;
      if (due < wake) wake = due;
    }
    return wake;
  }

  std::uint64_t forwarded() const { return forwarded_; }
  /// Handler side channels: packets merged away by reduce-in-transit,
  /// packets dropped / passed by the filter handler.
  std::uint64_t handler_combined() const { return handler_combined_; }
  std::uint64_t filter_dropped() const { return filter_dropped_; }
  std::uint64_t filter_passed() const { return filter_passed_; }
  /// Packets currently held in the combine buffer.
  std::size_t combine_held() const { return combine_held_; }
  int port_index() const { return port_index_; }
  /// Whether this CKS's network interface is cabled (used to validate
  /// uploaded routing tables against the actual wiring).
  bool has_network_output() const { return to_net_ != nullptr; }

 private:
  struct CombineSlot {
    bool busy = false;
    net::Packet pkt;
    sim::Cycle deadline = 0;  ///< forward at this cycle if still unmerged
  };

  PacketFifo* Route(const net::Packet& pkt) const;
  /// Forward one expired combine-buffer packet. Returns true when the
  /// cycle's push budget is spent (a flush happened or is blocked on a full
  /// output), so the arbitered path must not push this cycle.
  bool FlushExpired(sim::Cycle now);

  int local_rank_;
  int port_index_;
  PollingArbiter arbiter_;
  PacketFifo* to_net_ = nullptr;
  PacketFifo* to_ckr_ = nullptr;
  std::vector<PacketFifo*> to_cks_;
  std::vector<const PacketFifo*> xbar_inputs_;  ///< see AddInput
  std::vector<int> next_port_;
  std::deque<net::Packet> recovery_;  ///< failover re-queue (see above)
  HandlerTable handlers_;
  CombineSlot combine_[kCombineSlots];
  std::size_t combine_held_ = 0;  ///< busy slots in combine_
  /// The full output the latched packet stalled on in the last Step, while
  /// nothing but that output's room can change the retry's outcome (no
  /// combine-buffer packet held, no flush pending); null otherwise. Until
  /// then every retry is a stall the arbiter can replay, so the CK sleeps.
  PacketFifo* stall_out_ = nullptr;
  std::vector<std::uint64_t> filter_seen_;  ///< per-entry match phase
  std::uint64_t forwarded_ = 0;
  std::uint64_t handler_combined_ = 0;
  std::uint64_t filter_dropped_ = 0;
  std::uint64_t filter_passed_ = 0;
  obs::CkCounters* obs_ = nullptr;
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_CKS_H
