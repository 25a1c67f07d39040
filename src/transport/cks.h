#ifndef SMI_TRANSPORT_CKS_H
#define SMI_TRANSPORT_CKS_H

/// \file cks.h
/// CKS — the send communication kernel (§4.2–4.3), a `Ck` (transport/ck.h).
///
/// One CKS manages one network interface of the rank. Its inputs are the
/// FIFOs of the application send endpoints assigned to it, the paired CKR
/// (packets transiting this rank toward another), and the other local CKS
/// modules. Each accepted packet is forwarded according to the routing
/// table, indexed by destination rank:
///   * destination == local rank  -> the paired CKR (local delivery);
///   * route's out-port == own port -> the network interface;
///   * otherwise -> the CKS that owns the route's out-port.
/// The table is the fabric's one `net::RoutingTable`: the CKS reads its
/// rank's row there, so an upload at runtime reroutes every CKS at once
/// without rebuilding the fabric. A CKS sleeping on a stalled packet must be
/// stepped after a mid-run upload, which may reroute that packet (the fabric
/// wakes every CKS at a failover).
///
/// ## Recovery queue
///
/// Packets stranded by a link failover (see transport/fabric.h) are queued
/// here and take strict priority over arbitered input — one per cycle,
/// routed with the *current* table — which preserves the original stream
/// order of the recovered in-flight window before any new traffic
/// interleaves. A recovered packet waiting on a full output blocks
/// arbitration. Recovered packets bypass the in-network handlers: a packet
/// may already carry merged contributions, and forwarding it unmodified is
/// always protocol-correct, so nothing can be combined twice.
///
/// ## In-network handlers
///
/// When its rank's handler table (see transport/handler.h), which the fabric
/// keeps once per rank and shares with the rank's CKSes and CKRs, holds
/// entries, the CKS runs the filter and reduce-in-transit handlers on its
/// forwarding path; of the table's state it keeps only its own filter phase.
/// The combine buffer holds up to kCombineSlots data packets at the network
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
#include "net/routing.h"
#include "transport/ck.h"
#include "transport/handler.h"

namespace smi::transport {

class Cks final : public Ck<Cks> {
 public:
  /// Combine-buffer depth: concurrent (destination, base) flows a hop can
  /// hold for merging. Matches the handful of packet-wide registers a
  /// hardware combine stage would synthesize.
  static constexpr int kCombineSlots = 8;

  /// `routes` and `handlers` are the fabric's routing table and this rank's
  /// handler table; both outlive the CKS and change only by upload.
  Cks(std::string name, int local_rank, int port_index, int ports_per_rank,
      int poll_r, const net::RoutingTable& routes,
      const HandlerTable& handlers)
      : Ck(std::move(name), local_rank, port_index, ports_per_rank, poll_r),
        routes_(&routes),
        handlers_(&handlers) {}

  /// `from_crossbar` marks inputs fed by a sibling CKS of the same rank:
  /// packets arriving there already ran the rank's filter handler at the
  /// CKS where they entered the rank, so the filter must not fire again.
  void AddInput(PacketFifo& fifo, bool from_crossbar = false) {
    Ck::AddInput(fifo);
    if (from_crossbar) xbar_inputs_.push_back(&fifo);
  }
  void SetNetworkOutput(PacketFifo& fifo) { to_net_ = &fifo; }

  /// Reset the per-entry filter phase after the fabric uploaded a new
  /// handler table; the combine buffer must be empty (tables are uploaded
  /// before traffic flows).
  void ResetFilterPhase() { filter_seen_.assign(handlers_->size(), 0); }

  /// Queue packets stranded by a link failover (see the file comment).
  void InjectRecovered(std::vector<net::Packet> packets) {
    recovery_.insert(recovery_.end(),
                     std::make_move_iterator(packets.begin()),
                     std::make_move_iterator(packets.end()));
  }

 private:
  friend class Ck<Cks>;

  struct CombineSlot {
    bool busy = false;
    net::Packet pkt;
    sim::Cycle deadline = 0;  ///< forward at this cycle if still unmerged
  };

  // Ck hooks (see transport/ck.h).
  PacketFifo* Route(const net::Packet& pkt) const;
  bool DrainQueue(sim::Cycle now) {
    if (recovery_.empty()) return false;
    DrainRecovery(now);
    return true;
  }
  bool QueuePending() const { return !recovery_.empty(); }
  /// Forward one expired combine-buffer packet (one per cycle).
  bool FlushHeld(sim::Cycle now);
  bool Holding() const { return combine_held_ != 0; }
  sim::Cycle HeldWake(sim::Cycle wake, sim::Cycle now) const;
  bool Intercept(PacketFifo& in, bool pushed, sim::Cycle now) {
    pending_filter_ = filter_seen_.size();
    return !handlers_->empty() && RunHandlers(in, pushed, now);
  }
  void Forwarded(const net::Packet&, const PacketFifo*) { ConsumeFilter(); }
  void AppendOutputs(std::vector<const sim::FifoBase*>& out) const {
    if (to_net_ != nullptr) out.push_back(to_net_);
  }

  /// Forward the head of the recovery queue; a full output blocks it.
  void DrainRecovery(sim::Cycle now);
  /// The handler stage: filter drops and combine-buffer merges and holds.
  bool RunHandlers(PacketFifo& in, bool pushed, sim::Cycle now);
  /// Charge the filter pass of the consumed packet (see RunHandlers).
  void ConsumeFilter() {
    if (pending_filter_ < filter_seen_.size()) ++filter_seen_[pending_filter_];
  }

  PacketFifo* to_net_ = nullptr;
  std::vector<const PacketFifo*> xbar_inputs_;  ///< see AddInput
  const net::RoutingTable* routes_;   ///< the fabric's table
  const HandlerTable* handlers_;      ///< the rank's table
  std::deque<net::Packet> recovery_;  ///< see the file comment
  CombineSlot combine_[kCombineSlots];
  std::size_t combine_held_ = 0;  ///< busy slots in combine_
  std::vector<std::uint64_t> filter_seen_;  ///< per-entry match phase
  /// The filter entry the selected packet passed, charged only once the
  /// packet is consumed (a stalled packet is selected again next cycle and
  /// must not advance the pass-every phase twice); filter_seen_.size() when
  /// none.
  std::size_t pending_filter_ = 0;
};

extern template class Ck<Cks>;

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_CKS_H
