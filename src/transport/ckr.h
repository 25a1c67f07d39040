#ifndef SMI_TRANSPORT_CKR_H
#define SMI_TRANSPORT_CKR_H

/// \file ckr.h
/// CKR — the receive communication kernel (§4.2–4.3), a `Ck`
/// (transport/ck.h).
///
/// One CKR manages one network interface of the rank. Its inputs are the
/// network port, the paired CKS (local deliveries from applications on this
/// rank), and the other local CKR modules. Routing:
///   * destination != local rank -> the paired CKS (this rank is an
///     intermediate hop);
///   * destination == local rank -> by the packet's port p, which the
///     rank's endpoint table assigns to CKR p mod P: either to the
///     application endpoint if that is this CKR, or across the CKR crossbar
///     to the CKR that owns it.
///
/// The rank's endpoint and handler tables are the fabric's: one of each per
/// rank, shared by its CKs, so a CKR keeps no copy.
///
/// ## In-network fan-out
///
/// When the rank's handler table (transport/handler.h) holds a fan-out entry
/// matching a locally delivered packet's (port, op), the CKR also replicates
/// the packet toward the entry's children: one copy per cycle, re-addressed
/// per child and re-injected through the paired CKS for routing. A tree of
/// fan entries multicasts one source packet with log-depth latency instead
/// of the source serializing per destination. The fan-out queue drains
/// ahead of arbitration but, unlike the CKS recovery queue, never blocks
/// it (see DrainFanOut).

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/packet.h"
#include "transport/ck.h"
#include "transport/handler.h"

namespace smi::transport {

/// One application port of a rank: the FIFO the application pushes into
/// (an input of CKS p mod P) and the FIFO it pops from (an output of CKR
/// p mod P); null where the port is not declared in that direction.
struct Endpoint {
  PacketFifo* send = nullptr;
  PacketFifo* recv = nullptr;
};
/// A rank's endpoints indexed by app port, sized to its largest declared
/// port + 1; shared by the fabric and the rank's CKRs.
using EndpointTable = std::vector<Endpoint>;

class Ckr final : public Ck<Ckr> {
 public:
  Ckr(std::string name, int local_rank, int port_index, int ports_per_rank,
      int poll_r, const EndpointTable& endpoints,
      const HandlerTable& handlers)
      : Ck(std::move(name), local_rank, port_index, ports_per_rank, poll_r),
        endpoints_(&endpoints),
        handlers_(&handlers) {}

 private:
  friend class Ck<Ckr>;

  // Ck hooks (see transport/ck.h).
  PacketFifo* Route(const net::Packet& pkt) const;
  bool DrainQueue(sim::Cycle now) {
    return !fan_queue_.empty() && DrainFanOut(now);
  }
  bool QueuePending() const { return !fan_queue_.empty(); }
  void Forwarded(const net::Packet& pkt, const PacketFifo* out) {
    if (!handlers_->empty()) FanOut(pkt, out);
  }
  void AppendOutputs(std::vector<const sim::FifoBase*>& out) const;

  /// Push the head of the fan-out queue unless the CKS-bound FIFO is full.
  bool DrainFanOut(sim::Cycle now);
  /// Replicate a packet delivered to this CKR's endpoint (see above).
  void FanOut(const net::Packet& pkt, const PacketFifo* out);

  const EndpointTable* endpoints_;
  const HandlerTable* handlers_;
  std::deque<net::Packet> fan_queue_;  ///< replicated copies awaiting injection
};

extern template class Ck<Ckr>;

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_CKR_H
