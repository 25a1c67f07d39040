#include "transport/ckr.h"

#include "common/error.h"

namespace smi::transport {

PacketFifo* Ckr::Route(const net::Packet& pkt) const {
  // Intermediate hop: hand over to the paired CKS, which owns the
  // rank-level routing table.
  if (pkt.hdr.dst != local_rank_) return Output(port_index_);
  const std::size_t p = pkt.hdr.port;
  if (p >= endpoints_->size() || (*endpoints_)[p].recv == nullptr) {
    throw ConfigError(name() + ": packet for unknown port " +
                      std::to_string(p) + " (" + pkt.DebugString() + ")");
  }
  // App ports below P (the common case) skip the division.
  const std::size_t P = ports_per_rank();
  const int owner = static_cast<int>(p < P ? p : p % P);
  return owner == port_index_ ? (*endpoints_)[p].recv : Output(owner);
}

bool Ckr::DrainFanOut(sim::Cycle now) {
  // Fan-out copies drain first, one per cycle: they re-enter the fabric
  // through the paired CKS ahead of new arbitered traffic so a multicast
  // wavefront keeps log-depth latency. When the CKS-bound FIFO is full the
  // drain must NOT block the arbiter: the CKS may itself be head-of-line
  // blocked on this CKR's input FIFO (e.g. a burst of self-addressed credit
  // grants looping CKS -> CKR -> fan -> CKS), and only continued
  // arbitration breaks that cycle.
  PacketFifo* out = Output(port_index_);
  if (!out->CanPush(now)) return false;
  Emit(*out, fan_queue_.front(), now);
  if (obs_ != nullptr) obs_->OnHandlerSplit(now);
  fan_queue_.pop_front();
  arbiter_.SkipPoll(now);
  return true;
}

void Ckr::FanOut(const net::Packet& pkt, const PacketFifo* out) {
  // The source rank is preserved so receivers see the multicast origin.
  // Replication keys on the actual endpoint delivery — a locally addressed
  // packet merely forwarded across the CKR crossbar toward the CKR owning
  // its port must not fan out here too, or every crossbar hop would
  // duplicate the multicast.
  if (pkt.hdr.dst != local_rank_ ||
      out != (*endpoints_)[pkt.hdr.port].recv) {
    return;
  }
  const HandlerEntry* fan =
      handlers_->Find(HandlerClass::kFanOut, pkt.hdr.port, pkt.hdr.op);
  if (fan == nullptr) return;
  for (const int child : fan->fan_dsts) {
    if (child == local_rank_) continue;
    net::Packet copy = pkt;
    copy.hdr.dst = static_cast<std::uint16_t>(child);
    fan_queue_.push_back(copy);
  }
}

void Ckr::AppendOutputs(std::vector<const sim::FifoBase*>& out) const {
  for (std::size_t p = static_cast<std::size_t>(port_index_);
       p < endpoints_->size(); p += ports_per_rank()) {
    if ((*endpoints_)[p].recv != nullptr) out.push_back((*endpoints_)[p].recv);
  }
}

template class Ck<Ckr>;

}  // namespace smi::transport
