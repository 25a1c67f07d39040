#include "transport/cks.h"

#include <algorithm>

#include "common/error.h"

namespace smi::transport {

PacketFifo* Cks::Route(const net::Packet& pkt) const {
  const int dst = pkt.hdr.dst;
  if (dst == local_rank_) return Output(port_index_);
  const int ranks = routes_->num_ranks();
  if (ranks == 0) throw ConfigError(name() + ": no routing table uploaded");
  if (dst < 0 || dst >= ranks) {
    throw ConfigError(name() + ": packet for out-of-range rank " +
                      std::to_string(dst));
  }
  const int q = routes_->next_port(local_rank_, dst);
  if (q < 0) {
    throw ConfigError(name() + ": routing table has no route to rank " +
                      std::to_string(dst));
  }
  if (q != port_index_) return Output(q);
  if (to_net_ == nullptr) {
    throw ConfigError(name() + ": route uses unwired network port " +
                      std::to_string(q));
  }
  return to_net_;
}

void Cks::DrainRecovery(sim::Cycle now) {
  arbiter_.SkipPoll(now);
  PacketFifo* out = Route(recovery_.front());
  if (out->CanPush(now)) {
    Emit(*out, recovery_.front(), now);
    recovery_.pop_front();
  }
}

bool Cks::FlushHeld(sim::Cycle now) {
  if (combine_held_ == 0) return false;
  for (CombineSlot& slot : combine_) {
    if (!slot.busy || slot.deadline > now) continue;
    // Route with the *current* table — a failover may have rerouted the
    // destination while the packet was held.
    PacketFifo* out = Route(slot.pkt);
    // Whether the push succeeds or the output is full, this slot owns the
    // cycle's push budget; a full output retries next cycle (the deadline
    // stays expired, HeldWake keeps the component hot).
    if (out->CanPush(now)) {
      Emit(*out, slot.pkt, now);
      slot.busy = false;
      --combine_held_;
    }
    return true;
  }
  return false;
}

sim::Cycle Cks::HeldWake(sim::Cycle wake, sim::Cycle now) const {
  if (combine_held_ == 0 || wake == now + 1) return wake;
  for (const CombineSlot& slot : combine_) {
    if (!slot.busy) continue;
    const sim::Cycle due = slot.deadline > now ? slot.deadline : now + 1;
    if (due < wake) wake = due;
  }
  return wake;
}

bool Cks::RunHandlers(PacketFifo& in, bool pushed, sim::Cycle now) {
  const net::Packet& front = in.Front(now);
  // Packets arriving over the intra-rank crossbar were already filtered at
  // the CKS where they entered the rank (see AddInput).
  const bool from_crossbar =
      std::find(xbar_inputs_.begin(), xbar_inputs_.end(), &in) !=
      xbar_inputs_.end();
  // Count/filter: drop-or-pass predicate with counted side channel.
  const std::size_t n = handlers_->size();
  for (std::size_t i = 0; !from_crossbar && i < n; ++i) {
    const HandlerEntry& e = handlers_->entries()[i];
    if (e.cls != HandlerClass::kFilter || e.port != front.hdr.port ||
        e.op != front.hdr.op) {
      continue;
    }
    const std::uint64_t seen = filter_seen_[i];
    if (e.pass_every == 0 ||
        seen % static_cast<std::uint64_t>(e.pass_every) != 0) {
      in.Pop(now);
      ++filter_seen_[i];
      if (obs_ != nullptr) obs_->OnHandlerFiltered(now);
      arbiter_.Serviced(now);
      return true;
    }
    pending_filter_ = i;
    break;  // at most one filter entry matches a (port, op)
  }
  // Reduce-in-transit: only at the network egress of this rank (where every
  // stream toward the destination converges) and never on local deliveries.
  const HandlerEntry* combine = handlers_->Find(
      HandlerClass::kReduceCombine, front.hdr.port, front.hdr.op);
  if (combine == nullptr || front.hdr.dst == local_rank_ ||
      to_net_ == nullptr || Route(front) != to_net_) {
    return false;
  }
  const std::uint32_t base = InnetEnvelope::Base(front);
  CombineSlot* free_slot = nullptr;
  for (CombineSlot& slot : combine_) {
    if (!slot.busy) {
      if (free_slot == nullptr) free_slot = &slot;
      continue;
    }
    if (slot.pkt.hdr.dst != front.hdr.dst ||
        slot.pkt.hdr.port != front.hdr.port ||
        slot.pkt.hdr.op != front.hdr.op ||
        slot.pkt.hdr.count != front.hdr.count ||
        InnetEnvelope::Base(slot.pkt) != base ||
        InnetEnvelope::Epoch(slot.pkt) != InnetEnvelope::Epoch(front)) {
      continue;
    }
    // Merge: fold the element region, sum the contribution counts; the
    // arriving packet is consumed and never forwarded.
    const net::Packet pkt = in.Pop(now);
    ConsumeFilter();
    combine->combine(slot.pkt, pkt);
    const std::uint32_t contribs =
        static_cast<std::uint32_t>(InnetEnvelope::Contribs(slot.pkt)) +
        InnetEnvelope::Contribs(pkt);
    InnetEnvelope::SetContribs(slot.pkt,
                               static_cast<std::uint16_t>(contribs));
    if (obs_ != nullptr) obs_->OnHandlerCombine(now);
    arbiter_.Serviced(now);
    // A completed packet leaves immediately (the merged packet departs as
    // the completing one arrives) unless the push budget is spent, in which
    // case it flushes next cycle.
    if (combine->max_contribs > 0 &&
        contribs >= static_cast<std::uint32_t>(combine->max_contribs)) {
      if (!pushed && to_net_->CanPush(now)) {
        Emit(*to_net_, slot.pkt, now);
        slot.busy = false;
        --combine_held_;
      } else {
        slot.deadline = now;
      }
    }
    return true;
  }
  if (free_slot == nullptr) return false;  // buffer full: forward unmerged
  // Open a new flow: hold the packet for merge partners.
  free_slot->pkt = in.Pop(now);
  ConsumeFilter();
  free_slot->busy = true;
  ++combine_held_;
  free_slot->deadline =
      now + static_cast<sim::Cycle>(combine->hold_cycles);
  arbiter_.Serviced(now);
  return true;
}

template class Ck<Cks>;

}  // namespace smi::transport
