#include "transport/cks.h"

#include <algorithm>

#include "common/error.h"
#include "obs/recorder.h"

namespace smi::transport {

PacketFifo* Cks::Route(const net::Packet& pkt) const {
  const int dst = pkt.hdr.dst;
  if (dst == local_rank_) {
    if (to_ckr_ == nullptr) {
      throw ConfigError(name() + ": local delivery without paired CKR");
    }
    return to_ckr_;
  }
  if (next_port_.empty()) {
    throw ConfigError(name() + ": no routing table uploaded");
  }
  if (dst < 0 || dst >= static_cast<int>(next_port_.size())) {
    throw ConfigError(name() + ": packet for out-of-range rank " +
                      std::to_string(dst));
  }
  const int q = next_port_[static_cast<std::size_t>(dst)];
  if (q < 0) {
    throw ConfigError(name() + ": routing table has no route to rank " +
                      std::to_string(dst));
  }
  if (q == port_index_) {
    if (to_net_ == nullptr) {
      throw ConfigError(name() + ": route uses unwired network port " +
                        std::to_string(q));
    }
    return to_net_;
  }
  if (static_cast<std::size_t>(q) >= to_cks_.size() ||
      to_cks_[static_cast<std::size_t>(q)] == nullptr) {
    throw ConfigError(name() + ": no crossbar output toward CKS " +
                      std::to_string(q));
  }
  return to_cks_[static_cast<std::size_t>(q)];
}

bool Cks::FlushExpired(sim::Cycle now) {
  if (combine_held_ == 0) return false;
  for (CombineSlot& slot : combine_) {
    if (!slot.busy || slot.deadline > now) continue;
    // Route with the *current* table — a failover may have rerouted the
    // destination while the packet was held.
    PacketFifo* out = Route(slot.pkt);
    // Whether the push succeeds or the output is full, this slot owns the
    // cycle's push budget; a full output retries next cycle (the deadline
    // stays expired, NextSelfWake keeps the component hot).
    if (out->CanPush(now)) {
      out->Push(slot.pkt, now);
      slot.busy = false;
      --combine_held_;
      ++forwarded_;
      if (obs_ != nullptr) {
        obs_->OnForward(static_cast<int>(slot.pkt.hdr.op), now);
      }
    }
    return true;
  }
  return false;
}

void Cks::Step(sim::Cycle now) {
  stall_out_ = nullptr;
  // Failover-recovered packets go first, one per cycle, before any arbitered
  // input — the recovered window must re-enter the stream ahead of traffic
  // that was queued behind it. They bypass the handlers (see cks.h).
  if (!recovery_.empty()) {
    arbiter_.SkipPoll(now);
    PacketFifo* out = Route(recovery_.front());
    if (out->CanPush(now)) {
      const net::Packet pkt = recovery_.front();
      recovery_.pop_front();
      out->Push(pkt, now);
      ++forwarded_;
      if (obs_ != nullptr) obs_->OnForward(static_cast<int>(pkt.hdr.op), now);
    }
    return;
  }
  // Expired combine-buffer packets flush ahead of new input (one per cycle).
  // Merging below consumes input without pushing, so a flush and a merge can
  // share a cycle — one packet in, one packet out, like the plain datapath.
  const bool pushed = FlushExpired(now);
  PacketFifo* in = arbiter_.Select(now);
  if (in == nullptr) return;
  const net::Packet& front = in->Front(now);

  // A filter pass is charged only when the packet is actually consumed — a
  // stalled packet re-enters Step next cycle and must not advance the
  // pass-every phase twice.
  std::size_t pending_filter = handlers_.size();
  const auto consume_filter = [&] {
    if (pending_filter < handlers_.size()) {
      ++filter_seen_[pending_filter];
      ++filter_passed_;
    }
  };

  if (!handlers_.empty()) {
    // Packets arriving over the intra-rank crossbar were already filtered
    // at the CKS where they entered the rank (see AddInput).
    const bool from_crossbar =
        std::find(xbar_inputs_.begin(), xbar_inputs_.end(), in) !=
        xbar_inputs_.end();
    // Count/filter: drop-or-pass predicate with counted side channel.
    const std::size_t n = handlers_.size();
    for (std::size_t i = 0; !from_crossbar && i < n; ++i) {
      const HandlerEntry& e = handlers_.entries()[i];
      if (e.cls != HandlerClass::kFilter || e.port != front.hdr.port ||
          e.op != front.hdr.op) {
        continue;
      }
      const std::uint64_t seen = filter_seen_[i];
      if (e.pass_every == 0 ||
          seen % static_cast<std::uint64_t>(e.pass_every) != 0) {
        in->Pop(now);
        ++filter_seen_[i];
        ++filter_dropped_;
        if (obs_ != nullptr) obs_->OnHandlerFiltered(now);
        arbiter_.Serviced(now);
        return;
      }
      pending_filter = i;
      break;  // at most one filter entry matches a (port, op)
    }
    // Reduce-in-transit: only at the network egress of this rank (where
    // every stream toward the destination converges) and never on local
    // deliveries.
    const HandlerEntry* combine = handlers_.Find(
        HandlerClass::kReduceCombine, front.hdr.port, front.hdr.op);
    if (combine != nullptr && front.hdr.dst != local_rank_ &&
        Route(front) == to_net_ && to_net_ != nullptr) {
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
        const net::Packet pkt = in->Pop(now);
        consume_filter();
        combine->combine(slot.pkt, pkt);
        const std::uint32_t contribs =
            static_cast<std::uint32_t>(InnetEnvelope::Contribs(slot.pkt)) +
            InnetEnvelope::Contribs(pkt);
        InnetEnvelope::SetContribs(slot.pkt,
                                   static_cast<std::uint16_t>(contribs));
        ++handler_combined_;
        if (obs_ != nullptr) obs_->OnHandlerCombine(now);
        arbiter_.Serviced(now);
        // A completed packet leaves immediately (the merged packet departs
        // as the completing one arrives) unless the push budget is spent,
        // in which case it flushes next cycle.
        if (combine->max_contribs > 0 &&
            contribs >= static_cast<std::uint32_t>(combine->max_contribs)) {
          if (!pushed && to_net_->CanPush(now)) {
            to_net_->Push(slot.pkt, now);
            slot.busy = false;
            --combine_held_;
            ++forwarded_;
            if (obs_ != nullptr) {
              obs_->OnForward(static_cast<int>(slot.pkt.hdr.op), now);
            }
          } else {
            slot.deadline = now;
          }
        }
        return;
      }
      if (free_slot != nullptr) {
        // Open a new flow: hold the packet for merge partners.
        free_slot->pkt = in->Pop(now);
        consume_filter();
        free_slot->busy = true;
        ++combine_held_;
        free_slot->deadline = now + static_cast<sim::Cycle>(
                                        combine->hold_cycles);
        arbiter_.Serviced(now);
        return;
      }
      // Buffer full: bypass — forwarding unmerged is always correct.
    }
  }

  PacketFifo* out = Route(front);
  if (pushed || !out->CanPush(now)) {
    arbiter_.Stalled(now);
    // With no combine-buffer packet held this packet is not combinable (it
    // would have taken a free slot), so a retry can only differ once the
    // output has room.
    if (!pushed && combine_held_ == 0) stall_out_ = out;
    return;
  }
  const net::Packet pkt = in->Pop(now);
  consume_filter();
  out->Push(pkt, now);
  ++forwarded_;
  if (obs_ != nullptr) obs_->OnForward(static_cast<int>(pkt.hdr.op), now);
  arbiter_.Serviced(now);
}

void Cks::DeclareFifos(sim::FifoRoles& roles) {
  arbiter_.AppendInputs(roles.inputs);
  arbiter_.ResyncHasData();
  for (const PacketFifo* out : {to_net_, to_ckr_}) {
    if (out != nullptr) roles.outputs.push_back(out);
  }
  for (const PacketFifo* out : to_cks_) {
    if (out != nullptr) roles.outputs.push_back(out);
  }
}

void Cks::AttachObservability(obs::Recorder& recorder) {
  obs_ = recorder.AddCk(name());
  arbiter_.set_counters(obs_);
}

}  // namespace smi::transport
