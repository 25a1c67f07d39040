#include "transport/ckr.h"

#include "common/error.h"
#include "obs/recorder.h"

namespace smi::transport {

PacketFifo* Ckr::Route(const net::Packet& pkt) const {
  if (pkt.hdr.dst != local_rank_) {
    // Intermediate hop: hand over to the paired CKS, which owns the
    // rank-level routing table.
    if (to_cks_ == nullptr) {
      throw ConfigError(name() + ": transit packet without paired CKS");
    }
    return to_cks_;
  }
  const int app_port = pkt.hdr.port;
  const auto ep = endpoints_.find(app_port);
  if (ep != endpoints_.end()) return ep->second;
  const auto owner = port_owner_.find(app_port);
  if (owner == port_owner_.end()) {
    throw ConfigError(name() + ": packet for unknown port " +
                      std::to_string(app_port) + " (" + pkt.DebugString() +
                      ")");
  }
  const int q = owner->second;
  if (static_cast<std::size_t>(q) >= to_ckr_.size() ||
      to_ckr_[static_cast<std::size_t>(q)] == nullptr) {
    throw ConfigError(name() + ": no crossbar output toward CKR " +
                      std::to_string(q));
  }
  return to_ckr_[static_cast<std::size_t>(q)];
}

void Ckr::Step(sim::Cycle now) {
  stall_out_ = nullptr;
  // Fan-out copies drain first, one per cycle: they re-enter the fabric
  // through the paired CKS ahead of new arbitered traffic so a multicast
  // wavefront keeps log-depth latency. When the CKS-bound FIFO is full the
  // drain must NOT block the arbiter below: the CKS may itself be
  // head-of-line blocked on this CKR's input FIFO (e.g. a burst of
  // self-addressed credit grants looping CKS -> CKR -> fan -> CKS), and
  // only continued arbitration breaks that cycle.
  if (!fan_queue_.empty()) {
    if (to_cks_ == nullptr) {
      throw ConfigError(name() + ": fan-out copy without paired CKS");
    }
    if (to_cks_->CanPush(now)) {
      to_cks_->Push(fan_queue_.front(), now);
      const net::Packet& pkt = fan_queue_.front();
      ++forwarded_;
      ++handler_splits_;
      if (obs_ != nullptr) {
        obs_->OnForward(static_cast<int>(pkt.hdr.op), now);
        obs_->OnHandlerSplit(now);
      }
      fan_queue_.pop_front();
      arbiter_.SkipPoll(now);
      return;
    }
  }
  PacketFifo* in = arbiter_.Select(now);
  if (in == nullptr) return;
  PacketFifo* out = Route(in->Front(now));
  if (!out->CanPush(now)) {
    arbiter_.Stalled(now);
    stall_out_ = out;
    return;
  }
  const net::Packet pkt = in->Pop(now);
  out->Push(pkt, now);
  ++forwarded_;
  if (obs_ != nullptr) obs_->OnForward(static_cast<int>(pkt.hdr.op), now);
  arbiter_.Serviced(now);
  // Scatter fan-out: a locally delivered packet matching a fan entry is
  // also replicated toward the entry's children, re-addressed per child.
  // The source rank is preserved so receivers see the multicast origin.
  // Replication keys on the actual endpoint delivery — a locally addressed
  // packet merely forwarded across the CKR crossbar toward the CKR owning
  // its port must not fan out here too, or every crossbar hop would
  // duplicate the multicast.
  if (!handlers_.empty() && pkt.hdr.dst == local_rank_ &&
      endpoints_.find(pkt.hdr.port) != endpoints_.end()) {
    const HandlerEntry* fan =
        handlers_.Find(HandlerClass::kFanOut, pkt.hdr.port, pkt.hdr.op);
    if (fan != nullptr) {
      for (const int child : fan->fan_dsts) {
        if (child == local_rank_) continue;
        net::Packet copy = pkt;
        copy.hdr.dst = static_cast<std::uint16_t>(child);
        fan_queue_.push_back(copy);
      }
    }
  }
}

void Ckr::DeclareFifos(sim::FifoRoles& roles) {
  arbiter_.AppendInputs(roles.inputs);
  arbiter_.ResyncHasData();
  if (to_cks_ != nullptr) roles.outputs.push_back(to_cks_);
  for (const PacketFifo* out : to_ckr_) {
    if (out != nullptr) roles.outputs.push_back(out);
  }
  for (const auto& [port, out] : endpoints_) roles.outputs.push_back(out);
}

void Ckr::AttachObservability(obs::Recorder& recorder) {
  obs_ = recorder.AddCk(name());
  arbiter_.set_counters(obs_);
}

}  // namespace smi::transport
