#ifndef SMI_TRANSPORT_CK_H
#define SMI_TRANSPORT_CK_H

/// \file ck.h
/// The communication-kernel core of CKS and CKR (§4.2–4.3): an R-burst
/// polling arbiter over input FIFOs whose step selects a packet, routes it,
/// and forwards it or stalls on a full output. The two kernels differ only
/// in where a packet goes next and in their side stages, which the CRTP
/// base `Ck<Derived>` calls statically: the per-packet path has no virtual
/// call beyond the engine's `Step`.
///
/// Outputs toward the rank's other CKs live in one table indexed by network
/// port: the entry at the CK's own port is the paired CK (CKS -> CKR for
/// local deliveries, CKR -> CKS for transit packets), any other entry the
/// crossbar FIFO toward the same-kind CK at that port (null on the holes of
/// a sparse build).
///
/// Hooks (the derived class defines `Route` and shadows the no-op defaults
/// below where it has a side stage):
///   * `Route(pkt)` — the output a packet takes;
///   * `DrainQueue(now)` — push one queued packet ahead of arbitration;
///     true when that spends the cycle; `QueuePending()` keeps the CK due;
///   * `FlushHeld(now)` — forward one held packet; true when that spends the
///     cycle's push budget; `Holding()` — held packets can change a stalled
///     retry; `HeldWake(wake, now)` — the held packets' own wake cycle;
///   * `Intercept(in, pushed, now)` — may consume the selected packet
///     instead of forwarding it; `Forwarded(pkt, out)` runs after a forward;
///   * `AppendOutputs(outputs)` — outputs outside the peer table.
///
/// CK telemetry (forwarded-by-op, polls/hits/bursts/stalls, handler
/// activity) lives only in `obs::CkCounters`; a CK keeps no counters.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/packet.h"
#include "obs/recorder.h"
#include "sim/component.h"
#include "transport/arbiter.h"

namespace smi::transport {

template <class Derived>
class Ck : public sim::Component {
 public:
  Ck(std::string name, int local_rank, int port_index, int ports_per_rank,
     int poll_r)
      : Component(std::move(name)),
        local_rank_(local_rank),
        port_index_(port_index),
        arbiter_(poll_r),
        peer_out_(static_cast<std::size_t>(ports_per_rank), nullptr) {}

  /// --- fabric wiring (called once at construction time) ---
  void AddInput(PacketFifo& fifo) { arbiter_.AddInput(fifo); }
  /// Output toward the CK at network port `q` of this rank: the paired CK
  /// when `q` is this CK's own port, else the sibling's crossbar FIFO.
  void SetOutput(int q, PacketFifo& fifo) {
    peer_out_[static_cast<std::size_t>(q)] = &fifo;
  }

  void Step(sim::Cycle now) final;

  /// Registers a CkCounters block and shares it with the arbiter.
  void AttachObservability(obs::Recorder& recorder) final {
    obs_ = recorder.AddCk(name());
    arbiter_.set_counters(obs_);
  }

  /// Event-driven wake contract: the arbiter inputs are the inputs, the peer
  /// table and AppendOutputs the outputs. A CK is due when the polling
  /// pointer reaches an input holding data, every cycle while its queue
  /// holds packets, and when a held packet is due; one whose latched packet
  /// stalled on a full output sleeps until that output has room.
  void DeclareFifos(sim::FifoRoles& roles) final;
  sim::Cycle InputPushed(std::size_t slot, sim::Cycle now) final {
    return arbiter_.WakeForPush(slot, now);
  }
  sim::Cycle OutputPopped(std::size_t /*slot*/, sim::Cycle now) final {
    return stall_out_ != nullptr ? NextSelfWake(now) : sim::kNeverCycle;
  }
  sim::Cycle NextSelfWake(sim::Cycle now) const final;

 protected:
  std::size_t ports_per_rank() const { return peer_out_.size(); }

  /// The peer-table output toward port `q`; throws if it is not wired.
  PacketFifo* Output(int q) const {
    if (q < 0 || static_cast<std::size_t>(q) >= peer_out_.size() ||
        peer_out_[static_cast<std::size_t>(q)] == nullptr) {
      throw ConfigError(name() + ": no output toward the CK at port " +
                        std::to_string(q));
    }
    return peer_out_[static_cast<std::size_t>(q)];
  }

  /// Push `pkt` into `out` and count it as forwarded (inlined: it is the
  /// forward of every packet).
  [[gnu::always_inline]] void Emit(PacketFifo& out, const net::Packet& pkt,
                                   sim::Cycle now) {
    out.Push(pkt, now);
    if (obs_ != nullptr) obs_->OnForward(static_cast<int>(pkt.hdr.op), now);
  }

  // Hook defaults (see the file comment).
  bool DrainQueue(sim::Cycle) { return false; }
  bool QueuePending() const { return false; }
  bool FlushHeld(sim::Cycle) { return false; }
  bool Holding() const { return false; }
  sim::Cycle HeldWake(sim::Cycle wake, sim::Cycle) const { return wake; }
  bool Intercept(PacketFifo&, bool, sim::Cycle) { return false; }
  void Forwarded(const net::Packet&, const PacketFifo*) {}
  void AppendOutputs(std::vector<const sim::FifoBase*>&) const {}

  const int local_rank_;
  const int port_index_;
  PollingArbiter arbiter_;
  obs::CkCounters* obs_ = nullptr;

 private:
  std::vector<PacketFifo*> peer_out_;
  /// The full output the latched packet stalled on in the last Step, while
  /// nothing but that output's room can change the retry's outcome (nothing
  /// held, no flush pending); null otherwise. Until then every retry is a
  /// stall the arbiter can replay, so the CK sleeps.
  PacketFifo* stall_out_ = nullptr;
};

template <class Derived>
void Ck<Derived>::Step(sim::Cycle now) {
  Derived& self = static_cast<Derived&>(*this);
  stall_out_ = nullptr;
  if (self.DrainQueue(now)) return;
  // A flush and an intercepted (consumed, not pushed) packet can share a
  // cycle — one packet in, one packet out, like the plain datapath.
  const bool pushed = self.FlushHeld(now);
  PacketFifo* in = arbiter_.Select(now);
  if (in == nullptr) return;
  if (self.Intercept(*in, pushed, now)) return;
  PacketFifo* out = self.Route(in->Front(now));
  if (pushed || !out->CanPush(now)) {
    arbiter_.Stalled(now);
    if (!pushed && !self.Holding()) stall_out_ = out;
    return;
  }
  const net::Packet pkt = in->Pop(now);
  Emit(*out, pkt, now);
  arbiter_.Serviced(now);
  self.Forwarded(pkt, out);
}

template <class Derived>
sim::Cycle Ck<Derived>::NextSelfWake(sim::Cycle now) const {
  const Derived& self = static_cast<const Derived&>(*this);
  if (self.QueuePending()) return now + 1;
  if (stall_out_ != nullptr) {
    return stall_out_->occupancy() < stall_out_->capacity() ? now + 1
                                                            : sim::kNeverCycle;
  }
  const sim::Cycle polls = arbiter_.PollsUntilData(now);
  return self.HeldWake(
      polls == sim::kNeverCycle ? sim::kNeverCycle : now + 1 + polls, now);
}

template <class Derived>
void Ck<Derived>::DeclareFifos(sim::FifoRoles& roles) {
  arbiter_.AppendInputs(roles.inputs);
  arbiter_.ResyncHasData();
  for (const PacketFifo* out : peer_out_) {
    if (out != nullptr) roles.outputs.push_back(out);
  }
  static_cast<const Derived&>(*this).AppendOutputs(roles.outputs);
}

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_CK_H
