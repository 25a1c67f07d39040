#ifndef SMI_TRANSPORT_HANDLER_H
#define SMI_TRANSPORT_HANDLER_H

/// \file handler.h
/// In-network packet handlers for the CKS/CKR forwarding path — the
/// sPIN-style extension (PAPERS.md): small typed handlers that execute on
/// packets *inside* the network instead of at endpoints. A per-rank
/// `HandlerTable` is uploaded alongside the routing tables; CKS and CKR
/// consult it during forwarding, keyed by (application port, wire op).
///
/// Three handler classes exist:
///
///  * **Reduce-in-transit** (`kReduceCombine`, CKS side): data packets of an
///    in-network reduction carry an *envelope* payload (InnetEnvelope below)
///    naming the base element index they cover. At the network-egress CKS of
///    every hop, packets with the same (destination, port, base) are folded
///    into one merged packet — elementwise reduce over the payload, summed
///    contribution count — inside a small combine buffer with a bounded hold
///    window, so a funnel of n contribution streams leaves each hop as one
///    stream. A packet that finds no combine partner forwards unmodified
///    after `hold_cycles`; the protocol is correct for any interleaving of
///    merged and unmerged packets (the root counts contributions, not
///    senders).
///  * **Scatter fan-out** (`kFanOut`, CKR side): a packet delivered locally
///    at a rank with a fan entry is also replicated to the entry's children,
///    one copy per cycle through the paired CKS. A tree of fan entries turns
///    one root-emitted packet into an n-rank multicast with log-depth
///    latency and one packet per tree edge instead of the root serializing
///    n-1 packets. Used by the in-network reduce for its credit grants, and
///    available standalone.
///  * **Count/filter** (`kFilter`, CKS side): a drop-or-pass predicate
///    (forward one of every `pass_every` matching packets) with pass/drop
///    side-channel counts for observability.
///
/// Determinism: every handler decision is a pure function of the packet
/// stream and the cycle counter (hold deadlines are assigned at pop time,
/// flush order is slot order), so the three schedulers stay bit-identical;
/// the activity counters are journaled like every other obs counter.
/// Fault composition: retransmitted frames are deduplicated below the CK
/// layer (reliable-link RX sequence numbers), and failover-recovered packets
/// bypass the handlers entirely — forwarding a recovered packet unmodified
/// is always protocol-correct — so no packet can ever be combined twice.

#include <cstdint>
#include <cstring>
#include <vector>

#include "net/packet.h"
#include "sim/clock.h"

namespace smi::transport {

enum class HandlerClass : std::uint8_t {
  kReduceCombine,  ///< fold same-(dst, port, base) data packets at the hop
  kFanOut,         ///< replicate locally-delivered packets to children
  kFilter,         ///< drop-or-pass predicate with counted side channel
};

const char* HandlerClassName(HandlerClass cls);

/// Payload layout of in-network-reducible data packets. The fixed 28-byte
/// payload is split into an 8-byte envelope and the element region:
///
///   bytes [0, 4)  u32 base    — element index of the packet's first element
///   bytes [4, 6)  u16 contribs— how many per-rank contributions are folded
///                               into this packet (1 as sent; summed by each
///                               in-transit combine)
///   bytes [6, 8)  u16 epoch   — channel-open sequence number of the port
///                               (mod 2^16); part of the combine match key so
///                               packets of different opens never merge
///   bytes [8, 28) elements    — hdr.count elements of the collective's type
///
/// All ranks of a collective chunk their streams identically (chunk
/// boundaries are a pure function of count, element size and the credit
/// tile), so two packets with equal (epoch, base) always carry equal element
/// counts and can be merged elementwise.
struct InnetEnvelope {
  static constexpr std::size_t kBytes = 8;
  /// Elements of size `esz` that fit after the envelope.
  static constexpr std::size_t ElementsPerPacket(std::size_t esz) {
    return (net::kPayloadBytes - kBytes) / esz;
  }
  static std::uint32_t Base(const net::Packet& p) {
    std::uint32_t v;
    std::memcpy(&v, p.payload.data(), 4);
    return v;
  }
  static void SetBase(net::Packet& p, std::uint32_t base) {
    std::memcpy(p.payload.data(), &base, 4);
  }
  static std::uint16_t Contribs(const net::Packet& p) {
    std::uint16_t v;
    std::memcpy(&v, p.payload.data() + 4, 2);
    return v;
  }
  static void SetContribs(net::Packet& p, std::uint16_t contribs) {
    std::memcpy(p.payload.data() + 4, &contribs, 2);
  }
  static std::uint16_t Epoch(const net::Packet& p) {
    std::uint16_t v;
    std::memcpy(&v, p.payload.data() + 6, 2);
    return v;
  }
  static void SetEpoch(net::Packet& p, std::uint16_t epoch) {
    std::memcpy(p.payload.data() + 6, &epoch, 2);
  }
};

/// One handler attachment. Which fields apply depends on `cls`; Validate()
/// rejects inconsistent entries before upload.
struct HandlerEntry {
  HandlerClass cls = HandlerClass::kFilter;
  int port = 0;                         ///< application port the handler keys on
  net::OpType op = net::OpType::kData;  ///< wire op the handler intercepts

  /// kReduceCombine: fold `in`'s element region into `acc`'s (envelope and
  /// header untouched — the table updates the contribution count itself).
  /// Provided by the upper layer so the transport stays datatype-agnostic.
  using CombineFn = void (*)(net::Packet& acc, const net::Packet& in);
  CombineFn combine = nullptr;
  /// kReduceCombine: cycles a lone packet waits in the combine buffer for a
  /// merge partner before it forwards unmodified.
  int hold_cycles = 8;
  /// kReduceCombine: flush a buffered packet as soon as its folded
  /// contribution count reaches this (0 = only the hold window flushes).
  int max_contribs = 0;

  /// kFanOut: global ranks that receive a replicated copy.
  std::vector<int> fan_dsts;

  /// kFilter: forward one of every `pass_every` matching packets
  /// (1 = pass all; 0 = drop all).
  int pass_every = 1;
};

/// The per-rank handler table. Uploaded whole (like the routing tables) and
/// kept once per rank by the fabric, where the rank's CKSes and CKRs read
/// it; lookups are linear over a handful of
/// entries, exactly the small match-table a hardware implementation would
/// synthesize.
class HandlerTable {
 public:
  void Add(HandlerEntry entry) { entries_.push_back(std::move(entry)); }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  const std::vector<HandlerEntry>& entries() const { return entries_; }

  /// First entry of `cls` matching (port, op); nullptr when none.
  const HandlerEntry* Find(HandlerClass cls, int port, net::OpType op) const {
    for (const HandlerEntry& e : entries_) {
      if (e.cls == cls && e.port == port && e.op == op) return &e;
    }
    return nullptr;
  }

  /// Throws ConfigError on an inconsistent entry: a combine entry without a
  /// combine function or with a non-positive hold window, a fan entry with
  /// an out-of-range child rank or no children at all, a negative filter
  /// rate, or any negative port.
  void Validate(int num_ranks) const;

 private:
  std::vector<HandlerEntry> entries_;
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_HANDLER_H
