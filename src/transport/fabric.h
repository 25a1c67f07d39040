#ifndef SMI_TRANSPORT_FABRIC_H
#define SMI_TRANSPORT_FABRIC_H

/// \file fabric.h
/// Builds the complete SMI transport layer for a multi-FPGA cluster inside a
/// simulation engine: per rank, one CKS/CKR pair per network port, the
/// crossbar FIFOs between them (Fig. 7), the application endpoint FIFOs, and
/// the serial links between ranks as cabled by the topology.
///
/// The fabric has one constructor, from a `net::Topology`, which it keeps:
/// `Topology::Connect` validates every cable, so machine-generated cabling
/// (deployment JSON) enters through `Topology::FromJson`. The fabric is the
/// one owner of wiring and forwarding state: the topology, the one uploaded
/// routing table whose rank rows the CKSes read, and one endpoint table and
/// one in-network handler table per rank, shared by that rank's CKs.
///
/// The set of application endpoints per rank is part of the fabric — in the
/// paper it is baked into the bitstream by the code generator — while the
/// routing tables are uploaded afterwards and can be replaced at runtime
/// (`UploadRoutes`), allowing topology/rank-count changes without
/// "rebuilding the bitstream".
///
/// ## Fault injection and failover
///
/// When `FabricConfig::fault` carries an enabled `fault::FaultPlan`, every
/// serial link is built as a `sim::ReliableLink` instead of the lossless
/// `sim::FlowLink`: per-frame sequence numbers + checksums, go-back-N
/// retransmission, and — for plans with a finite retry budget — permanent
/// death detection. A death is reported through `sim::LinkDeathSink` into a
/// deterministic engine global event that fires `failover_delay` cycles
/// later: the fabric replaces its topology with the surviving cables (switch
/// marks kept), recomputes deadlock-free routes over it, re-uploads them
/// through the validating `UploadRoutes`, and re-queues every undelivered
/// in-flight payload of both directions into the sending CKS
/// (`Cks::InjectRecovered`). `FaultsJson` exposes the per-link reliability
/// counters and the failover history.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "fault/fault.h"
#include "net/packet.h"
#include "net/routing.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "sim/flow_link.h"
#include "sim/link_fault.h"
#include "sim/reliable_link.h"
#include "sim/serial_link.h"
#include "transport/ckr.h"
#include "transport/cks.h"

namespace smi::transport {

struct FabricConfig {
  /// Polling burst parameter R of the communication kernels (§4.3).
  int poll_r = 8;
  /// Depth of application endpoint FIFOs — the "asynchronicity degree" k of
  /// §3.3, a per-build optimization parameter.
  std::size_t endpoint_fifo_depth = 16;
  /// Depth of the CK crossbar FIFOs.
  std::size_t crossbar_fifo_depth = 8;
  /// Depth of the FIFOs between CKs and the network interfaces.
  std::size_t net_fifo_depth = 16;
  /// Serial link pipeline latency in cycles. 105 cycles at 156.25 MHz
  /// (0.67 us) calibrates the per-hop latency to the paper's Table 3.
  sim::Cycle link_latency = 105;
  /// Fault plan. When `fault.enabled`, links are built as reliable links and
  /// the plan's per-link specs drive the injected faults (see file comment).
  fault::FaultPlan fault;
};

/// Which application endpoints exist on a rank. In the paper this is the
/// metadata the code generator extracts from the user's kernels. Ports must
/// be unique within each list; the fabric rejects duplicates (each port maps
/// to exactly one endpoint FIFO).
struct RankEndpoints {
  std::vector<int> send_ports;
  std::vector<int> recv_ports;
};

class Fabric final : public sim::LinkDeathSink {
 public:
  /// Build the transport fabric into `engine`. `endpoints[r]` lists the
  /// application endpoints of rank r (use a single-element vector replicated
  /// by the caller for SPMD programs).
  ///
  /// A topology with switch ranks is wired *sparsely*: CKS/CKR pairs and
  /// crossbar FIFOs exist only for active ports — ports that are cabled, or
  /// that serve an application endpoint (port p maps to CK p mod P); the
  /// other ports are holes whose accessors throw. Scale-out topologies
  /// declare many ports per rank (a fat-tree leaf wires hosts+spines ports,
  /// a dragonfly router hosts+local+global) but each rank wires only a few,
  /// and hosts exactly one; dense building would create P^2 crossbar FIFOs
  /// per rank and — because a polling arbiter examines one input per cycle —
  /// change cycle timing. Switchless fabrics, which have dense baselines,
  /// stay dense and keep their exact cycle behaviour.
  ///
  /// On every build, sparse or dense, a FIFO into a CKR exists only where
  /// the rank's endpoints say it can carry a packet: the CKR crossbar edge
  /// toward CKR o only when o owns a receive endpoint (some recv port p has
  /// p mod P == o), the CKS -> paired CKR edge at port q only when CKS q
  /// serves a send endpoint (only a self-send takes it). The rule depends on
  /// no routing table, so it holds across `UploadRoutes` and failover. Each
  /// edge left out is an empty slot of the CKR's polling arbiter
  /// (transport/arbiter.h), so the R-polling cycle model is that of the
  /// full wiring. On the 296-rank `FatTree(8, 32, 8)` with one SPMD endpoint
  /// pair this builds 19,456 FIFOs instead of 35,840: the switches have no
  /// CKR crossbar and no CKS -> CKR edge at all.
  Fabric(sim::Engine& engine, const net::Topology& topology,
         std::vector<RankEndpoints> endpoints, FabricConfig config = {});

  /// FIFO an application pushes packets into to send on (rank, port).
  /// This and the three accessors below throw ConfigError naming the rank
  /// and port when there is no such endpoint or CK.
  PacketFifo& SendEndpoint(int rank, int port);
  /// FIFO an application pops received packets from on (rank, port).
  PacketFifo& RecvEndpoint(int rank, int port);

  /// Replace the routing table every CKS reads (runtime-configurable);
  /// validated whole against the wiring before it replaces the old one.
  void UploadRoutes(const net::RoutingTable& routes);

  /// Replace each rank's in-network handler table (see transport/handler.h),
  /// shared by that rank's CKSes and CKRs; validated whole before any
  /// upload, like the routing tables. Upload before traffic flows — the
  /// combine buffers must be empty when the table changes.
  void UploadHandlers(const std::vector<HandlerTable>& tables);

  int num_ranks() const { return topology_.num_ranks(); }
  int ports_per_rank() const { return topology_.ports_per_rank(); }
  /// The cabling; after a failover, the surviving cables.
  const net::Topology& topology() const { return topology_; }
  /// The uploaded routing table (no ranks before the first upload).
  const net::RoutingTable& routes() const { return *routes_; }
  const FabricConfig& config() const { return config_; }

  /// The wire header format this fabric's rank count requires: compact
  /// (the paper's 4-byte header, up to 256 ranks) or wide (40-bit header,
  /// up to 4096 ranks). See net/packet.h.
  net::WireFormat wire_format() const {
    return num_ranks() > net::kMaxWireRank + 1 ? net::WireFormat::kWide
                                               : net::WireFormat::kCompact;
  }

  /// Total packets delivered over all serial links (traffic statistic).
  std::uint64_t TotalLinkPackets() const;
  /// The CKS/CKR at (rank, port); a sparse build's holes have none.
  const Cks& cks(int rank, int port) const;
  const Ckr& ckr(int rank, int port) const;

  /// Fault/reliability report: null when no fault plan is enabled, else an
  /// object with the plan seed, per-link reliability counters and the
  /// failover history. Stable across schedulers (bit-identical runs).
  json::Value FaultsJson() const;

  /// Fidelity report: null when the engine's fidelity policy is kCycle, else
  /// the canonical "fidelity" section (sim::FidelityReportJson) extended
  /// with the fault-pinned directed links that stayed cycle-accurate.
  json::Value FidelityJson() const;

  /// sim::LinkDeathSink — called by a reliable link (possibly from a worker
  /// thread) when its retry budget is exhausted. Schedules the failover as a
  /// deterministic engine global event; never mutates fabric state directly.
  void OnLinkDead(std::size_t link_id, sim::Cycle now) override;

 private:
  struct Rank {
    /// Indexed by port; nullptr holes on inactive ports of a sparse build.
    std::vector<Cks*> cks;
    std::vector<Ckr*> ckr;
    EndpointTable endpoints;  ///< shared with the rank's CKRs
    HandlerTable handlers;    ///< shared with the rank's CKSes and CKRs
  };
  /// One directed link. Links come in cable pairs: link 2k runs a -> b and
  /// link 2k + 1 runs b -> a for the k-th cable (a, b) of the built
  /// topology's `Connections()`. `rlink` is set on a fault-plan (go-back-N)
  /// build; under a non-cycle fidelity policy it marks a fault-pinned cable
  /// (injected faults are always timed exactly).
  struct LinkRec {
    net::PortId from, to;
    PacketFifo* tx = nullptr;  ///< CKS-side net FIFO feeding the link
    sim::SerialLink<net::Packet>* link = nullptr;     ///< either build
    sim::ReliableLink<net::Packet>* rlink = nullptr;  ///< fault-plan build
  };
  struct FailoverRecord {
    std::string cable;
    sim::Cycle death_cycle = 0;
    sim::Cycle failover_cycle = 0;
    std::uint64_t recovered = 0;  ///< payloads re-queued into the CKSes
  };

  /// Rank r's CK pairs, endpoints and the edges between them (see the
  /// constructor); `sparse` builds CK pairs only for active ports.
  void BuildRank(sim::Engine& engine, int r, const RankEndpoints& eps,
                 bool sparse);
  /// `(ranks_[rank].*table)[port]`, or null when either index is out of
  /// range.
  template <class T>
  const T* Find(int rank, int port, std::vector<T> Rank::*table) const;
  void BuildLinks(sim::Engine& engine);
  /// The failover itself; runs as an engine global event at the top of a
  /// cycle under every scheduler. Idempotent: a no-op if the cable already
  /// failed over or the death was undone by the final-epoch trim.
  void ExecuteFailover(std::size_t link_id, sim::Cycle death_cycle,
                       sim::Cycle now);

  sim::Engine* engine_ = nullptr;
  net::Topology topology_;
  /// Heap-held so the CKSes' pointer to it survives a move of the fabric.
  std::unique_ptr<net::RoutingTable> routes_;
  FabricConfig config_;
  std::vector<Rank> ranks_;
  std::vector<LinkRec> link_recs_;
  /// Owned fault models, one per faulted directed link (deque: the links
  /// hold stable pointers into it).
  std::deque<fault::LinkFaultModel> fault_models_;
  std::vector<FailoverRecord> failovers_;
  sim::Cycle failover_delay_ = 0;  ///< resolved death-to-reroute delay
};

}  // namespace smi::transport

#endif  // SMI_TRANSPORT_FABRIC_H
