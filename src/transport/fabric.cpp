#include "transport/fabric.h"

#include <algorithm>
#include <string_view>

#include "common/error.h"

namespace smi::transport {

namespace {

/// "<kind>.r<rank>.<a>" or "<kind>.r<rank>.<a>-><b>", built in one reserved
/// string (a fat-tree fabric names tens of thousands of FIFOs; the short
/// number strings stay in their small-string buffers).
std::string FifoName(std::string_view kind, int rank, int a, int b = -1) {
  std::string name;
  name.reserve(kind.size() + 24);
  name.append(kind).append(".r").append(std::to_string(rank));
  name.append(".").append(std::to_string(a));
  if (b >= 0) name.append("->").append(std::to_string(b));
  return name;
}

[[noreturn]] void ThrowMissing(const char* what, int rank, int port) {
  throw ConfigError("rank " + std::to_string(rank) + " has no " + what +
                    " on port " + std::to_string(port));
}

}  // namespace

Fabric::Fabric(sim::Engine& engine, const net::Topology& topology,
               std::vector<RankEndpoints> endpoints, FabricConfig config)
    : engine_(&engine),
      topology_(topology),
      routes_(std::make_unique<net::RoutingTable>(0)),
      config_(config) {
  const int ranks = topology_.num_ranks();
  if (ranks > net::kMaxWideWireRank + 1) {
    throw ConfigError("fabric exceeds the 12-bit wide wire rank field");
  }
  // Fault plans corrupt/checksum the serialized 32-byte COMPACT wire image
  // (ToWire truncates ranks to 8 bits), so reliable-link fabrics must fit
  // the compact header; the wide format only carries lossless in-sim links.
  if (config_.fault.enabled && ranks > net::kMaxWireRank + 1) {
    throw ConfigError(
        "fault plans operate on the compact 8-bit wire header; fabrics over " +
        std::to_string(net::kMaxWireRank + 1) + " ranks cannot enable them");
  }
  if (endpoints.size() != static_cast<std::size_t>(ranks)) {
    throw ConfigError("endpoint specs must cover every rank");
  }
  for (const RankEndpoints& eps : endpoints) {
    for (const int p : eps.send_ports) {
      if (p < 0 || p > net::kMaxWirePort) {
        throw ConfigError("send port outside the 8-bit wire port field");
      }
    }
    for (const int p : eps.recv_ports) {
      if (p < 0 || p > net::kMaxWirePort) {
        throw ConfigError("recv port outside the 8-bit wire port field");
      }
    }
  }

  ranks_.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    BuildRank(engine, r, endpoints[static_cast<std::size_t>(r)],
              topology_.has_switches());
  }
  BuildLinks(engine);
  engine.SetPartitionTag(sim::Engine::kUntaggedPartition);
}

void Fabric::BuildRank(sim::Engine& engine, int r, const RankEndpoints& eps,
                       bool sparse) {
  // Everything built here is rank-local, which is exactly the partition
  // boundary the parallel scheduler needs: tag it all with the rank id.
  engine.SetPartitionTag(r);
  Rank& rank = ranks_[static_cast<std::size_t>(r)];
  const int P = ports_per_rank();
  const std::string prefix = "r" + std::to_string(r) + ".";

  // Which CKs serve an application endpoint (port p maps to CK p mod P),
  // and the endpoint table's size: the largest declared port + 1.
  std::vector<bool> sends(static_cast<std::size_t>(P), false);
  std::vector<bool> recvs(static_cast<std::size_t>(P), false);
  int max_port = -1;
  for (const int p : eps.send_ports) {
    sends[static_cast<std::size_t>(p % P)] = true;
    max_port = std::max(max_port, p);
  }
  for (const int p : eps.recv_ports) {
    recvs[static_cast<std::size_t>(p % P)] = true;
    max_port = std::max(max_port, p);
  }
  rank.endpoints.resize(static_cast<std::size_t>(max_port + 1));

  // Active ports get CK pairs: every port on a dense build; on a sparse one
  // the cabled ports (active on both ends, so BuildLinks never touches a
  // null CK) plus the CKs that serve an endpoint. The vectors keep nullptr
  // holes so port indexing stays direct.
  std::vector<bool> active(static_cast<std::size_t>(P));
  for (int q = 0; q < P; ++q) {
    const std::size_t i = static_cast<std::size_t>(q);
    active[i] = !sparse || sends[i] || recvs[i] ||
                topology_.Peer(net::PortId{r, q}).has_value();
  }
  const auto is_active = [&active](int q) {
    return active[static_cast<std::size_t>(q)];
  };
  for (int q = 0; q < P; ++q) {
    if (!is_active(q)) {
      rank.cks.push_back(nullptr);
      rank.ckr.push_back(nullptr);
      continue;
    }
    rank.cks.push_back(&engine.MakeComponent<Cks>(
        prefix + "cks" + std::to_string(q), r, q, P, config_.poll_r,
        *routes_, rank.handlers));
    rank.ckr.push_back(&engine.MakeComponent<Ckr>(
        prefix + "ckr" + std::to_string(q), r, q, P, config_.poll_r,
        rank.endpoints, rank.handlers));
  }

  // Application endpoints: port p is served by CKS and CKR (p mod P). The
  // send FIFOs are added as the *first* arbiter inputs, matching the
  // paper's input order (application, paired CKR, other CKS); the CKRs find
  // the receive FIFOs in the endpoint table. A duplicate port would orphan
  // the first FIFO, so it is rejected outright.
  const auto declare = [&](int p, PacketFifo* Endpoint::*dir,
                           std::string_view kind,
                           const char* what) -> PacketFifo& {
    PacketFifo*& fifo = rank.endpoints[static_cast<std::size_t>(p)].*dir;
    if (fifo != nullptr) {
      throw ConfigError("rank " + std::to_string(r) + " declares " + what +
                        " port " + std::to_string(p) + " more than once");
    }
    fifo = &engine.MakeFifo<net::Packet>(FifoName(kind, r, p),
                                         config_.endpoint_fifo_depth);
    return *fifo;
  };
  for (const int p : eps.send_ports) {
    rank.cks[static_cast<std::size_t>(p % P)]->AddInput(
        declare(p, &Endpoint::send, "app->cks", "send"));
  }
  for (const int p : eps.recv_ports) {
    declare(p, &Endpoint::recv, "ckr->app", "recv");
  }

  // Only edges that can carry a packet are built; the rule reads the
  // endpoint table alone, so it holds for every routing table an upload or
  // a failover installs. An edge left out is an empty slot of the
  // receiving CKR's arbiter (see transport/arbiter.h), so every arbiter
  // keeps the slot count, and the cycle timing, of the full wiring.
  //
  // Paired CKR -> CKS (transit packets) on every active port. CKS -> paired
  // CKR (local deliveries) only where the CKS serves a send endpoint: every
  // other packet a CKS forwards (transit, crossbar, recovered, fan-out) is
  // bound for another rank.
  for (int q = 0; q < P; ++q) {
    if (!is_active(q)) continue;
    PacketFifo& ckr_to_cks = engine.MakeFifo<net::Packet>(
        FifoName("ckr->cks", r, q), config_.crossbar_fifo_depth);
    rank.ckr[static_cast<std::size_t>(q)]->SetOutput(q, ckr_to_cks);
    rank.cks[static_cast<std::size_t>(q)]->AddInput(ckr_to_cks);

    if (!sends[static_cast<std::size_t>(q)]) {
      rank.ckr[static_cast<std::size_t>(q)]->AddEmptySlot();
      continue;
    }
    PacketFifo& cks_to_ckr = engine.MakeFifo<net::Packet>(
        FifoName("cks->ckr", r, q), config_.crossbar_fifo_depth);
    rank.cks[static_cast<std::size_t>(q)]->SetOutput(q, cks_to_ckr);
    rank.ckr[static_cast<std::size_t>(q)]->AddInput(cks_to_ckr);
  }

  // CKS crossbar (packets needing a different network port) between every
  // two active ports. CKR crossbar (local packets whose port lives on
  // another CKR) only toward a CKR that owns a receive endpoint: a CKR
  // rejects a packet for an undeclared port before it picks an output.
  for (int q = 0; q < P; ++q) {
    if (!is_active(q)) continue;
    for (int o = 0; o < P; ++o) {
      if (q == o || !is_active(o)) continue;
      PacketFifo& cks_x = engine.MakeFifo<net::Packet>(
          FifoName("cks->cks", r, q, o), config_.crossbar_fifo_depth);
      rank.cks[static_cast<std::size_t>(q)]->SetOutput(o, cks_x);
      rank.cks[static_cast<std::size_t>(o)]->AddInput(cks_x,
                                                      /*from_crossbar=*/true);

      if (!recvs[static_cast<std::size_t>(o)]) {
        rank.ckr[static_cast<std::size_t>(o)]->AddEmptySlot();
        continue;
      }
      PacketFifo& ckr_x = engine.MakeFifo<net::Packet>(
          FifoName("ckr->ckr", r, q, o), config_.crossbar_fifo_depth);
      rank.ckr[static_cast<std::size_t>(q)]->SetOutput(o, ckr_x);
      rank.ckr[static_cast<std::size_t>(o)]->AddInput(ckr_x);
    }
  }
}

void Fabric::BuildLinks(sim::Engine& engine) {
  const fault::FaultPlan& plan = config_.fault;
  sim::ReliableLinkConfig rcfg;
  if (plan.enabled) {
    rcfg.latency = config_.link_latency;
    rcfg.window = plan.reliability.window;
    rcfg.rto = plan.reliability.retx_timeout;
    rcfg.backoff_cap = plan.reliability.backoff_cap;
    rcfg.retry_budget = plan.reliability.retry_budget;
    // A failover event scheduled mid-epoch must land at or after the next
    // barrier; clamping the delay to latency + 1 (>= every epoch length this
    // fabric's links allow) and capping epochs at the delay guarantees it.
    failover_delay_ =
        std::max<sim::Cycle>(plan.reliability.failover_delay,
                             config_.link_latency + 1);
    if (plan.reliability.retry_budget != 0) {
      engine.ConstrainEpochLength(failover_delay_);
    }
  }
  for (const auto& [a, b] : topology_.Connections()) {
    // Hybrid-fidelity selection (see sim/fidelity.h) is per *cable*: a cable
    // with an active fault spec on either direction keeps the cycle-accurate
    // reliable build for both (injected faults are always timed exactly, and
    // failover recovers both directions through the reliable interface);
    // under a fault plan a fully clean cable trades the reliability framing
    // for the flow model — clean go-back-N runs at line rate with the same
    // pipeline latency (plus one buffering cycle), so the substitution stays
    // inside the flow model's error budget.
    const sim::FidelityPolicy& fidelity = engine.config().fidelity;
    bool cable_fault_pinned = false;
    if (plan.enabled && fidelity.enabled()) {
      for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        if (plan.SpecFor(
                    fault::DirectedKey(from.rank, from.port, to.rank, to.port),
                    fault::CableKey(a.rank, a.port, b.rank, b.port))
                .Active()) {
          cable_fault_pinned = true;
        }
      }
    }
    // Two directed links per cable, each with its own interface FIFOs. The
    // TX FIFO is written by the sending rank's CKS, the RX FIFO read by the
    // receiving rank's CKR, so the only entity spanning ranks is the link
    // itself: registered as a cut component so the parallel scheduler can
    // split it at the partition boundary (its pipeline latency is the
    // lookahead window).
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      engine.SetPartitionTag(from.rank);
      PacketFifo& tx = engine.MakeFifo<net::Packet>(
          FifoName("cks->net", from.rank, from.port), config_.net_fifo_depth);
      engine.SetPartitionTag(to.rank);
      PacketFifo& rx = engine.MakeFifo<net::Packet>(
          FifoName("net->ckr", to.rank, to.port), config_.net_fifo_depth);
      ranks_[static_cast<std::size_t>(from.rank)]
          .cks[static_cast<std::size_t>(from.port)]
          ->SetNetworkOutput(tx);
      ranks_[static_cast<std::size_t>(to.rank)]
          .ckr[static_cast<std::size_t>(to.port)]
          ->AddInput(rx);
      engine.SetPartitionTag(from.rank);
      const std::string link_name =
          "link." + std::to_string(from.rank) + ":" +
          std::to_string(from.port) + "->" + std::to_string(to.rank) + ":" +
          std::to_string(to.port);
      const std::size_t link_index = link_recs_.size();
      LinkRec rec;
      rec.from = from;
      rec.to = to;
      rec.tx = &tx;
      if (plan.enabled && (!fidelity.enabled() || cable_fault_pinned)) {
        sim::ReliableLink<net::Packet>& link =
            engine.MakeComponent<sim::ReliableLink<net::Packet>>(
                link_name, tx, rx, rcfg);
        engine.MarkCutComponent(link, link, from.rank, to.rank);
        const fault::LinkFaultSpec& spec = plan.SpecFor(
            fault::DirectedKey(from.rank, from.port, to.rank, to.port),
            fault::CableKey(a.rank, a.port, b.rank, b.port));
        if (spec.Active()) {
          fault_models_.emplace_back(spec, plan.seed, link_name);
          link.set_fault_hook(&fault_models_.back());
        }
        if (plan.reliability.retry_budget != 0) {
          link.set_death_sink(this, link_index);
        }
        rec.link = rec.rlink = &link;
      } else {
        sim::FlowLink<net::Packet>& link =
            engine.MakeComponent<sim::FlowLink<net::Packet>>(
                engine, link_name, tx, rx, config_.link_latency, fidelity);
        engine.MarkCutComponent(link, link, from.rank, to.rank);
        rec.link = &link;
      }
      link_recs_.push_back(rec);
    }
  }
}

template <class T>
const T* Fabric::Find(int rank, int port,
                      std::vector<T> Rank::*table) const {
  if (rank < 0 || rank >= num_ranks() || port < 0) return nullptr;
  const std::vector<T>& entries = ranks_[static_cast<std::size_t>(rank)].*table;
  return static_cast<std::size_t>(port) < entries.size()
             ? &entries[static_cast<std::size_t>(port)]
             : nullptr;
}

PacketFifo& Fabric::SendEndpoint(int rank, int port) {
  const Endpoint* ep = Find(rank, port, &Rank::endpoints);
  if (ep == nullptr || ep->send == nullptr) {
    ThrowMissing("send endpoint", rank, port);
  }
  return *ep->send;
}

PacketFifo& Fabric::RecvEndpoint(int rank, int port) {
  const Endpoint* ep = Find(rank, port, &Rank::endpoints);
  if (ep == nullptr || ep->recv == nullptr) {
    ThrowMissing("recv endpoint", rank, port);
  }
  return *ep->recv;
}

const Cks& Fabric::cks(int rank, int port) const {
  Cks* const* ck = Find(rank, port, &Rank::cks);
  if (ck == nullptr || *ck == nullptr) ThrowMissing("CKS", rank, port);
  return **ck;
}

const Ckr& Fabric::ckr(int rank, int port) const {
  Ckr* const* ck = Find(rank, port, &Rank::ckr);
  if (ck == nullptr || *ck == nullptr) ThrowMissing("CKR", rank, port);
  return **ck;
}

void Fabric::UploadRoutes(const net::RoutingTable& routes) {
  const int ranks = num_ranks();
  if (routes.num_ranks() != ranks) {
    throw ConfigError("routing table rank count does not match fabric");
  }
  // Validate every entry against the wiring *before* replacing the table,
  // so a corrupt table is rejected whole instead of half-uploaded and
  // diagnosed here instead of mid-run inside Cks::Route.
  for (int r = 0; r < ranks; ++r) {
    for (int d = 0; d < ranks; ++d) {
      if (r == d) continue;
      const int q = routes.next_port(r, d);
      if (q < 0 || q >= ports_per_rank()) {
        throw ConfigError("routing table entry (" + std::to_string(r) + ", " +
                          std::to_string(d) + ") uses out-of-range port " +
                          std::to_string(q));
      }
      if (!topology_.Peer(net::PortId{r, q})) {
        throw ConfigError("routing table entry (" + std::to_string(r) + ", " +
                          std::to_string(d) + ") uses unwired network port " +
                          std::to_string(q) + " of rank " + std::to_string(r));
      }
    }
  }
  *routes_ = routes;
}

void Fabric::UploadHandlers(const std::vector<HandlerTable>& tables) {
  if (tables.size() != ranks_.size()) {
    throw ConfigError("need one handler table per rank");
  }
  // Validate every table before replacing any, like UploadRoutes.
  for (const HandlerTable& table : tables) table.Validate(num_ranks());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r].handlers = tables[r];
    for (Cks* cks : ranks_[r].cks) {
      if (cks != nullptr) cks->ResetFilterPhase();
    }
  }
}

std::uint64_t Fabric::TotalLinkPackets() const {
  std::uint64_t total = 0;
  for (const LinkRec& rec : link_recs_) total += rec.link->delivered();
  return total;
}

void Fabric::OnLinkDead(std::size_t link_id, sim::Cycle now) {
  // Called from a link's StepTx, possibly on a worker thread mid-epoch. All
  // fabric mutation is deferred into a global event so it runs
  // single-threaded at the top of a cycle; `link_id` orders same-cycle
  // deaths deterministically regardless of reporting thread order.
  engine_->ScheduleGlobalEvent(
      now + failover_delay_, link_id, [this, link_id, now](sim::Cycle at) {
        ExecuteFailover(link_id, now, at);
      });
}

void Fabric::ExecuteFailover(std::size_t link_id, sim::Cycle death_cycle,
                             sim::Cycle now) {
  const LinkRec& dead_rec = link_recs_[link_id];
  // The final-epoch trim can resurrect a death that happened after the
  // completion cycle; the scheduled event still fires on a later run and
  // must then do nothing. Likewise a cable whose other direction already
  // triggered the failover, which removed it from the topology.
  if (dead_rec.rlink == nullptr || !dead_rec.rlink->dead()) return;
  const std::size_t fwd = link_id & ~std::size_t{1};  // see LinkRec
  const net::PortId a = link_recs_[fwd].from;
  const net::PortId b = link_recs_[fwd].to;
  if (!topology_.Peer(a)) return;
  const std::string cable_key =
      fault::CableKey(a.rank, a.port, b.rank, b.port);

  // Recompute deadlock-free routes over the surviving cables and re-upload
  // through the validating path. A disconnected survivor graph is
  // unrecoverable: report it as a routing failure at the failover cycle.
  net::Topology survivors(num_ranks(), ports_per_rank());
  for (const auto& [x, y] : topology_.Connections()) {
    if (!(x == a)) survivors.Connect(x, y);
  }
  for (int r = 0; r < num_ranks(); ++r) {
    if (topology_.is_switch(r)) survivors.MarkSwitch(r);
  }
  if (!survivors.IsConnected()) {
    throw RoutingError("link failover: cable " + cable_key +
                       " died at cycle " + std::to_string(death_cycle) +
                       " and the surviving cables leave the cluster "
                       "disconnected");
  }
  topology_ = std::move(survivors);
  UploadRoutes(net::ComputeRoutes(topology_, net::RoutingScheme::kAuto));
  // A CKS sleeping on a stalled packet retries it with the new table this
  // cycle, as per-cycle stepping would.
  for (const Rank& rank : ranks_) {
    for (Cks* cks : rank.cks) {
      if (cks != nullptr) engine_->WakeComponentAt(*cks, now);
    }
  }

  // Both directions freeze. Recover each direction's undelivered stream —
  // receiver-buffered frames, unacked window frames, then the packets still
  // queued in the CKS-side net FIFO — and re-queue it, in order, into the
  // sending CKS for routing over the new tables. Lower link index first so
  // the order is a pure function of the fabric, not of the reporting race.
  std::uint64_t recovered_total = 0;
  for (const std::size_t id : {fwd, fwd + 1}) {
    LinkRec& rec = link_recs_[id];
    std::vector<net::Packet> recovered = rec.rlink->TakeUndelivered();
    std::vector<net::Packet> queued = rec.tx->DrainAll(now);
    recovered.insert(recovered.end(), queued.begin(), queued.end());
    rec.rlink->Quiesce();
    recovered_total += recovered.size();
    Cks* sender = ranks_[static_cast<std::size_t>(rec.from.rank)]
                      .cks[static_cast<std::size_t>(rec.from.port)];
    sender->InjectRecovered(std::move(recovered));
    engine_->WakeComponentAt(*sender, now);
  }
  failovers_.push_back(
      FailoverRecord{cable_key, death_cycle, now, recovered_total});
}

json::Value Fabric::FaultsJson() const {
  if (!config_.fault.enabled) return json::Value();
  using Counter = std::uint64_t obs::ReliabilityCounters::*;
  static const std::pair<const char*, Counter> kCounters[] = {
      {"frames_sent", &obs::ReliabilityCounters::frames_sent},
      {"retransmits", &obs::ReliabilityCounters::retransmits},
      {"timeouts", &obs::ReliabilityCounters::timeouts},
      {"wire_drops", &obs::ReliabilityCounters::wire_drops},
      {"wire_corruptions", &obs::ReliabilityCounters::wire_corruptions},
      {"checksum_failures", &obs::ReliabilityCounters::checksum_failures},
      {"seq_discards", &obs::ReliabilityCounters::seq_discards},
      {"acks_sent", &obs::ReliabilityCounters::acks_sent},
      {"acks_dropped", &obs::ReliabilityCounters::acks_dropped},
      {"delivered", &obs::ReliabilityCounters::delivered},
      {"recovered", &obs::ReliabilityCounters::recovered},
  };
  json::Object o;
  o["enabled"] = true;
  o["seed"] = config_.fault.seed;
  json::Array links;
  obs::ReliabilityCounters totals;
  for (const LinkRec& rec : link_recs_) {
    if (rec.rlink == nullptr) continue;
    const obs::ReliabilityCounters& s = rec.rlink->stats();
    json::Object row;
    row["link"] = fault::DirectedKey(rec.from.rank, rec.from.port,
                                     rec.to.rank, rec.to.port);
    row["dead"] = rec.rlink->dead();
    for (const auto& [name, counter] : kCounters) {
      row[name] = s.*counter;
      totals.*counter += s.*counter;
    }
    links.push_back(std::move(row));
  }
  o["links"] = std::move(links);
  json::Array fos;
  for (const FailoverRecord& fo : failovers_) {
    json::Object row;
    row["cable"] = fo.cable;
    row["death_cycle"] = fo.death_cycle;
    row["failover_cycle"] = fo.failover_cycle;
    row["recovered"] = fo.recovered;
    fos.push_back(std::move(row));
  }
  o["failovers"] = std::move(fos);
  json::Object tot;
  for (const auto& [name, counter] : kCounters) tot[name] = totals.*counter;
  o["totals"] = std::move(tot);
  return o;
}

json::Value Fabric::FidelityJson() const {
  const sim::FidelityPolicy& fidelity = engine_->config().fidelity;
  if (!fidelity.enabled()) return json::Value();
  const std::vector<sim::FlowLinkControl*>& flow = engine_->flow_links();
  const std::vector<const sim::FlowLinkControl*> links(flow.begin(),
                                                       flow.end());
  json::Array pinned;
  for (const LinkRec& rec : link_recs_) {
    if (rec.rlink != nullptr) {  // fault-pinned: see LinkRec
      pinned.push_back(std::string(fault::DirectedKey(
          rec.from.rank, rec.from.port, rec.to.rank, rec.to.port)));
    }
  }
  json::Value report = sim::FidelityReportJson(fidelity.mode, links);
  report.as_object()["fault_pinned_links"] = std::move(pinned);
  return report;
}

}  // namespace smi::transport
