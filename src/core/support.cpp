#include "core/support.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/error.h"
#include "core/coll_tree.h"
#include "core/support_internal.h"
#include "sim/engine.h"

namespace smi::core {

using net::OpType;
using net::Packet;
using sim::Cycle;
using sim::Kernel;
using sim::NextCycle;
using sim::fifo_pop;
using sim::fifo_push;

CollConfig GetConfig(CollToken&& tok, const char* kernel) {
  if (!std::holds_alternative<CollConfig>(tok)) {
    throw ConfigError(std::string(kernel) +
                      ": expected a channel-open config token, got a data "
                      "element (did the application open the channel?)");
  }
  return std::get<CollConfig>(std::move(tok));
}

Element GetElement(CollToken&& tok, const char* kernel) {
  if (!std::holds_alternative<Element>(tok)) {
    throw ConfigError(std::string(kernel) +
                      ": expected a data element, got a config token (message "
                      "shorter than the declared count?)");
  }
  return std::get<Element>(tok);
}

int MyCommRank(const CollConfig& cfg, int my_global, const char* kernel) {
  for (std::size_t i = 0; i < cfg.comm_global.size(); ++i) {
    if (cfg.comm_global[i] == my_global) return static_cast<int>(i);
  }
  throw ConfigError(std::string(kernel) + ": rank " +
                    std::to_string(my_global) +
                    " is not a member of the collective's communicator");
}

Packet MakeSync(const SupportCtx& ctx, int dst_global, OpType op) {
  Packet p;
  p.hdr.src = static_cast<std::uint16_t>(ctx.my_global);
  p.hdr.dst = static_cast<std::uint16_t>(dst_global);
  p.hdr.port = static_cast<std::uint8_t>(ctx.port);
  p.hdr.op = op;
  return p;
}

void NotifyCollectiveSyncPoint(const SupportCtx& ctx) {
  if (ctx.engine != nullptr) ctx.engine->FidelitySyncPoint();
}

const char* CollKindName(CollKind k) {
  switch (k) {
    case CollKind::kBcast: return "Bcast";
    case CollKind::kReduce: return "Reduce";
    case CollKind::kScatter: return "Scatter";
    case CollKind::kGather: return "Gather";
    case CollKind::kAllreduce: return "Allreduce";
  }
  return "?";
}

const char* CollAlgoName(CollAlgo algo) {
  switch (algo) {
    case CollAlgo::kLinear: return "linear";
    case CollAlgo::kTree: return "tree";
    case CollAlgo::kInnet: return "innet";
  }
  return "?";
}

CollAlgo ParseCollAlgo(const std::string& name) {
  for (const CollAlgo algo :
       {CollAlgo::kLinear, CollAlgo::kTree, CollAlgo::kInnet}) {
    if (name == CollAlgoName(algo)) return algo;
  }
  throw ParseError("unknown collective algo: " + name);
}

void CheckCollAlgo(CollKind kind, CollAlgo algo) {
  const bool ok = algo == CollAlgo::kLinear ||
                  (algo == CollAlgo::kTree && kind != CollKind::kScatter &&
                   kind != CollKind::kGather) ||
                  (algo == CollAlgo::kInnet && kind == CollKind::kReduce);
  if (!ok) {
    throw ConfigError(std::string("no ") + CollAlgoName(algo) + " " +
                      CollKindName(kind) + " support kernel exists");
  }
}

namespace {

void PackElement(Packet& pkt, int index, const Element& e, std::size_t size) {
  pkt.StoreBytes(static_cast<std::size_t>(index) * size, e.bytes.data(), size);
}

Element UnpackElement(const Packet& pkt, int index, std::size_t size) {
  Element e;
  pkt.LoadBytes(static_cast<std::size_t>(index) * size, e.bytes.data(), size);
  return e;
}

// ---------------------------------------------------------------------------
// Bcast (§4.4) over a tree shape: every non-root sends READY to its parent;
// a node streams to its children only after each child's READY (one-to-all
// rendezvous, which keeps successive opens on the port from mixing). The
// root packs the application's elements; every other node delivers each
// packet from its parent to its application and forwards it to its own
// children. The flat shape is the paper's linear scheme.
// ---------------------------------------------------------------------------
Kernel Bcast(SupportCtx ctx, CollAlgo algo) {
  std::map<int, int> readies;  // per-source pending READY count
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "BcastSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const TreeShape shape = MakeTreeShape(
        algo, cfg, MyCommRank(cfg, ctx.my_global, "BcastSupport"));
    const int epp = static_cast<int>(ElementsPerPacket(cfg.type));
    const std::size_t esz = SizeOf(cfg.type);

    // Non-roots announce readiness to their parent before any data moves.
    if (shape.parent >= 0) {
      co_await fifo_push(*ctx.net_out,
                         MakeSync(ctx, shape.parent, OpType::kSync));
    }
    // Collect READYs from all children (any arrival order; an early READY
    // for the next open stays counted for it).
    for (const int g : shape.children) {
      while (readies[g] == 0) {
        const Packet p = co_await fifo_pop(*ctx.net_in);
        if (p.hdr.op != OpType::kSync) {
          throw ConfigError("BcastSupport: unexpected packet during "
                            "rendezvous: " + p.DebugString());
        }
        ++readies[p.hdr.src];
      }
      --readies[g];
    }

    int done = 0;
    while (done < cfg.count) {
      Packet data = MakeSync(ctx, ctx.my_global, OpType::kData);
      if (shape.parent < 0) {
        // Root: assemble the packet from the application's elements.
        const int chunk = std::min(epp, cfg.count - done);
        for (int e = 0; e < chunk; ++e) {
          PackElement(data, e,
                      GetElement(co_await fifo_pop(*ctx.app_in),
                                 "BcastSupport"),
                      esz);
        }
        data.hdr.count = static_cast<std::uint8_t>(chunk);
      } else {
        // Receive from the parent and deliver locally.
        data = co_await fifo_pop(*ctx.net_in);
        if (data.hdr.op != OpType::kData) {
          throw ConfigError("BcastSupport: unexpected packet: " +
                            data.DebugString());
        }
        for (int e = 0; e < data.hdr.count; ++e) {
          co_await fifo_push(*ctx.app_out,
                             CollToken(UnpackElement(data, e, esz)));
        }
      }
      // Forward to every child.
      data.hdr.src = static_cast<std::uint16_t>(ctx.my_global);
      for (const int g : shape.children) {
        data.hdr.dst = static_cast<std::uint16_t>(g);
        co_await fifo_push(*ctx.net_out, data);
      }
      done += data.hdr.count;
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Reduce (§4.4) over a tree shape, with credit-based flow control in tiles
// of C elements on every edge. The root and every inner node fold their own
// application stream with their children's partials into a C-deep window —
// in arrival order, legal because the supported operations are associative
// and commutative. An inner node forwards each completed element to its
// parent inside the parent's credits; the root emits it to its application
// element-wise (so the root application's push/pop loop cannot deadlock).
// Once every element of a tile is out, the node credits its children with
// the next tile; tile 0 is implicitly granted at open.
//
// A leaf of the flat shape (the paper's linear scheme) has nothing to fold
// and streams its application elements straight to the root, one tile per
// credit, parking on FIFO waits. Sending it through the fold loop instead,
// which polls every cycle, makes linear Reduce 0.08-0.22 % slower. Binomial
// leaves stay in the fold loop; streaming them keeps every cycle count but
// changes the kernel resume counts the benchmark baseline pins (DESIGN §9).
// ---------------------------------------------------------------------------
Kernel Reduce(SupportCtx ctx, CollAlgo algo) {
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "ReduceSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const TreeShape shape = MakeTreeShape(
        algo, cfg, MyCommRank(cfg, ctx.my_global, "ReduceSupport"));
    const int epp = static_cast<int>(ElementsPerPacket(cfg.type));
    const std::size_t esz = SizeOf(cfg.type);
    const int C = std::max(1, cfg.credits);

    if (cfg.count == 0) continue;

    if (algo == CollAlgo::kLinear && shape.parent >= 0) {
      int sent = 0;
      for (int tile = 0; sent < cfg.count; ++tile) {
        if (tile > 0) {
          const Packet credit = co_await fifo_pop(*ctx.net_in);
          if (credit.hdr.op != OpType::kCredit) {
            throw ConfigError("ReduceSupport: expected a credit, got " +
                              credit.DebugString());
          }
        }
        const int tile_end = std::min(cfg.count, (tile + 1) * C);
        while (sent < tile_end) {
          const int chunk = std::min(epp, tile_end - sent);
          Packet data = MakeSync(ctx, shape.parent, OpType::kData);
          for (int e = 0; e < chunk; ++e) {
            PackElement(data, e,
                        GetElement(co_await fifo_pop(*ctx.app_in),
                                   "ReduceSupport"),
                        esz);
          }
          data.hdr.count = static_cast<std::uint8_t>(chunk);
          co_await fifo_push(*ctx.net_out, data);
          sent += chunk;
        }
      }
      NotifyCollectiveSyncPoint(ctx);  // channel close
      continue;
    }

    const int sources = 1 + static_cast<int>(shape.children.size());
    std::vector<Element> accum(static_cast<std::size_t>(C),
                               ReduceIdentity(cfg.op, cfg.type));
    std::vector<int> contrib(static_cast<std::size_t>(C), 0);
    std::map<int, int> child_next;  // per child global rank: next element
    for (const int g : shape.children) child_next[g] = 0;
    int local_next = 0;
    int emitted = 0;            // elements delivered to app (root) or parent
    int granted_tiles = 1;      // credits granted to children
    int parent_credits = 1;     // credits received from the parent
    std::vector<int> pending_credits;  // child global ranks to credit
    Packet out = MakeSync(ctx, std::max(0, shape.parent), OpType::kData);
    int out_fill = 0;

    while (emitted < cfg.count) {
      const Cycle now = *ctx.now;
      // (1) Emit the next completed element.
      if (contrib[static_cast<std::size_t>(emitted % C)] == sources) {
        bool advanced = false;
        const std::size_t slot = static_cast<std::size_t>(emitted % C);
        if (shape.parent < 0) {
          if (ctx.app_out->CanPush(now)) {
            ctx.app_out->Push(CollToken(accum[slot]), now);
            advanced = true;
          }
        } else if (emitted < parent_credits * C) {
          // Stage into the outgoing packet; flush on full packet, tile
          // boundary or message end.
          PackElement(out, out_fill, accum[slot], esz);
          ++out_fill;
          const bool flush = out_fill == epp || (emitted + 1) % C == 0 ||
                             emitted + 1 == cfg.count;
          if (!flush) {
            advanced = true;
          } else if (ctx.net_out->CanPush(now)) {
            out.hdr.count = static_cast<std::uint8_t>(out_fill);
            ctx.net_out->Push(out, now);
            out_fill = 0;
            advanced = true;
          } else {
            --out_fill;  // retry next cycle
          }
        }
        if (advanced) {
          accum[slot] = ReduceIdentity(cfg.op, cfg.type);
          contrib[slot] = 0;
          ++emitted;
          if (emitted % C == 0 && granted_tiles * C < cfg.count) {
            ++granted_tiles;
            pending_credits.insert(pending_credits.end(),
                                   shape.children.begin(),
                                   shape.children.end());
          }
        }
      }
      // (2) Fold one local element within the window.
      if (local_next < cfg.count && local_next < emitted + C &&
          ctx.app_in->CanPop(now)) {
        const Element e = GetElement(ctx.app_in->Pop(now), "ReduceSupport");
        const std::size_t slot = static_cast<std::size_t>(local_next % C);
        accum[slot] = ApplyReduceOp(cfg.op, cfg.type, accum[slot], e);
        ++contrib[slot];
        ++local_next;
      }
      // (3) Fold one incoming packet (child partials or parent credit).
      if (ctx.net_in->CanPop(now)) {
        const Packet p = ctx.net_in->Pop(now);
        if (p.hdr.op == OpType::kCredit) {
          ++parent_credits;
        } else if (p.hdr.op == OpType::kData) {
          const auto it = child_next.find(p.hdr.src);
          if (it == child_next.end()) {
            throw ConfigError("ReduceSupport: data from a non-child: " +
                              p.DebugString());
          }
          for (int e = 0; e < p.hdr.count; ++e) {
            const int idx = it->second++;
            if (idx >= granted_tiles * C) {
              throw ConfigError(
                  "ReduceSupport: child exceeded its credit window");
            }
            const std::size_t slot = static_cast<std::size_t>(idx % C);
            accum[slot] = ApplyReduceOp(cfg.op, cfg.type, accum[slot],
                                        UnpackElement(p, e, esz));
            ++contrib[slot];
          }
        } else {
          throw ConfigError("ReduceSupport: unexpected packet: " +
                            p.DebugString());
        }
      }
      // (4) Send one pending credit to a child.
      if (!pending_credits.empty() && ctx.net_out->CanPush(now)) {
        ctx.net_out->Push(
            MakeSync(ctx, pending_credits.back(), OpType::kCredit), now);
        pending_credits.pop_back();
      }
      // NextCycle keeps the default poll-every-cycle wake hint, so the
      // event-driven engine polls this multi-FIFO loop each cycle exactly
      // like the synchronous one — but only while a reduce is in flight;
      // between collectives the kernel parks on the app_in pop above.
      co_await NextCycle{};
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Scatter (§4.4, Fig. 5 left): the root serves communicator ranks in order;
// each non-root announces readiness with a READY sync, after which the root
// streams that rank's `count` elements. The root's own segment is looped
// back locally, element by element.
// ---------------------------------------------------------------------------
Kernel Scatter(SupportCtx ctx) {
  std::map<int, int> readies;  // per-source pending READY count
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "ScatterSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const int n = static_cast<int>(cfg.comm_global.size());
    const int me = MyCommRank(cfg, ctx.my_global, "ScatterSupport");
    const int epp = static_cast<int>(ElementsPerPacket(cfg.type));
    const std::size_t esz = SizeOf(cfg.type);

    if (me == cfg.root_comm) {
      for (int r = 0; r < n; ++r) {
        if (r == cfg.root_comm) {
          // Loop the root's own segment back to its application.
          for (int c = 0; c < cfg.count; ++c) {
            const Element e =
                GetElement(co_await fifo_pop(*ctx.app_in), "ScatterSupport");
            co_await fifo_push(*ctx.app_out, CollToken(e));
          }
          continue;
        }
        const int g = cfg.comm_global[static_cast<std::size_t>(r)];
        while (readies[g] == 0) {
          const Packet p = co_await fifo_pop(*ctx.net_in);
          if (p.hdr.op != OpType::kSync) {
            throw ConfigError("ScatterSupport: unexpected packet during "
                              "rendezvous: " + p.DebugString());
          }
          ++readies[p.hdr.src];
        }
        --readies[g];
        int sent = 0;
        while (sent < cfg.count) {
          const int chunk = std::min(epp, cfg.count - sent);
          Packet data = MakeSync(ctx, g, OpType::kData);
          for (int e = 0; e < chunk; ++e) {
            PackElement(data, e,
                        GetElement(co_await fifo_pop(*ctx.app_in),
                                   "ScatterSupport"),
                        esz);
          }
          data.hdr.count = static_cast<std::uint8_t>(chunk);
          co_await fifo_push(*ctx.net_out, data);
          sent += chunk;
        }
      }
    } else {
      co_await fifo_push(
          *ctx.net_out,
          MakeSync(ctx, cfg.comm_global[static_cast<std::size_t>(cfg.root_comm)],
                   OpType::kSync));
      int received = 0;
      while (received < cfg.count) {
        const Packet p = co_await fifo_pop(*ctx.net_in);
        if (p.hdr.op != OpType::kData) {
          throw ConfigError("ScatterSupport: unexpected packet: " +
                            p.DebugString());
        }
        for (int e = 0; e < p.hdr.count; ++e) {
          co_await fifo_push(*ctx.app_out, CollToken(UnpackElement(p, e, esz)));
          ++received;
        }
      }
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Gather (§4.4, Fig. 5 left, reversed): the root grants senders in
// communicator rank order, which guarantees data arrives in an order that
// can be streamed to the application without reordering buffers.
// ---------------------------------------------------------------------------
Kernel Gather(SupportCtx ctx) {
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "GatherSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const int n = static_cast<int>(cfg.comm_global.size());
    const int me = MyCommRank(cfg, ctx.my_global, "GatherSupport");
    const std::size_t esz = SizeOf(cfg.type);
    const int epp = static_cast<int>(ElementsPerPacket(cfg.type));

    if (me == cfg.root_comm) {
      for (int r = 0; r < n; ++r) {
        if (r == cfg.root_comm) {
          for (int c = 0; c < cfg.count; ++c) {
            const Element e =
                GetElement(co_await fifo_pop(*ctx.app_in), "GatherSupport");
            co_await fifo_push(*ctx.app_out, CollToken(e));
          }
          continue;
        }
        const int g = cfg.comm_global[static_cast<std::size_t>(r)];
        co_await fifo_push(*ctx.net_out, MakeSync(ctx, g, OpType::kSync));
        int received = 0;
        while (received < cfg.count) {
          const Packet p = co_await fifo_pop(*ctx.net_in);
          if (p.hdr.op != OpType::kData || p.hdr.src != g) {
            throw ConfigError("GatherSupport: unexpected packet: " +
                              p.DebugString());
          }
          for (int e = 0; e < p.hdr.count; ++e) {
            co_await fifo_push(*ctx.app_out,
                               CollToken(UnpackElement(p, e, esz)));
            ++received;
          }
        }
      }
    } else {
      const Packet grant = co_await fifo_pop(*ctx.net_in);
      if (grant.hdr.op != OpType::kSync) {
        throw ConfigError("GatherSupport: expected a grant, got " +
                          grant.DebugString());
      }
      const int root_global =
          cfg.comm_global[static_cast<std::size_t>(cfg.root_comm)];
      int sent = 0;
      while (sent < cfg.count) {
        const int chunk = std::min(epp, cfg.count - sent);
        Packet data = MakeSync(ctx, root_global, OpType::kData);
        for (int e = 0; e < chunk; ++e) {
          PackElement(data, e,
                      GetElement(co_await fifo_pop(*ctx.app_in),
                                 "GatherSupport"),
                      esz);
        }
        data.hdr.count = static_cast<std::uint8_t>(chunk);
        co_await fifo_push(*ctx.net_out, data);
        sent += chunk;
      }
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

// ---------------------------------------------------------------------------
// Allreduce: the reduce-then-broadcast composition on a single collective
// port (§4.4 names composition of the existing support kernels as the path
// to further collectives), over the same tree shapes as Bcast and Reduce.
// One kernel instance carries both phases:
//
//  * Up phase — the Reduce protocol: every node folds its application
//    stream with its children's partials in a C-deep window and forwards
//    completed elements to its parent, tile by tile under per-edge credit
//    flow control. Unlike Reduce, *all* credits are explicit (including
//    tile 0): a parent grants tile 0 when it enters the open, so a fast
//    child can never push data from open k+1 into a parent still folding
//    open k.
//  * Down phase — the root's completed results double as the broadcast
//    payload: each result is delivered to the local application and
//    forwarded down the same tree, one child per cycle. Elements travel
//    one per packet in both phases because the Allreduce channel is a
//    per-element request/response rendezvous (see the in-loop comments).
//    No READY rendezvous is needed: a down packet for open k can only
//    exist after every rank contributed to open k, which implies every
//    rank has entered open k.
//
// Credits that arrive while a node is still draining the previous open's
// down phase are banked in a ledger keyed by the granting rank (the role
// the READY count plays for Bcast/Scatter) and consumed when the next open
// needs them.
// ---------------------------------------------------------------------------
Kernel Allreduce(SupportCtx ctx, CollAlgo algo) {
  // Credits banked across opens, keyed by the granting (parent) global
  // rank. Grants for open k+1 can arrive while this node still drains open
  // k's down phase; totals per edge balance exactly (ceil(count/C) grants
  // granted and consumed per open), so nothing leaks between parents.
  std::map<int, int> credit_ledger;
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "AllreduceSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const TreeShape shape = MakeTreeShape(
        algo, cfg, MyCommRank(cfg, ctx.my_global, "AllreduceSupport"));
    const bool is_root = shape.parent < 0;
    const std::size_t esz = SizeOf(cfg.type);
    const int C = std::max(1, cfg.credits);
    const int sources = 1 + static_cast<int>(shape.children.size());

    if (cfg.count == 0) continue;

    // --- Up phase (reduce toward the root) ---
    std::vector<Element> accum(static_cast<std::size_t>(C),
                               ReduceIdentity(cfg.op, cfg.type));
    std::vector<int> contrib(static_cast<std::size_t>(C), 0);
    std::map<int, int> child_next;  // per child global rank: next element
    for (const int g : shape.children) child_next[g] = 0;
    int local_next = 0;
    int up_done = 0;        // elements fully folded and dispatched upward
                            // (at the root: delivered + staged downward)
    int granted_tiles = 1;  // tiles granted to children (tile 0 below)
    int parent_tiles = 0;   // tiles of parent credit consumed this open
    std::vector<int> pending_credits = shape.children;  // tile-0 grant
    Packet up_pkt = MakeSync(ctx, std::max(0, shape.parent), OpType::kData);

    // --- Down phase (result broadcast from the root) ---
    int delivered = 0;  // result elements pushed to the application
    Packet down_pkt = MakeSync(ctx, 0, OpType::kData);  // root result staging
    std::vector<int> fwd_pending;  // children still owed the current packet
    Packet cur_down;               // non-root: packet being delivered
    int deliver_idx = 0;
    bool have_down = false;

    while (up_done < cfg.count || delivered < cfg.count ||
           !fwd_pending.empty() || have_down) {
      const Cycle now = *ctx.now;
      // (1) Advance the up phase: once every source contributed the next
      // element, it becomes a result (root) or flows to the parent under
      // credit flow control.
      if (up_done < cfg.count &&
          contrib[static_cast<std::size_t>(up_done % C)] == sources) {
        const std::size_t slot = static_cast<std::size_t>(up_done % C);
        bool advanced = false;
        if (is_root) {
          // The result is final: deliver locally and stage it into the down
          // packet, which must not still be in flight to the children.
          if (fwd_pending.empty() && ctx.app_out->CanPush(now)) {
            ctx.app_out->Push(CollToken(accum[slot]), now);
            ++delivered;
            if (!shape.children.empty()) {
              // Same per-element rendezvous constraint as the up phase: a
              // result held in a partially filled down packet would block
              // every non-root rank's pop of that result.
              PackElement(down_pkt, 0, accum[slot], esz);
              down_pkt.hdr.count = 1;
              fwd_pending = shape.children;
            }
            advanced = true;
          }
        } else {
          if (up_done >= parent_tiles * C &&
              credit_ledger[shape.parent] > 0) {
            --credit_ledger[shape.parent];
            ++parent_tiles;
          }
          if (up_done < parent_tiles * C &&
              ctx.net_out->CanPush(now)) {
            // One element per packet: the Allreduce channel is a per-element
            // request/response rendezvous (the application pushes element i
            // and blocks until result i returns), so holding element i in a
            // partially filled packet would stall the whole communicator.
            PackElement(up_pkt, 0, accum[slot], esz);
            up_pkt.hdr.count = 1;
            ctx.net_out->Push(up_pkt, now);
            advanced = true;
          }
        }
        if (advanced) {
          accum[slot] = ReduceIdentity(cfg.op, cfg.type);
          contrib[slot] = 0;
          ++up_done;
          if (up_done % C == 0 && granted_tiles * C < cfg.count) {
            ++granted_tiles;
            for (const int g : shape.children) pending_credits.push_back(g);
          }
        }
      }
      // (2) Fold one local element within the accumulation window.
      if (local_next < cfg.count && local_next < up_done + C &&
          ctx.app_in->CanPop(now)) {
        const Element e =
            GetElement(ctx.app_in->Pop(now), "AllreduceSupport");
        const std::size_t slot = static_cast<std::size_t>(local_next % C);
        accum[slot] = ApplyReduceOp(cfg.op, cfg.type, accum[slot], e);
        ++contrib[slot];
        ++local_next;
      }
      // (3) Classify one incoming packet: parent credit, parent down-data,
      // or child contribution. Held back while a down packet is still being
      // delivered, so down packets are consumed strictly in order.
      if (!have_down && ctx.net_in->CanPop(now)) {
        const Packet p = ctx.net_in->Pop(now);
        if (p.hdr.op == OpType::kCredit) {
          ++credit_ledger[p.hdr.src];
        } else if (p.hdr.op == OpType::kData && p.hdr.src == shape.parent) {
          cur_down = p;
          deliver_idx = 0;
          have_down = true;
          fwd_pending = shape.children;
        } else if (p.hdr.op == OpType::kData &&
                   child_next.count(p.hdr.src) != 0) {
          auto& next = child_next[p.hdr.src];
          for (int e = 0; e < p.hdr.count; ++e) {
            const int idx = next++;
            if (idx >= granted_tiles * C) {
              throw ConfigError(
                  "AllreduceSupport: child exceeded its credit window");
            }
            const std::size_t slot = static_cast<std::size_t>(idx % C);
            accum[slot] = ApplyReduceOp(cfg.op, cfg.type, accum[slot],
                                        UnpackElement(p, e, esz));
            ++contrib[slot];
          }
        } else {
          throw ConfigError("AllreduceSupport: unexpected packet: " +
                            p.DebugString());
        }
      }
      // (4) Deliver one element of the current down packet to the
      // application.
      if (have_down && deliver_idx < cur_down.hdr.count &&
          ctx.app_out->CanPush(now)) {
        ctx.app_out->Push(CollToken(UnpackElement(cur_down, deliver_idx, esz)),
                          now);
        ++deliver_idx;
        ++delivered;
      }
      // (5) Forward the staged/current down packet to one child per cycle.
      if (!fwd_pending.empty() && ctx.net_out->CanPush(now)) {
        Packet p = is_root ? down_pkt : cur_down;
        p.hdr.src = static_cast<std::uint16_t>(ctx.my_global);
        p.hdr.dst = static_cast<std::uint16_t>(fwd_pending.back());
        ctx.net_out->Push(p, now);
        fwd_pending.pop_back();
      }
      if (have_down && deliver_idx == cur_down.hdr.count &&
          fwd_pending.empty()) {
        have_down = false;
      }
      // (6) Send one pending credit to a child.
      if (!pending_credits.empty() && ctx.net_out->CanPush(now)) {
        ctx.net_out->Push(
            MakeSync(ctx, pending_credits.back(), OpType::kCredit), now);
        pending_credits.pop_back();
      }
      co_await NextCycle{};
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

}  // namespace

Kernel MakeSupportKernel(CollKind kind, CollAlgo algo, SupportCtx ctx) {
  if (algo == CollAlgo::kInnet) return InnetReduceSupportKernel(ctx);
  switch (kind) {
    case CollKind::kBcast: return Bcast(ctx, algo);
    case CollKind::kReduce: return Reduce(ctx, algo);
    case CollKind::kScatter: return Scatter(ctx);
    case CollKind::kGather: return Gather(ctx);
    case CollKind::kAllreduce: return Allreduce(ctx, algo);
  }
  throw ConfigError("unknown collective kind");
}

}  // namespace smi::core
