#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/innet.h"
#include "core/support_internal.h"

/// \file support_innet.cpp
/// The in-network Reduce support kernel (CollAlgo::kInnet) and the handler
/// plumbing it needs — see innet.h for the protocol overview.
///
/// Flow control: the root grants credit tiles exactly like the linear/tree
/// Reduce, but each grant is one self-addressed credit packet multicast down
/// the CKR fan-out tree instead of n-1 unicast sends. A final credit after
/// the last element doubles as a close barrier: a non-root leaves the open
/// only once the root has folded every contribution, so packets of
/// successive opens can never coexist in the network (and thus never meet in
/// a combine buffer; the envelope epoch is a second, independent guard).

namespace smi::core {
namespace {

using net::OpType;
using net::Packet;
using sim::Cycle;
using sim::Kernel;
using sim::NextCycle;
using sim::fifo_pop;
using sim::fifo_push;
using transport::InnetEnvelope;

/// Element accessors offset past the 8-byte envelope.
void PackInnetElement(Packet& pkt, int index, const Element& e,
                      std::size_t size) {
  pkt.StoreBytes(InnetEnvelope::kBytes + static_cast<std::size_t>(index) * size,
                 e.bytes.data(), size);
}

Element UnpackInnetElement(const Packet& pkt, int index, std::size_t size) {
  Element e;
  pkt.LoadBytes(InnetEnvelope::kBytes + static_cast<std::size_t>(index) * size,
                e.bytes.data(), size);
  return e;
}

/// The per-(op, type) packet-fold function injected into the transport. A
/// template over both enums so every instantiation is a captureless function
/// the handler table can hold as a plain pointer.
template <ReduceOp Op, DataType T>
void CombineInnetPackets(Packet& acc, const Packet& in) {
  constexpr std::size_t esz = SizeOf(T);
  for (int e = 0; e < acc.hdr.count; ++e) {
    PackInnetElement(acc, e,
                     ApplyReduceOp(Op, T, UnpackInnetElement(acc, e, esz),
                                   UnpackInnetElement(in, e, esz)),
                     esz);
  }
}

template <ReduceOp Op>
transport::HandlerEntry::CombineFn CombinerForType(DataType type) {
  switch (type) {
    case DataType::kChar: return &CombineInnetPackets<Op, DataType::kChar>;
    case DataType::kShort: return &CombineInnetPackets<Op, DataType::kShort>;
    case DataType::kInt: return &CombineInnetPackets<Op, DataType::kInt>;
    case DataType::kFloat: return &CombineInnetPackets<Op, DataType::kFloat>;
    case DataType::kDouble: return &CombineInnetPackets<Op, DataType::kDouble>;
  }
  throw ConfigError("MakeInnetCombiner: unknown datatype");
}

}  // namespace

transport::HandlerEntry::CombineFn MakeInnetCombiner(ReduceOp op,
                                                     DataType type) {
  switch (op) {
    case ReduceOp::kAdd: return CombinerForType<ReduceOp::kAdd>(type);
    case ReduceOp::kMax: return CombinerForType<ReduceOp::kMax>(type);
    case ReduceOp::kMin: return CombinerForType<ReduceOp::kMin>(type);
  }
  throw ConfigError("MakeInnetCombiner: unknown reduce op");
}

void AppendInnetHandlers(std::vector<transport::HandlerTable>& tables,
                         int port, ReduceOp op, DataType type, int hold_cycles,
                         const std::vector<int>& funnel_contribs,
                         const std::vector<std::vector<int>>& fan_children) {
  // Reduce-in-transit combining on every rank — transit hops (including
  // forwarding-only switches) are where contribution streams funnel. The
  // per-rank max_contribs is the rank's funnel in-degree (see innet.h): a
  // packet that has absorbed every stream converging at this egress departs
  // at once rather than idling out the hold window.
  transport::HandlerEntry combine;
  combine.cls = transport::HandlerClass::kReduceCombine;
  combine.port = port;
  combine.op = OpType::kData;
  combine.combine = MakeInnetCombiner(op, type);
  combine.hold_cycles = hold_cycles;
  for (std::size_t g = 0; g < tables.size(); ++g) {
    combine.max_contribs = std::max(1, funnel_contribs.at(g));
    tables[g].Add(combine);
  }

  // Credit fan-out: one entry per non-leaf of the grant fan tree, so the
  // root's one self-addressed grant reaches all n-1 ranks.
  for (std::size_t g = 0; g < tables.size(); ++g) {
    if (fan_children.at(g).empty()) continue;
    transport::HandlerEntry fan;
    fan.cls = transport::HandlerClass::kFanOut;
    fan.port = port;
    fan.op = OpType::kCredit;
    fan.fan_dsts = fan_children[g];
    tables[g].Add(std::move(fan));
  }
}

// ---------------------------------------------------------------------------
// The support kernel. Root: fold local + network contributions in a C-deep
// window, count contributions per element (the network may have merged the
// streams arbitrarily), emit on completion, multicast tile grants. Non-root:
// stream envelope packets straight to the root inside the granted window;
// the chunk boundaries are a pure function of (count, element size, C) so
// every rank's packet for a given base covers the same element range.
// ---------------------------------------------------------------------------
Kernel InnetReduceSupportKernel(SupportCtx ctx) {
  std::uint16_t epoch = 0;
  for (;;) {
    const CollConfig cfg =
        GetConfig(co_await fifo_pop(*ctx.app_in), "InnetReduceSupport");
    NotifyCollectiveSyncPoint(ctx);  // channel open
    const std::uint16_t my_epoch = epoch++;
    const int n = static_cast<int>(cfg.comm_global.size());
    const int me = MyCommRank(cfg, ctx.my_global, "InnetReduceSupport");
    const std::size_t esz = SizeOf(cfg.type);
    const int epp = static_cast<int>(InnetEnvelope::ElementsPerPacket(esz));
    const int C = std::max(1, cfg.credits);
    if (cfg.count == 0) continue;
    const int tiles = (cfg.count + C - 1) / C;

    if (me == cfg.root_comm) {
      // ---- root ----
      // The accumulation window covers the grant round-trip (fan-tree
      // descent + pacing + contribution travel, ~2*D*L_hop cycles) plus the
      // tile currently emitting — the bandwidth-delay product — so grants
      // stay far enough ahead of even the farthest rank that the round-trip
      // hides behind the streaming instead of stalling tile boundaries.
      const int win_tiles =
          tiles > 1 ? std::min(tiles, 2 + cfg.window_cycles / C) : 1;
      const int win = win_tiles * C;
      std::vector<Element> accum(static_cast<std::size_t>(win),
                                 ReduceIdentity(cfg.op, cfg.type));
      std::vector<int> contrib(static_cast<std::size_t>(win), 0);
      int local_next = 0;
      int emitted = 0;
      int granted = 1;          // tiles the non-roots may send
      int credits_to_send = 0;  // pending self-addressed grant multicasts
      while (emitted < cfg.count) {
        const Cycle now = *ctx.now;
        // (0) Widen the granted window whenever the accumulator has room
        // for a whole further tile (at most one grant per cycle; the first
        // fires immediately, pipelining tile 1 behind tile 0).
        if (granted < tiles && (granted + 1) * C <= emitted + win) {
          ++granted;
          if (n > 1) ++credits_to_send;
        }
        // (1) Emit the next completed element to the application.
        const std::size_t eslot = static_cast<std::size_t>(emitted % win);
        if (contrib[eslot] == n && ctx.app_out->CanPush(now)) {
          ctx.app_out->Push(CollToken(accum[eslot]), now);
          accum[eslot] = ReduceIdentity(cfg.op, cfg.type);
          contrib[eslot] = 0;
          ++emitted;
        }
        // (2) Fold one local element within the window.
        if (local_next < cfg.count && local_next < emitted + win &&
            ctx.app_in->CanPop(now)) {
          const Element e =
              GetElement(ctx.app_in->Pop(now), "InnetReduceSupport");
          const std::size_t slot = static_cast<std::size_t>(local_next % win);
          accum[slot] = ApplyReduceOp(cfg.op, cfg.type, accum[slot], e);
          ++contrib[slot];
          ++local_next;
        }
        // (3) Fold one incoming envelope packet.
        if (ctx.net_in->CanPop(now)) {
          const Packet p = ctx.net_in->Pop(now);
          if (p.hdr.op == OpType::kCredit) {
            // The local CKR delivers the root's own grant multicast back
            // here (the fan-out replicates it to the children): ignore.
          } else if (p.hdr.op == OpType::kData) {
            if (InnetEnvelope::Epoch(p) != my_epoch) {
              // The close barrier makes cross-open data unreachable; seeing
              // it means the protocol (or a handler) is broken.
              throw ConfigError(
                  "InnetReduceSupport: contribution from another channel "
                  "open: " + p.DebugString());
            }
            const int base = static_cast<int>(InnetEnvelope::Base(p));
            const int pc = InnetEnvelope::Contribs(p);
            for (int e = 0; e < p.hdr.count; ++e) {
              const int idx = base + e;
              if (idx >= cfg.count || idx >= granted * C) {
                throw ConfigError(
                    "InnetReduceSupport: contribution outside the granted "
                    "window: " + p.DebugString());
              }
              const std::size_t slot = static_cast<std::size_t>(idx % win);
              if (contrib[slot] + pc > n) {
                throw ConfigError(
                    "InnetReduceSupport: element folded more than once "
                    "per rank: " + p.DebugString());
              }
              accum[slot] = ApplyReduceOp(cfg.op, cfg.type, accum[slot],
                                          UnpackInnetElement(p, e, esz));
              contrib[slot] += pc;
            }
          } else {
            throw ConfigError("InnetReduceSupport: unexpected packet: " +
                              p.DebugString());
          }
        }
        // (4) Send one pending grant (the fan tree does the distribution).
        if (credits_to_send > 0 && ctx.net_out->CanPush(now)) {
          ctx.net_out->Push(MakeSync(ctx, ctx.my_global, OpType::kCredit),
                            now);
          --credits_to_send;
        }
        co_await sim::PollingCycle{[&] {
          const int have = contrib[static_cast<std::size_t>(emitted % win)];
          return "InnetReduceSupport: element " + std::to_string(emitted) +
                 (have == n ? std::string(" complete, awaiting its emit")
                            : " awaiting " + std::to_string(n - have) +
                                  " of " + std::to_string(n) +
                                  " contributions");
        }};
      }
      // Close barrier: one final credit multicast releases the non-roots
      // into their next open only after every contribution arrived here —
      // no packet of this open can still sit in a combine buffer when the
      // next open's traffic enters the network.
      if (n > 1) {
        co_await fifo_push(*ctx.net_out,
                           MakeSync(ctx, ctx.my_global, OpType::kCredit));
      }
    } else {
      // ---- non-root ----
      const int root_global =
          cfg.comm_global[static_cast<std::size_t>(cfg.root_comm)];
      int done = 0;      // elements sent
      int fill = 0;      // elements staged in `out`
      int credits = 0;   // grants + the final close-barrier credit
      bool flush_ready = false;
      Packet out = MakeSync(ctx, root_global, OpType::kData);
      // Per-tile pacing gates (see innet.h "stream pacing"): tile t may
      // start streaming pace_wait cycles after its grant arrived, so the
      // contribution streams of all ranks meet at the funnels. Tile 0 is
      // gated off the channel open; a not-yet-granted tile has gate 0 and
      // is held back by the credit window instead.
      std::vector<Cycle> gates(static_cast<std::size_t>(tiles), 0);
      gates[0] = *ctx.now + static_cast<Cycle>(cfg.pace_wait);
      // The effective schedule of the tile being staged. Tile t starts at
      // max(its gate, previous tile's start + C): both terms are aligned
      // across ranks, so the max re-pins the aligned schedule at EVERY tile
      // boundary even when the root's deep window delivered the grant long
      // ago — without it the streams free-run between grants and drift
      // apart faster than the combine hold window.
      int cur_tile = 0;
      Cycle sched = gates[0];
      while (done < cfg.count || credits < tiles) {
        const Cycle now = *ctx.now;
        // Absorb one credit per cycle.
        if (ctx.net_in->CanPop(now)) {
          const Packet p = ctx.net_in->Pop(now);
          if (p.hdr.op != OpType::kCredit) {
            throw ConfigError("InnetReduceSupport: unexpected packet at a "
                              "non-root: " + p.DebugString());
          }
          ++credits;
          // Gate the tile this credit granted (the close barrier re-stamps
          // the last tile's gate, which is long past by then: harmless).
          gates[static_cast<std::size_t>(std::min(credits, tiles - 1))] =
              now + static_cast<Cycle>(cfg.pace_wait);
        }
        // Flush before staging so a full envelope departs in the same cycle
        // the next element is staged: the stream sustains one element per
        // cycle, matching the root's emission rate.
        if (flush_ready && ctx.net_out->CanPush(now)) {
          out.hdr.count = static_cast<std::uint8_t>(fill);
          InnetEnvelope::SetBase(out, static_cast<std::uint32_t>(done));
          InnetEnvelope::SetContribs(out, 1);
          InnetEnvelope::SetEpoch(out, my_epoch);
          ctx.net_out->Push(out, now);
          done += fill;
          fill = 0;
          flush_ready = false;
        }
        // Stage one local element inside the granted window, past the
        // tile's pacing gate. The final (close-barrier) credit never widens
        // the window.
        const int granted = 1 + std::min(credits, tiles - 1);
        const int idx = done + fill;
        if (idx < granted * C && idx / C != cur_tile) {
          // Entering a granted tile: its gate was stamped when its credit
          // arrived, so the schedule advance below sees the real gate.
          cur_tile = idx / C;
          sched = std::max(gates[static_cast<std::size_t>(cur_tile)],
                           sched + static_cast<Cycle>(C));
        }
        if (!flush_ready && idx < cfg.count && idx < granted * C &&
            now >= sched && ctx.app_in->CanPop(now)) {
          PackInnetElement(out, fill,
                           GetElement(ctx.app_in->Pop(now),
                                      "InnetReduceSupport"),
                           esz);
          ++fill;
          // Identical chunking on every rank: flush on a full envelope, at
          // a tile boundary, or at message end.
          flush_ready = fill == epp || (idx + 1) % C == 0 ||
                        idx + 1 == cfg.count;
        }
        co_await NextCycle{};
      }
    }
    NotifyCollectiveSyncPoint(ctx);  // channel close
  }
}

}  // namespace smi::core
