#ifndef SMI_CORE_SUPPORT_H
#define SMI_CORE_SUPPORT_H

/// \file support.h
/// Collective support kernels (§4.4).
///
/// One support kernel instance runs per (rank, collective port). It sits
/// between the application endpoint FIFOs and the CKS/CKR modules, and
/// implements the coordination protocol of its collective:
///
///  * Bcast (one-to-all): every non-root sends a READY sync packet to its
///    parent; a node streams data to a child only after that child's READY,
///    which prevents mixing of data from subsequently opened transient
///    channels on the same port. Inner nodes forward what they receive.
///  * Reduce (all-to-one): credit-based flow control with C credits per
///    tree edge; the root and inner nodes fold contributions in arrival
///    order into a C-deep accumulator window and pass each element on as
///    soon as all their sources have contributed it.
///  * Allreduce: Reduce up the tree, then the results back down it.
///  * Scatter / Gather: the root serves (Scatter, after a READY) or grants
///    (Gather) the non-roots one at a time in communicator rank order, so
///    data arrives in an order the receiver can stream without reordering.
///
/// Bcast, Reduce and Allreduce run over the TreeShape their CollAlgo names:
/// the flat tree is the paper's linear scheme, the binomial tree its
/// extension. The in-network Reduce is described in innet.h.
///
/// Every kernel serves an unbounded sequence of channel opens (transient
/// channels), each announced by a config token from the application. Both
/// root and non-root behaviour is present in every instance; the config
/// selects the role at runtime.

#include "core/coll_token.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "net/packet.h"

namespace smi::sim {
class Engine;
}

namespace smi::core {

/// Wiring of one support kernel.
struct SupportCtx {
  int my_global = 0;             ///< this rank (global)
  int port = 0;                  ///< collective port
  TokenFifo* app_in = nullptr;   ///< application -> support (config + data)
  TokenFifo* app_out = nullptr;  ///< support -> application (results)
  sim::Fifo<net::Packet>* net_out = nullptr;  ///< to the CKS endpoint
  sim::Fifo<net::Packet>* net_in = nullptr;   ///< from the CKR endpoint
  const sim::Cycle* now = nullptr;            ///< engine cycle counter
  /// Engine, for fidelity sync points at channel open/close (optional; the
  /// cluster builder wires it, raw-fabric tests may leave it null).
  sim::Engine* engine = nullptr;
};

/// Collective synchronization point: demotes every flow-mode link to cycle
/// accuracy (sim::Engine::FidelitySyncPoint) so the open/close rendezvous
/// and credit traffic is timed exactly. No-op when `ctx.engine` is null or
/// no hybrid-fidelity links exist.
void NotifyCollectiveSyncPoint(const SupportCtx& ctx);

/// The support kernel for a `kind` collective built with `algo` (used by the
/// fabric builder). Bcast, Reduce and Allreduce run over the TreeShape that
/// `algo` names (coll_tree.h); Scatter and Gather are linear only and
/// in-network is Reduce only, which the plan rejects before this point
/// (CheckCollAlgo). The kernel runs forever (registered as a daemon).
sim::Kernel MakeSupportKernel(CollKind kind, CollAlgo algo, SupportCtx ctx);

}  // namespace smi::core

#endif  // SMI_CORE_SUPPORT_H
