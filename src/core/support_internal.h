#ifndef SMI_CORE_SUPPORT_INTERNAL_H
#define SMI_CORE_SUPPORT_INTERNAL_H

/// \file support_internal.h
/// Helpers shared by the support-kernel translation units (support.cpp and
/// support_innet.cpp). Not part of the library surface.

#include "core/support.h"

namespace smi::core {

/// The channel-open config token; throws ConfigError naming `kernel` if the
/// application sent a data element instead.
CollConfig GetConfig(CollToken&& tok, const char* kernel);

/// A data element token; throws ConfigError naming `kernel` on a config
/// token (message shorter than the declared count).
Element GetElement(CollToken&& tok, const char* kernel);

/// This rank's communicator rank; throws ConfigError if it is no member.
int MyCommRank(const CollConfig& cfg, int my_global, const char* kernel);

/// An empty packet from this rank to `dst_global` on the kernel's port.
net::Packet MakeSync(const SupportCtx& ctx, int dst_global, net::OpType op);

/// The in-network Reduce support kernel (CollAlgo::kInnet; see innet.h).
sim::Kernel InnetReduceSupportKernel(SupportCtx ctx);

}  // namespace smi::core

#endif  // SMI_CORE_SUPPORT_INTERNAL_H
