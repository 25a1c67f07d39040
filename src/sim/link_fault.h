#ifndef SMI_SIM_LINK_FAULT_H
#define SMI_SIM_LINK_FAULT_H

/// \file link_fault.h
/// Fault-injection interface for serial links.
///
/// A `LinkFaultHook` decides, for every value entering a link's wire, whether
/// it traverses cleanly, is silently dropped, or arrives corrupted. The
/// contract that keeps the three schedulers bit-identical: a hook must be a
/// *pure function of (its own immutable construction state, cycle, channel)*.
/// It must not keep mutable state, because the parallel scheduler re-plays
/// wire entries (retransmissions) at the same cycles in a different real-time
/// order than the synchronous scheduler.
///
/// The hook is queried by `ReliableLink`, which layers sequence numbers,
/// checksums and go-back-N retransmission on top (channel 1 carries its
/// acknowledgements).
///
/// `LinkDeathSink` is how a link reports permanent failure (retry budget
/// exhausted) upward; the transport fabric implements it to trigger
/// re-routing around the dead cable.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sim/clock.h"

namespace smi::sim {

class LinkFaultHook {
 public:
  enum class Action { kNone, kDrop, kCorrupt };

  /// Channel identifiers used by links when querying the hook.
  static constexpr int kForwardChannel = 0;  ///< payload frames
  static constexpr int kAckChannel = 1;      ///< reverse acknowledgements

  virtual ~LinkFaultHook() = default;

  /// Fate of a value entering the wire at cycle `now` on `channel`.
  virtual Action OnWireEntry(Cycle now, int channel) = 0;

  /// Deterministic bit pattern used to corrupt a value entering the wire at
  /// cycle `now`. Only called when OnWireEntry returned kCorrupt.
  virtual std::uint64_t CorruptionPattern(Cycle now) = 0;
};

/// Receiver of permanent link-failure notifications. Implementations must be
/// thread-safe: under the parallel scheduler the call arrives from a worker
/// thread mid-epoch, so the sink should only record the death (e.g. schedule
/// a global event) and perform the actual failover at a cycle boundary.
class LinkDeathSink {
 public:
  virtual ~LinkDeathSink() = default;
  virtual void OnLinkDead(std::size_t link_id, Cycle now) = 0;
};

/// FNV-1a over a byte range; the checksum primitive of the reliability layer.
inline std::uint32_t Fnv1a32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x01000193u;
  }
  return h;
}

inline std::uint64_t Fnv1a64(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x00000100000001b3ull;
  }
  return h;
}

namespace detail {
template <typename T>
concept HasWireImage = requires(const T& t) {
  { t.ToWire() };
  { T::FromWire(t.ToWire()) };
};
}  // namespace detail

/// Checksum of a payload as it would appear on the wire. Types with a wire
/// image (net::Packet) are hashed over that image; plain trivially-copyable
/// types over their object representation.
template <typename T>
std::uint32_t WireChecksum(const T& value) {
  if constexpr (detail::HasWireImage<T>) {
    const auto wire = value.ToWire();
    return Fnv1a32(wire.data(), wire.size());
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "WireChecksum needs a wire image or trivially copyable T");
    return Fnv1a32(&value, sizeof(T));
  }
}

/// Flip bits of `value` according to `pattern`, guaranteed to change the
/// wire image (and hence the checksum). For types with a wire image the
/// corruption lands in the payload region past the 4-byte header so a
/// corrupted-but-undetected packet still routes somewhere valid.
template <typename T>
void CorruptInPlace(T& value, std::uint64_t pattern) {
  const auto flip = static_cast<unsigned char>(pattern | 1u);  // never 0
  if constexpr (detail::HasWireImage<T>) {
    auto wire = value.ToWire();
    constexpr std::size_t kHeader = 4;
    static_assert(std::tuple_size_v<decltype(wire)> > kHeader);
    const std::size_t span = wire.size() - kHeader;
    wire[kHeader + static_cast<std::size_t>((pattern >> 8) % span)] ^= flip;
    value = T::FromWire(wire);
  } else {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    bytes[static_cast<std::size_t>((pattern >> 8) % sizeof(T))] ^= flip;
    std::memcpy(&value, bytes, sizeof(T));
  }
}

}  // namespace smi::sim

#endif  // SMI_SIM_LINK_FAULT_H
