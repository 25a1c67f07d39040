#ifndef SMI_SIM_CLOCK_H
#define SMI_SIM_CLOCK_H

/// \file clock.h
/// Cycle counting and wall-clock conversion for the simulated fabric.
///
/// The whole fabric runs in a single clock domain. The default frequency is
/// 156.25 MHz: at that rate one 256-bit network packet per cycle equals the
/// 40 Gbit/s line rate of the QSFP links on the paper's Nallatech 520N
/// boards, so link cycles translate directly into the paper's bandwidth and
/// latency numbers.

#include <cstdint>
#include <limits>

namespace smi::sim {

/// Simulated clock cycle index.
using Cycle = std::uint64_t;

/// Sentinel cycle meaning "never": used by the event-driven scheduler for
/// wakeups that are only triggered by FIFO activity, not by time.
inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();

/// Clock configuration; converts cycle counts to wall-clock durations.
struct ClockConfig {
  double frequency_hz = 156.25e6;

  double CyclesToSeconds(Cycle cycles) const {
    return static_cast<double>(cycles) / frequency_hz;
  }
  double CyclesToMicros(Cycle cycles) const {
    return CyclesToSeconds(cycles) * 1e6;
  }
  /// Bandwidth achieved by moving `bytes` in `cycles`, in Gbit/s.
  double GigabitsPerSecond(std::uint64_t bytes, Cycle cycles) const {
    if (cycles == 0) return 0.0;
    return static_cast<double>(bytes) * 8.0 /
           CyclesToSeconds(cycles) / 1e9;
  }
};

}  // namespace smi::sim

#endif  // SMI_SIM_CLOCK_H
