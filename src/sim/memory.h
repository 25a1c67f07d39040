#ifndef SMI_SIM_MEMORY_H
#define SMI_SIM_MEMORY_H

/// \file memory.h
/// Off-chip DRAM bank model for streaming kernels.
///
/// The paper's applications (GESUMMV, stencil) are memory bound; what their
/// performance depends on is the sustained streaming rate of each DDR bank
/// and how many banks a kernel can read in parallel. A `MemoryBank` serves
/// registered read/write streams with a configurable number of memory words
/// per cycle (a word is `kMemWordElems` float elements, the width of the
/// bank's data bus at the kernel clock), arbitrated round-robin. Fractional
/// rates model DDR efficiency: the per-bank budget accumulates each cycle
/// and a word is transferred whenever a whole word's worth of budget is
/// available.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "sim/component.h"
#include "sim/fifo.h"

namespace smi::sim {

/// Elements per memory word: 64 B bus = 16 float32 lanes.
inline constexpr std::size_t kMemWordElems = 16;

/// One memory bus beat.
struct MemWord {
  std::array<float, kMemWordElems> lanes{};
};

/// A DRAM bank with a bounded words-per-cycle service rate shared by all
/// attached streams. Read streams copy from a backing buffer into a FIFO;
/// write streams drain a FIFO into a backing buffer.
class MemoryBank final : public Component {
 public:
  /// `words_per_cycle` <= 1.0: effective streaming rate of the bank
  /// (1.0 = 16 elements/cycle = 10 GB/s at 156.25 MHz).
  MemoryBank(std::string name, double words_per_cycle);

  /// Register a read stream: words begin_word, begin_word + stride, ... (all
  /// < end_word) of `backing` are pushed into `sink` in order. A stride
  /// equal to the bank count implements word-interleaved striping of a
  /// buffer across banks. `backing` must outlive the run and hold at least
  /// end_word * kMemWordElems elements.
  void AddReadStream(const float* backing, std::uint64_t begin_word,
                     std::uint64_t end_word, Fifo<MemWord>& sink,
                     std::uint64_t stride = 1);

  /// Like AddReadStream, but the stream wraps around to begin_word after
  /// reaching the end and runs forever — used by kernels that stream the
  /// same buffer once per iteration/timestep. A looping stream never counts
  /// as done in AllStreamsDone().
  void AddLoopingReadStream(const float* backing, std::uint64_t begin_word,
                            std::uint64_t end_word, Fifo<MemWord>& sink,
                            std::uint64_t stride = 1);

  /// Register a write stream: words popped from `source` are stored to
  /// words [begin_word, end_word) of `backing` in order.
  void AddWriteStream(float* backing, std::uint64_t begin_word,
                      std::uint64_t end_word, Fifo<MemWord>& source);

  void Step(Cycle now) override;

  /// Event-driven wake contract: read-stream FIFOs are outputs, write-stream
  /// FIFOs inputs, so a transfer by the kernel on the other side re-asks
  /// NextSelfWake. The bank must run every cycle while some stream could
  /// transfer (the budget arbitration is cycle-stateful) and sleeps
  /// otherwise; budget accrual for slept cycles is replayed at the start of
  /// Step.
  void DeclareFifos(FifoRoles& roles) override;
  Cycle NextSelfWake(Cycle now) const override;

  /// True when every registered stream has transferred its full range.
  bool AllStreamsDone() const;

  double words_per_cycle() const { return words_per_cycle_; }

 private:
  struct Stream {
    bool is_read = false;
    const float* read_backing = nullptr;
    float* write_backing = nullptr;
    std::uint64_t begin_word = 0;
    std::uint64_t next_word = 0;
    std::uint64_t end_word = 0;
    std::uint64_t stride = 1;
    bool loop = false;
    Fifo<MemWord>* fifo = nullptr;
  };

  /// Attempt one word transfer on stream `s`; true on success.
  bool TryTransfer(Stream& s, Cycle now);

  double words_per_cycle_;
  double budget_ = 0.0;
  bool stepped_ = false;
  Cycle last_step_ = 0;
  std::size_t next_stream_ = 0;
  std::vector<Stream> streams_;
};

}  // namespace smi::sim

#endif  // SMI_SIM_MEMORY_H
