#include "sim/memory.h"

#include <algorithm>

#include "common/error.h"

namespace smi::sim {

MemoryBank::MemoryBank(std::string name, double words_per_cycle)
    : Component(std::move(name)), words_per_cycle_(words_per_cycle) {
  if (words_per_cycle <= 0.0 || words_per_cycle > 1.0) {
    throw ConfigError("MemoryBank words_per_cycle must be in (0, 1]");
  }
}

void MemoryBank::AddReadStream(const float* backing, std::uint64_t begin_word,
                               std::uint64_t end_word, Fifo<MemWord>& sink,
                               std::uint64_t stride) {
  if (stride == 0) throw ConfigError("read stream stride must be >= 1");
  Stream s;
  s.is_read = true;
  s.read_backing = backing;
  s.begin_word = begin_word;
  s.next_word = begin_word;
  s.end_word = end_word;
  s.stride = stride;
  s.fifo = &sink;
  streams_.push_back(s);
}

void MemoryBank::AddLoopingReadStream(const float* backing,
                                      std::uint64_t begin_word,
                                      std::uint64_t end_word,
                                      Fifo<MemWord>& sink,
                                      std::uint64_t stride) {
  AddReadStream(backing, begin_word, end_word, sink, stride);
  streams_.back().loop = true;
}

void MemoryBank::AddWriteStream(float* backing, std::uint64_t begin_word,
                                std::uint64_t end_word, Fifo<MemWord>& source) {
  Stream s;
  s.is_read = false;
  s.write_backing = backing;
  s.next_word = begin_word;
  s.end_word = end_word;
  s.fifo = &source;
  streams_.push_back(s);
}

bool MemoryBank::TryTransfer(Stream& s, Cycle now) {
  if (s.next_word >= s.end_word) return false;
  if (s.is_read) {
    if (!s.fifo->CanPush(now)) return false;
    MemWord word;
    const float* src = s.read_backing + s.next_word * kMemWordElems;
    std::copy(src, src + kMemWordElems, word.lanes.begin());
    s.fifo->Push(word, now);
  } else {
    if (!s.fifo->CanPop(now)) return false;
    const MemWord word = s.fifo->Pop(now);
    float* dst = s.write_backing + s.next_word * kMemWordElems;
    std::copy(word.lanes.begin(), word.lanes.end(), dst);
  }
  s.next_word += s.stride;
  if (s.loop && s.next_word >= s.end_word) s.next_word = s.begin_word;
  return true;
}

void MemoryBank::DeclareFifos(FifoRoles& roles) {
  for (const Stream& s : streams_) {
    (s.is_read ? roles.outputs : roles.inputs).push_back(s.fifo);
  }
}

Cycle MemoryBank::NextSelfWake(Cycle now) const {
  // While any stream could transfer (FIFO side permitting), the bank must
  // run every cycle: the budget/round-robin arbitration is cycle-stateful.
  // Otherwise only FIFO activity can re-enable a transfer.
  for (const Stream& s : streams_) {
    if (s.next_word >= s.end_word) continue;
    if (s.is_read) {
      if (s.fifo->occupancy() < s.fifo->capacity()) return now + 1;
    } else {
      if (s.fifo->occupancy() > 0) return now + 1;
    }
  }
  return kNeverCycle;
}

void MemoryBank::Step(Cycle now) {
  if (streams_.empty()) return;
  const double cap = words_per_cycle_ * 4.0 + 1.0;  // bounded burstiness
  if (stepped_ && now > last_step_ + 1) {
    // Slept cycles could not transfer (see NextSelfWake), so the only effect
    // the skipped Steps would have had is budget accrual. Replaying the
    // identical min/add sequence keeps the floating-point state bit-exact;
    // the loop exits early once the budget saturates at the cap, where
    // further accrual is a fixed point.
    for (Cycle c = last_step_ + 1; c < now && budget_ != cap; ++c) {
      budget_ = std::min(budget_ + words_per_cycle_, cap);
    }
  }
  stepped_ = true;
  last_step_ = now;
  budget_ = std::min(budget_ + words_per_cycle_, cap);
  // Round-robin arbitration: starting from next_stream_, grant one word per
  // whole unit of budget. Each stream is considered at most once per cycle
  // (its FIFO port limit would forbid more anyway).
  std::size_t inspected = 0;
  while (budget_ >= 1.0 && inspected < streams_.size()) {
    Stream& s = streams_[next_stream_];
    next_stream_ = (next_stream_ + 1) % streams_.size();
    ++inspected;
    if (TryTransfer(s, now)) {
      budget_ -= 1.0;
    }
  }
}

bool MemoryBank::AllStreamsDone() const {
  for (const Stream& s : streams_) {
    if (!s.loop && s.next_word < s.end_word) return false;
  }
  return true;
}

}  // namespace smi::sim
