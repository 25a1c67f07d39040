#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "common/error.h"
#include "common/logging.h"
#include "obs/recorder.h"

namespace smi::sim {

namespace {

/// Cap on parallel epoch length. Correctness never depends on it (barriers
/// are pure synchronization points); it bounds per-epoch log sizes and the
/// overshoot past the completion cycle inside the final epoch.
constexpr Cycle kMaxEpochCycles = 4096;

void SetBit(std::vector<std::uint64_t>& bits, std::size_t index) {
  bits[index >> 6] |= std::uint64_t{1} << (index & 63);
}

/// Move the set bits' indices, ascending, into `out` and clear the bitset.
void TakeBits(std::vector<std::uint64_t>& bits, std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      out.push_back(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
    bits[w] = 0;
  }
}

/// Adapter exposing a split CutLink's sender half as a component of the
/// sending partition. Credits only arrive at epoch barriers (where the
/// engine force-schedules the half), so within an epoch the half wakes on
/// pushes into its TX input and on its own self-wake (see CutLink).
class CutTxHalf final : public Component {
 public:
  CutTxHalf(std::string name, CutLink& cut)
      : Component(std::move(name)), cut_(&cut) {}
  void Step(Cycle now) override { cut_->StepTx(now); }
  void DeclareFifos(FifoRoles& roles) override {
    roles.inputs.push_back(cut_->tx_fifo());
  }
  Cycle InputPushed(std::size_t /*slot*/, Cycle now) override {
    return now + 1;
  }
  Cycle NextSelfWake(Cycle now) const override {
    return cut_->NextTxSelfWake(now);
  }

 private:
  CutLink* cut_;
};

/// Adapter exposing the receiver half in the receiving partition. New
/// payloads only arrive at barriers (force-scheduled); within an epoch the
/// half wakes on pops from its RX output and on its own self-wake.
class CutRxHalf final : public Component {
 public:
  CutRxHalf(std::string name, CutLink& cut)
      : Component(std::move(name)), cut_(&cut) {}
  void Step(Cycle now) override { cut_->StepRx(now); }
  void DeclareFifos(FifoRoles& roles) override {
    roles.outputs.push_back(cut_->rx_fifo());
  }
  Cycle NextSelfWake(Cycle now) const override {
    return cut_->NextRxSelfWake(now);
  }

 private:
  CutLink* cut_;
};

}  // namespace

Engine::Engine(EngineConfig config) : config_(config) {
  whole_.index = 0;
  whole_.clock = &now_;
}

Engine::~Engine() = default;

void Engine::SetPartitionTag(int tag) {
  current_tag_ = tag;
  if (tag == kUntaggedPartition) return;
  if (tag_slots_.find(tag) == tag_slots_.end()) {
    tag_slots_.emplace(tag, tag_clocks_.size());
    tag_clocks_.push_back(now_);
  }
}

const Cycle* Engine::now_ptr() const {
  if (current_tag_ == kUntaggedPartition) return &now_;
  return &tag_clocks_[tag_slots_.at(current_tag_)];
}

void Engine::MarkCutComponent(Component& component, CutLink& cut, int tx_tag,
                              int rx_tag) {
  CutRec rec;
  rec.component = &component;
  rec.cut = &cut;
  rec.tx_tag = tx_tag;
  rec.rx_tag = rx_tag;
  cuts_.push_back(rec);
}

void Engine::AddKernel(Kernel kernel, std::string name, bool daemon) {
  if (!kernel.valid()) {
    throw ConfigError("attempted to register an invalid kernel: " + name);
  }
  kernel.promise().now = now_ptr();
  kernel_tags_.push_back(current_tag_);
  KernelSlot& slot = kernels_.emplace_back();
  slot.kernel = std::move(kernel);
  slot.name = std::move(name);
  slot.daemon = daemon;
}

void Engine::CheckKernelException(KernelSlot& slot) {
  if (slot.kernel.done()) {
    slot.done = true;
    if (slot.kernel.promise().exception) {
      std::rethrow_exception(slot.kernel.promise().exception);
    }
  }
}

bool Engine::AllAppKernelsDone() const {
  for (const KernelSlot& slot : kernels_) {
    if (!slot.daemon && !slot.done) return false;
  }
  return true;
}

std::size_t Engine::pending_kernels() const {
  std::size_t pending = 0;
  for (const KernelSlot& slot : kernels_) {
    if (!slot.done) ++pending;
  }
  return pending;
}

void Engine::ScheduleGlobalEvent(Cycle cycle, std::uint64_t order_key,
                                 std::function<void(Cycle)> fn) {
  std::lock_guard<std::mutex> lock(global_events_mutex_);
  global_events_.push_back(
      GlobalEvent{cycle, order_key, global_event_seq_++, std::move(fn)});
  if (cycle < next_global_event_.load(std::memory_order_relaxed)) {
    next_global_event_.store(cycle, std::memory_order_relaxed);
  }
}

void Engine::ConstrainEpochLength(Cycle bound) {
  epoch_cap_external_ =
      std::min(epoch_cap_external_, std::max<Cycle>(bound, 1));
}

void Engine::WakeComponentAt(Component& component, Cycle cycle) {
  const std::size_t index = component.engine_id_;
  // Unknown component, or no event-driven run prepared yet (the synchronous
  // scheduler steps everything each cycle regardless).
  if (index >= components_.size() || components_[index].get() != &component ||
      index >= comp_recs_.size() || index >= comp_part_.size()) {
    return;
  }
  if (!partitions_.empty()) {
    ScheduleComponent(partitions_[static_cast<std::size_t>(comp_part_[index])],
                      index, cycle);
  } else {
    ScheduleComponent(whole_, index, cycle);
  }
}

void Engine::RegisterFlowLink(FlowLinkControl* link) {
  if (link != nullptr) flow_links_.push_back(link);
}

void Engine::FidelitySyncPoint() {
  // Mid-parallel-run links are already pinned to cycle accuracy; outside a
  // run there is nothing to demote unless FlowLinks exist.
  if (parallel_active_ || flow_links_.empty()) return;
  for (FlowLinkControl* link : flow_links_) link->DemoteForSync(now_);
}

void Engine::RunGlobalEventsAt(Cycle now) {
  if (next_global_event_.load(std::memory_order_relaxed) > now) return;
  std::vector<GlobalEvent> due;
  {
    std::lock_guard<std::mutex> lock(global_events_mutex_);
    std::vector<GlobalEvent> kept;
    Cycle next = kNeverCycle;
    for (GlobalEvent& ev : global_events_) {
      if (ev.cycle <= now) {
        due.push_back(std::move(ev));
      } else {
        next = std::min(next, ev.cycle);
        kept.push_back(std::move(ev));
      }
    }
    global_events_.swap(kept);
    next_global_event_.store(next, std::memory_order_relaxed);
  }
  // Deterministic execution order regardless of which thread scheduled what
  // when: cycle, then the caller-chosen key, then scheduling order.
  std::sort(due.begin(), due.end(),
            [](const GlobalEvent& a, const GlobalEvent& b) {
              return std::tie(a.cycle, a.order_key, a.seq) <
                     std::tie(b.cycle, b.order_key, b.seq);
            });
  for (GlobalEvent& ev : due) ev.fn(now);
}

void Engine::AdvanceClock(Partition& p, Cycle target) {
  *p.clock = target;
  p.soon = target;
  for (Cycle* mirror : p.mirrors) *mirror = target;
}

void Engine::RefreshWholeClock() {
  whole_.index = 0;
  whole_.clock = &now_;
  whole_.mirrors.clear();
  for (Cycle& slot : tag_clocks_) whole_.mirrors.push_back(&slot);
  AdvanceClock(whole_, now_);
}

bool Engine::StepCycleSync() {
  bool progress = false;

  // Phase 1: poll parked kernels; resume the ones whose operation succeeds.
  for (KernelSlot& slot : kernels_) {
    if (slot.done) continue;
    Kernel::promise_type& promise = slot.kernel.promise();
    if (promise.blocker != nullptr) {
      if (!promise.blocker->TryComplete(now_)) continue;
      promise.blocker = nullptr;
    }
    // Either never started, or its blocked operation just completed. A
    // daemon's resume alone is no progress: a support kernel polling for
    // data that never comes would otherwise hide the deadlock forever.
    ++whole_.resumes;
    if (slot.probe != nullptr) slot.probe->OnResume(now_);
    progress |= !slot.daemon;
    slot.kernel.Resume();
    CheckKernelException(slot);
    if (slot.done && slot.probe != nullptr) slot.probe->OnDone(now_);
  }

  // Phase 2: step clocked components.
  for (const std::unique_ptr<Component>& component : components_) {
    component->Step(now_);
  }

  // Phase 3: commit FIFOs; collect progress information. The dirty list is
  // not needed here (every FIFO is visited) but must be drained so a later
  // event-driven run does not see stale entries.
  for (const std::unique_ptr<FifoBase>& fifo : fifos_) {
    progress |= fifo->Commit(now_);
  }
  whole_.dirty.clear();

  AdvanceClock(whole_, now_ + 1);
  return progress;
}

// A wake earlier than `p.soon` is raised to it: the partition's next step,
// at `p.soon`, is the first one that can serve it.
void Engine::ScheduleComponent(Partition& p, std::size_t index, Cycle cycle) {
  if (cycle == kNeverCycle) return;
  cycle = std::max(cycle, p.soon);
  ComponentRec& rec = comp_recs_[index];
  if (cycle >= rec.next_wake) return;
  rec.next_wake = cycle;
  if (cycle == p.soon) {
    SetBit(p.comp_soon, index);
    p.soon_pending = true;
  } else if (cycle != rec.heap_wake) {
    // A component re-asked after each step tends to repeat a far answer (a
    // link's head maturity); its entry from the last time is still queued.
    rec.heap_wake = cycle;
    p.comp_heap.emplace(cycle, index);
  }
}

void Engine::PopComponentWake(Partition& p) {
  const auto [cycle, index] = p.comp_heap.top();
  ComponentRec& rec = comp_recs_[index];
  if (rec.heap_wake == cycle) rec.heap_wake = kNeverCycle;
  p.comp_heap.pop();
}

void Engine::ScheduleKernel(Partition& p, std::size_t index, Cycle cycle) {
  if (cycle == kNeverCycle) return;
  cycle = std::max(cycle, p.soon);
  KernelSlot& slot = kernels_[index];
  if (cycle >= slot.next_poll) return;
  slot.next_poll = cycle;
  if (cycle == p.soon) {
    SetBit(p.kernel_soon, index);
    p.soon_pending = true;
  } else {
    p.kernel_heap.emplace(cycle, index);
  }
}

void Engine::CollectWatches(Partition& p, std::size_t kernel_index) {
  const KernelSlot& slot = kernels_[kernel_index];
  p.watch_scratch.clear();
  p.watch_ids.clear();
  slot.kernel.promise().blocker->WatchFifos(p.watch_scratch);
  for (const FifoBase* fifo : p.watch_scratch) {
    // FIFOs owned by a different engine (or none) cannot wake us through the
    // commit phase; the caller falls back to polling every cycle.
    if (fifo == nullptr || fifo->sched_owner() != this) continue;
    if (fifo_part_[fifo->sched_index()] != p.index) {
      throw ConfigError("kernel " + slot.name + " watches FIFO " +
                        fifo->name() +
                        " owned by another partition; only cut links may "
                        "cross partitions");
    }
    p.watch_ids.push_back(fifo->sched_index());
  }
}

void Engine::RegisterWatch(Partition& p, std::size_t kernel_index) {
  KernelSlot& slot = kernels_[kernel_index];
  for (const std::size_t fifo_index : p.watch_ids) {
    fifo_recs_[fifo_index].kernel_watchers.push_back(kernel_index);
    slot.watching.push_back(fifo_index);
  }
}

void Engine::UnregisterWatch(std::size_t kernel_index) {
  KernelSlot& slot = kernels_[kernel_index];
  for (std::size_t fifo_index : slot.watching) {
    auto& watchers = fifo_recs_[fifo_index].kernel_watchers;
    watchers.erase(std::remove(watchers.begin(), watchers.end(), kernel_index),
                   watchers.end());
  }
  slot.watching.clear();
}

void Engine::ParkKernel(Partition& p, std::size_t kernel_index) {
  KernelSlot& slot = kernels_[kernel_index];
  Kernel::promise_type& promise = slot.kernel.promise();
  const Cycle now = *p.clock;
  if (promise.blocker == nullptr) {
    // Suspended without a blocker (should not happen with the provided
    // awaitables); poll again next cycle — always correct.
    UnregisterWatch(kernel_index);
    ScheduleKernel(p, kernel_index, now + 1);
    return;
  }
  // Watches are sticky: a kernel that parks on the same FIFOs again (the
  // common case, one element per resume) keeps its watcher entries.
  CollectWatches(p, kernel_index);
  if (p.watch_ids != slot.watching) {
    UnregisterWatch(kernel_index);
    RegisterWatch(p, kernel_index);
  }
  Cycle next = promise.blocker->NextPollCycle(now);
  if (slot.watching.empty() && next == kNeverCycle) next = now + 1;
  ScheduleKernel(p, kernel_index, next);
}

void Engine::PreparePartition(Partition& p) {
  p.comp_heap = WakeHeap();
  p.kernel_heap = WakeHeap();
  p.soon = *p.clock;
  p.soon_pending = false;
  p.comp_soon.assign((comp_recs_.size() + 63) / 64, 0);
  p.kernel_soon.assign((kernels_.size() + 63) / 64, 0);
  p.due_components.clear();
  p.due_kernels.clear();
  p.resume_log.clear();
  p.app_pending = 0;
  p.app_done_p1 = 0;
  p.error = nullptr;
  p.error_cycle = kNeverCycle;
  p.dirty.clear();
  const Cycle now = *p.clock;
  // Record component `i` as the popper (inputs) or pusher (outputs) of
  // every FIFO of this engine it declared; a FIFO has at most one of each.
  const auto declare = [&](std::size_t i,
                           const std::vector<const FifoBase*>& fifos,
                           RoleSub FifoRec::*role, const char* what) {
    for (std::size_t slot = 0; slot < fifos.size(); ++slot) {
      const FifoBase* fifo = fifos[slot];
      if (fifo == nullptr || fifo->sched_owner() != this) continue;
      if (fifo_part_[fifo->sched_index()] != p.index) {
        throw ConfigError("component " + components_[i]->name() +
                          " declares " + what + " FIFO " + fifo->name() +
                          " owned by another partition; only cut links may "
                          "cross partitions");
      }
      RoleSub& sub = fifo_recs_[fifo->sched_index()].*role;
      if (sub.component != kNoComponent && sub.component != i) {
        throw ConfigError("component " + components_[i]->name() +
                          " declares " + what + " FIFO " + fifo->name() +
                          ", already the " + what + " of " +
                          components_[sub.component]->name());
      }
      sub = RoleSub{i, slot};
    }
  };
  for (const std::size_t i : p.components) {
    comp_recs_[i] = ComponentRec{};
    p.declared_roles.inputs.clear();
    p.declared_roles.outputs.clear();
    components_[i]->DeclareFifos(p.declared_roles);
    declare(i, p.declared_roles.inputs, &FifoRec::popper, "input");
    declare(i, p.declared_roles.outputs, &FifoRec::pusher, "output");
    ScheduleComponent(p, i, now);
  }
  for (const std::size_t i : p.kernels) {
    KernelSlot& slot = kernels_[i];
    slot.next_poll = kNeverCycle;
    slot.watching.clear();
    if (!slot.done && !slot.daemon) ++p.app_pending;
    if (slot.done) continue;
    if (slot.kernel.promise().blocker != nullptr) {
      CollectWatches(p, i);
      RegisterWatch(p, i);
    }
    // Scheduling everything for an immediate poll/step is always safe; the
    // wake machinery thins the schedule out from the second cycle on.
    ScheduleKernel(p, i, now);
  }
}

void Engine::PrepareWholePartition() {
  RefreshWholeClock();
  whole_.log_resumes = false;
  whole_.components.resize(components_.size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    whole_.components[i] = i;
  }
  whole_.kernels.resize(kernels_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) whole_.kernels[i] = i;
  fifo_part_.assign(fifos_.size(), 0);
  comp_part_.assign(components_.size(), 0);
  kernel_part_.assign(kernels_.size(), 0);
  comp_recs_.assign(components_.size(), ComponentRec{});
  fifo_recs_.assign(fifos_.size(), FifoRec{});
  PreparePartition(whole_);
}

void Engine::AppendResumeLog(Partition& p, Cycle cycle) {
  if (!p.resume_log.empty() && p.resume_log.back().first == cycle) {
    ++p.resume_log.back().second;
  } else {
    p.resume_log.emplace_back(cycle, 1);
  }
}

bool Engine::StepCycleEvent(Partition& p) {
  const Cycle now = *p.clock;
  bool progress = false;

  // Collect the entities due this cycle (`now == p.soon`). Far wakes that
  // have come due join the bitsets first; heap entries are lazily
  // invalidated, so an entry only counts if it matches the entity's
  // scheduled cycle. Walking the bits yields ascending entity ids, so phases
  // run in registration order, exactly like the synchronous scheduler.
  while (!p.kernel_heap.empty() && p.kernel_heap.top().first <= now) {
    const auto [cycle, index] = p.kernel_heap.top();
    p.kernel_heap.pop();
    if (kernels_[index].next_poll == cycle) SetBit(p.kernel_soon, index);
  }
  while (!p.comp_heap.empty() && p.comp_heap.top().first <= now) {
    const auto [cycle, index] = p.comp_heap.top();
    PopComponentWake(p);
    if (comp_recs_[index].next_wake == cycle) SetBit(p.comp_soon, index);
  }
  TakeBits(p.kernel_soon, p.due_kernels);
  TakeBits(p.comp_soon, p.due_components);
  for (const std::size_t index : p.due_kernels) {
    kernels_[index].next_poll = kNeverCycle;
  }
  for (const std::size_t index : p.due_components) {
    comp_recs_[index].next_wake = kNeverCycle;
  }
  // From here on, wakes for the next cycle go to the (now empty) bitsets.
  p.soon = now + 1;
  p.soon_pending = false;

  // Phase 1: poll due kernels; resume the ones whose operation succeeds.
  for (const std::size_t index : p.due_kernels) {
    KernelSlot& slot = kernels_[index];
    if (slot.done) continue;
    Kernel::promise_type& promise = slot.kernel.promise();
    if (promise.blocker != nullptr) {
      if (!promise.blocker->TryComplete(now)) {
        // Still blocked: re-arm the timed poll; FIFO watches stay in place.
        Cycle next = promise.blocker->NextPollCycle(now);
        if (slot.watching.empty() && next == kNeverCycle) next = now + 1;
        ScheduleKernel(p, index, next);
        continue;
      }
      // The watches stay registered until the kernel parks again
      // (ParkKernel) or finishes.
      promise.blocker = nullptr;
    }
    ++p.resumes;
    if (p.log_resumes) AppendResumeLog(p, now);
    if (slot.probe != nullptr) slot.probe->OnResume(now);
    progress |= !slot.daemon;  // as in StepCycleSync
    slot.kernel.Resume();
    CheckKernelException(slot);
    if (slot.done) {
      UnregisterWatch(index);
      if (slot.probe != nullptr) slot.probe->OnDone(now);
      if (!slot.daemon && p.app_pending > 0 && --p.app_pending == 0) {
        p.app_done_p1 = now + 1;
      }
    } else {
      ParkKernel(p, index);
    }
  }

  // Phase 2: step due components.
  for (const std::size_t index : p.due_components) {
    components_[index]->Step(now);
  }

  // Phase 3: commit the FIFOs touched this cycle. A committed push tells the
  // FIFO's popper, a committed pop its pusher, when it next needs a step;
  // watching kernels re-poll next cycle (which is exactly when the transfer
  // becomes visible to them).
  for (FifoBase* fifo : p.dirty) {
    const bool pushed = fifo->push_staged();
    const bool popped = fifo->pop_staged();
    if (!fifo->Commit(now)) continue;
    progress = true;
    const FifoRec& rec = fifo_recs_[fifo->sched_index()];
    if (pushed && rec.popper.component != kNoComponent) {
      const std::size_t c = rec.popper.component;
      ScheduleComponent(p, c,
                        components_[c]->InputPushed(rec.popper.slot, now));
    }
    if (popped && rec.pusher.component != kNoComponent &&
        comp_recs_[rec.pusher.component].next_wake != now + 1) {
      const std::size_t c = rec.pusher.component;
      ScheduleComponent(p, c,
                        components_[c]->OutputPopped(rec.pusher.slot, now));
    }
    for (const std::size_t watcher : rec.kernel_watchers) {
      ScheduleKernel(p, watcher, now + 1);
    }
  }
  p.dirty.clear();

  // Phase 4: timed self-wakes, asked after the commits are visible. A
  // component already due next cycle cannot be scheduled any earlier.
  for (const std::size_t index : p.due_components) {
    if (comp_recs_[index].next_wake == now + 1) continue;
    ScheduleComponent(p, index, components_[index]->NextSelfWake(now));
  }

  AdvanceClock(p, now + 1);
  return progress;
}

Cycle Engine::NextEventCycle(Partition& p) {
  // Every heap entry is at or after `soon`, so a pending bit wins outright.
  if (p.soon_pending) return p.soon;
  while (!p.comp_heap.empty() &&
         comp_recs_[p.comp_heap.top().second].next_wake !=
             p.comp_heap.top().first) {
    PopComponentWake(p);
  }
  while (!p.kernel_heap.empty() &&
         kernels_[p.kernel_heap.top().second].next_poll !=
             p.kernel_heap.top().first) {
    p.kernel_heap.pop();
  }
  Cycle next = kNeverCycle;
  if (!p.comp_heap.empty()) next = std::min(next, p.comp_heap.top().first);
  if (!p.kernel_heap.empty()) next = std::min(next, p.kernel_heap.top().first);
  return next;
}

void Engine::JumpIdleCycles(Cycle target, bool accounted) {
  if (target <= now_) return;
  if (!accounted) {
    AdvanceClock(whole_, target);
    return;
  }
  // The skipped cycles would each have been a no-progress StepCycle; charge
  // them to the watchdog and max-cycles guards so both fire at exactly the
  // cycle the synchronous scheduler would have fired at. The watchdog is
  // checked first on ties, matching the per-cycle check order.
  const Cycle gap = target - now_;
  const Cycle until_watchdog = config_.watchdog_cycles > idle_cycles_
                                   ? config_.watchdog_cycles - idle_cycles_
                                   : 1;
  const Cycle until_max = config_.max_cycles != 0
                              ? (config_.max_cycles > now_
                                     ? config_.max_cycles - now_
                                     : 1)
                              : kNeverCycle;
  if (until_watchdog <= gap && until_watchdog <= until_max) {
    AdvanceClock(whole_, now_ + until_watchdog);
    idle_cycles_ += until_watchdog;
    RaiseDeadlock(/*with_partitions=*/false);
  }
  if (until_max <= gap) {
    AdvanceClock(whole_, now_ + until_max);
    idle_cycles_ += until_max;
    throw Error("engine exceeded max_cycles=" +
                std::to_string(config_.max_cycles));
  }
  AdvanceClock(whole_, target);
  idle_cycles_ += gap;
}

void Engine::RaiseDeadlock(bool with_partitions) {
  std::ostringstream oss;
  oss << "simulated deadlock: no progress for " << config_.watchdog_cycles
      << " cycles at cycle " << now_ << "; blocked kernels:";
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const KernelSlot& slot = kernels_[i];
    if (slot.done) continue;
    oss << "\n  - " << slot.name;
    const Blocker* blocker = slot.kernel.promise().blocker;
    if (blocker != nullptr) {
      oss << " waiting on " << blocker->Describe();
    } else {
      oss << " (not yet started)";
    }
    if (slot.daemon) oss << " [daemon]";
    if (with_partitions) {
      // Partition k runs on worker thread k, so one index names both.
      oss << " [partition " << kernel_part_[i] << ", thread "
          << kernel_part_[i] << "]";
    }
  }
  throw DeadlockError(oss.str());
}

RunStats Engine::FinishRun(unsigned partitions) {
  if (recorder_ != nullptr) recorder_->Finalize(now_);
  RunStats stats;
  stats.cycles = now_;
  stats.seconds = config_.clock.CyclesToSeconds(now_);
  stats.kernel_resumes = whole_.resumes;
  for (const Partition& p : partitions_) stats.kernel_resumes += p.resumes;
  stats.partitions = partitions;
  return stats;
}

void Engine::EnsureObservability() {
  if (!config_.collect_counters && !config_.collect_trace) return;
  if (recorder_ == nullptr) {
    recorder_ = std::make_unique<obs::Recorder>(config_.collect_trace);
  }
  for (; obs_fifos_ < fifos_.size(); ++obs_fifos_) {
    fifos_[obs_fifos_]->set_counters(
        recorder_->AddFifo(fifos_[obs_fifos_]->name()));
  }
  for (; obs_comps_ < components_.size(); ++obs_comps_) {
    components_[obs_comps_]->AttachObservability(*recorder_);
  }
  for (; obs_kernels_ < kernels_.size(); ++obs_kernels_) {
    kernels_[obs_kernels_].probe =
        recorder_->AddKernel(kernels_[obs_kernels_].name);
  }
}

RunStats Engine::Run() {
  EnsureObservability();
  if (config_.scheduler == SchedulerKind::kParallel) return RunParallel();

  if (config_.scheduler == SchedulerKind::kSynchronous) {
    RefreshWholeClock();
    while (!AllAppKernelsDone()) {
      RunGlobalEventsAt(now_);
      const bool progress = StepCycleSync();
      if (progress) {
        idle_cycles_ = 0;
      } else if (++idle_cycles_ >= config_.watchdog_cycles) {
        RaiseDeadlock(/*with_partitions=*/false);
      }
      if (config_.max_cycles != 0 && now_ >= config_.max_cycles) {
        throw Error("engine exceeded max_cycles=" +
                    std::to_string(config_.max_cycles));
      }
    }
    return FinishRun(/*partitions=*/1);
  }

  PrepareWholePartition();
  while (!AllAppKernelsDone()) {
    RunGlobalEventsAt(now_);
    const bool progress = StepCycleEvent(whole_);
    if (progress) {
      idle_cycles_ = 0;
    } else if (++idle_cycles_ >= config_.watchdog_cycles) {
      RaiseDeadlock(/*with_partitions=*/false);
    }
    if (config_.max_cycles != 0 && now_ >= config_.max_cycles) {
      throw Error("engine exceeded max_cycles=" +
                  std::to_string(config_.max_cycles));
    }
    if (AllAppKernelsDone()) break;
    const Cycle next =
        std::min(NextEventCycle(whole_), NextGlobalEventCycle());
    if (next > now_) JumpIdleCycles(next, /*accounted=*/true);
  }
  return FinishRun(/*partitions=*/1);
}

bool Engine::RunFor(Cycle cycles) {
  EnsureObservability();
  if (config_.scheduler == SchedulerKind::kSynchronous) {
    RefreshWholeClock();
    for (Cycle i = 0; i < cycles && !AllAppKernelsDone(); ++i) {
      RunGlobalEventsAt(now_);
      StepCycleSync();
    }
    return AllAppKernelsDone();
  }

  // Incremental stepping always runs the single-threaded event-driven path
  // (under kParallel as well — partitioning only pays off for full runs).
  PrepareWholePartition();
  const Cycle end = now_ + cycles;
  while (now_ < end && !AllAppKernelsDone()) {
    RunGlobalEventsAt(now_);
    StepCycleEvent(whole_);
    // The synchronous loop stops stepping the moment the last kernel
    // finishes, leaving `now_` at the completion cycle — so re-check before
    // jumping ahead.
    if (now_ >= end || AllAppKernelsDone()) break;
    const Cycle next =
        std::min(NextEventCycle(whole_), NextGlobalEventCycle());
    if (next > now_) JumpIdleCycles(std::min(next, end), /*accounted=*/false);
  }
  return AllAppKernelsDone();
}

// ---------------------------------------------------------------------------
// Parallel scheduler
// ---------------------------------------------------------------------------

void Engine::PrepareParallelRun(unsigned workers) {
  // The split-link exactness argument (file comment) only covers
  // cycle-stepped links: pin every hybrid-fidelity link to cycle accuracy
  // for the whole run. PreparePartition schedules all components at the
  // start cycle, so demoted links need no extra wake.
  parallel_active_ = true;
  for (FlowLinkControl* link : flow_links_) link->SetForcedCycle(true);
  const std::size_t num_tags = tag_clocks_.size();
  const std::size_t nparts =
      std::max<std::size_t>(1, std::min<std::size_t>(workers,
                                                     std::max<std::size_t>(
                                                         num_tags, 1)));
  partitions_.clear();
  for (std::size_t i = 0; i < nparts; ++i) {
    partitions_.emplace_back();
    Partition& p = partitions_.back();
    p.index = static_cast<int>(i);
    p.clock = &p.clock_storage;
    p.clock_storage = now_;
    p.log_resumes = true;
    p.last_progress_p1 = 0;
    p.resumes = 0;
  }
  // Partition 0 mirrors the engine-global counter so untagged kernels (raw
  // engine users) and Engine::now() observers keep tracking a clock.
  partitions_[0].mirrors.push_back(&now_);

  // Contiguous balanced mapping of tag slots (= ranks, in fabric order) onto
  // partitions; handles thread counts that do not divide the rank count.
  std::vector<int> slot_part(num_tags, 0);
  for (std::size_t k = 0; k < num_tags; ++k) {
    slot_part[k] = static_cast<int>(k * nparts / num_tags);
    partitions_[static_cast<std::size_t>(slot_part[k])].mirrors.push_back(
        &tag_clocks_[k]);
    tag_clocks_[k] = now_;
  }
  const auto part_of_tag = [&](int tag) {
    return tag == kUntaggedPartition
               ? 0
               : slot_part[tag_slots_.at(tag)];
  };

  fifo_part_.resize(fifos_.size());
  for (std::size_t i = 0; i < fifos_.size(); ++i) {
    fifo_part_[i] = part_of_tag(fifo_tags_[i]);
  }
  base_component_count_ = components_.size();
  comp_part_.resize(base_component_count_);
  for (std::size_t i = 0; i < base_component_count_; ++i) {
    comp_part_[i] = part_of_tag(comp_tags_[i]);
  }
  kernel_part_.resize(kernels_.size());
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    kernel_part_[i] = part_of_tag(kernel_tags_[i]);
  }

  // Split cut components whose halves land on different partitions,
  // materializing the halves as adapter components of the owning partitions.
  std::unordered_set<const Component*> split_originals;
  for (CutRec& cut : cuts_) {
    cut.tx_part = part_of_tag(cut.tx_tag);
    cut.rx_part = part_of_tag(cut.rx_tag);
    cut.split = cut.tx_part != cut.rx_part;
    if (!cut.split) continue;
    split_originals.insert(cut.component);
    cut.cut->BeginSplit();
    cut.tx_comp = components_.size();
    components_.push_back(
        std::make_unique<CutTxHalf>(cut.component->name() + ".tx", *cut.cut));
    comp_tags_.push_back(cut.tx_tag);
    comp_part_.push_back(cut.tx_part);
    cut.rx_comp = components_.size();
    components_.push_back(
        std::make_unique<CutRxHalf>(cut.component->name() + ".rx", *cut.cut));
    comp_tags_.push_back(cut.rx_tag);
    comp_part_.push_back(cut.rx_part);
  }

  // Entity lists (split originals are replaced by their halves) and
  // partition-local FIFO dirty lists.
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (split_originals.count(components_[i].get()) != 0) continue;
    partitions_[static_cast<std::size_t>(comp_part_[i])].components.push_back(
        i);
  }
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    partitions_[static_cast<std::size_t>(kernel_part_[i])].kernels.push_back(
        i);
  }
  for (std::size_t i = 0; i < fifos_.size(); ++i) {
    Partition& p = partitions_[static_cast<std::size_t>(fifo_part_[i])];
    p.fifo_ids.push_back(i);
    fifos_[i]->AttachScheduler(this, &p.dirty, i);
  }

  // All cut links — split or not — log trimmable per-cycle events during a
  // parallel run so the final-epoch overshoot can be undone (see CutLink).
  for (CutRec& cut : cuts_) cut.cut->BeginParallelRun();

  comp_recs_.assign(components_.size(), ComponentRec{});
  fifo_recs_.assign(fifos_.size(), FifoRec{});
  for (Partition& p : partitions_) PreparePartition(p);

  // Counter updates made inside epochs must be revocable: partitions
  // overshoot the completion cycle in the final epoch (see the barrier loop).
  if (recorder_ != nullptr) recorder_->SetJournaling(true);
}

void Engine::CleanupParallelRun() {
  if (recorder_ != nullptr) recorder_->SetJournaling(false);
  for (CutRec& cut : cuts_) {
    if (!cut.split) continue;
    cut.cut->EndSplit();
    cut.split = false;
  }
  for (CutRec& cut : cuts_) cut.cut->EndParallelRun();
  if (base_component_count_ != 0 &&
      components_.size() > base_component_count_) {
    components_.resize(base_component_count_);
    comp_tags_.resize(base_component_count_);
    comp_part_.resize(base_component_count_);
  }
  for (std::size_t i = 0; i < fifos_.size(); ++i) {
    fifos_[i]->AttachScheduler(this, &whole_.dirty, i);
  }
  // Fold partition accounting into the whole-engine state so a later
  // sequential Run/RunFor continues the same counters, then drop the
  // partitions.
  for (Partition& p : partitions_) whole_.resumes += p.resumes;
  partitions_.clear();
  // Until the next Run/RunFor prepares a schedule, WakeComponentAt is a
  // no-op (`whole_`'s bitsets may not cover every component).
  comp_recs_.clear();
  for (FlowLinkControl* link : flow_links_) link->SetForcedCycle(false);
  parallel_active_ = false;
}

void Engine::RunPartitionEpoch(Partition& p) {
  while (*p.clock < p.epoch_end) {
    const Cycle cycle = *p.clock;
    if (StepCycleEvent(p)) p.last_progress_p1 = cycle + 1;
    if (*p.clock >= p.epoch_end) break;
    const Cycle next = NextEventCycle(p);
    if (next > *p.clock) {
      AdvanceClock(p, std::min(next, p.epoch_end));
    }
  }
}

void Engine::RunPartitionEpochGuarded(Partition& p) {
  try {
    RunPartitionEpoch(p);
  } catch (...) {
    p.error = std::current_exception();
    p.error_cycle = *p.clock;
  }
}

RunStats Engine::RunParallel() {
  unsigned workers = config_.threads;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  struct Cleanup {
    Engine* engine;
    ~Cleanup() { engine->CleanupParallelRun(); }
  } cleanup{this};
  PrepareParallelRun(workers);
  const std::size_t nparts = partitions_.size();

  std::size_t total_app = 0;
  for (const Partition& p : partitions_) total_app += p.app_pending;
  if (total_app == 0) return FinishRun(static_cast<unsigned>(nparts));

  // Epoch gate: the coordinator (this thread, owning partition 0) publishes
  // an epoch, workers run their partition's slice and count themselves out.
  struct Gate {
    std::mutex m;
    std::condition_variable start;
    std::condition_variable done;
    std::uint64_t epoch = 0;
    std::size_t running = 0;
    bool stop = false;
  } gate;
  std::vector<std::thread> pool;
  pool.reserve(nparts > 0 ? nparts - 1 : 0);
  for (std::size_t w = 1; w < nparts; ++w) {
    pool.emplace_back([this, &gate, w] {
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(gate.m);
          gate.start.wait(lock,
                          [&] { return gate.stop || gate.epoch > seen; });
          if (gate.stop) return;
          seen = gate.epoch;
        }
        RunPartitionEpochGuarded(partitions_[w]);
        {
          std::lock_guard<std::mutex> lock(gate.m);
          if (--gate.running == 0) gate.done.notify_one();
        }
      }
    });
  }
  struct PoolStop {
    Gate* gate;
    std::vector<std::thread>* pool;
    ~PoolStop() {
      {
        std::lock_guard<std::mutex> lock(gate->m);
        gate->stop = true;
      }
      gate->start.notify_all();
      for (std::thread& t : *pool) t.join();
    }
  } pool_stop{&gate, &pool};

  Cycle barrier_cycle = now_;
  for (;;) {
    // --- Barrier work at `barrier_cycle` (every partition synced here) ---
    // Global events due at this barrier run first, single-threaded, exactly
    // as the sequential loops run them at the top of the cycle. The epoch
    // bound below never extends past the next pending event, so an event's
    // cycle always lands on a barrier (given the scheduling contract —
    // see ScheduleGlobalEvent).
    RunGlobalEventsAt(barrier_cycle);
    // Exchange cut-link payloads/credits and derive the epoch length: the
    // smallest of every split link's lookahead (pipeline latency) and credit
    // slack, the external epoch cap, the watchdog fire cycle and the
    // max-cycles guard.
    Cycle bound = std::min(kMaxEpochCycles, epoch_cap_external_);
    for (CutRec& cut : cuts_) {
      if (!cut.split) {
        cut.cut->OnUnsplitBarrier(barrier_cycle);
        continue;
      }
      const Cycle slack = cut.cut->ExchangeAtBarrier(barrier_cycle);
      const Cycle lookahead = std::max<Cycle>(cut.cut->link_latency(), 1);
      bound = std::min(bound, std::min(lookahead, slack));
      // New credits / payloads may enable the halves right at epoch start.
      ScheduleComponent(partitions_[static_cast<std::size_t>(cut.tx_part)],
                        cut.tx_comp, barrier_cycle);
      ScheduleComponent(partitions_[static_cast<std::size_t>(cut.rx_part)],
                        cut.rx_comp, barrier_cycle);
    }
    Cycle last_progress_p1 = 0;
    for (Partition& p : partitions_) {
      last_progress_p1 = std::max(last_progress_p1, p.last_progress_p1);
      // Only the final epoch's resume log is ever needed for trimming.
      p.resume_log.clear();
    }
    // Same for the counter journals: the merged finish cycle always lies
    // inside the final epoch, so earlier epochs' updates are safe to keep.
    if (recorder_ != nullptr) recorder_->ClearJournals();
    const Cycle fire_at = last_progress_p1 + config_.watchdog_cycles;
    Cycle epoch_end = barrier_cycle + bound;
    epoch_end = std::min(epoch_end, fire_at);
    if (config_.max_cycles != 0) {
      epoch_end = std::min(epoch_end, config_.max_cycles);
    }
    const Cycle next_global = NextGlobalEventCycle();
    if (next_global != kNeverCycle) {
      epoch_end = std::min(epoch_end, next_global);
    }
    if (epoch_end <= barrier_cycle) epoch_end = barrier_cycle + 1;

    // --- Run the epoch on all partitions ---
    for (Partition& p : partitions_) p.epoch_end = epoch_end;
    if (nparts > 1) {
      {
        std::lock_guard<std::mutex> lock(gate.m);
        ++gate.epoch;
        gate.running = nparts - 1;
      }
      gate.start.notify_all();
    }
    RunPartitionEpochGuarded(partitions_[0]);
    if (nparts > 1) {
      std::unique_lock<std::mutex> lock(gate.m);
      gate.done.wait(lock, [&] { return gate.running == 0; });
    }
    barrier_cycle = epoch_end;

    // --- Propagate worker errors (earliest cycle, then partition order) ---
    const Partition* failed = nullptr;
    for (const Partition& p : partitions_) {
      if (p.error == nullptr) continue;
      if (failed == nullptr || p.error_cycle < failed->error_cycle) {
        failed = &p;
      }
    }
    if (failed != nullptr) {
      now_ = failed->error_cycle;
      std::rethrow_exception(failed->error);
    }

    // --- Merged termination checks, in the sequential schedulers' per-cycle
    // order: watchdog, then max-cycles, then completion — applied to the
    // cycle each event would fire at. ---
    Cycle merged_progress_p1 = 0;
    bool all_done = true;
    Cycle finish_p1 = 0;
    for (const Partition& p : partitions_) {
      merged_progress_p1 = std::max(merged_progress_p1, p.last_progress_p1);
      if (p.app_pending != 0) {
        all_done = false;
      } else {
        finish_p1 = std::max(finish_p1, p.app_done_p1);
      }
    }
    if (all_done) {
      // Completion at cycle `finish_p1` (= last app-kernel finish + 1). The
      // sequential loops check max-cycles before breaking, so a tie goes to
      // the max-cycles guard.
      if (config_.max_cycles != 0 && config_.max_cycles <= finish_p1) {
        now_ = config_.max_cycles;
        throw Error("engine exceeded max_cycles=" +
                    std::to_string(config_.max_cycles));
      }
      // Partitions overshoot `finish_p1` inside the final epoch; trim the
      // overshoot out of the merged counters so stats are bit-identical to
      // the sequential schedulers.
      for (Partition& p : partitions_) {
        while (!p.resume_log.empty() &&
               p.resume_log.back().first >= finish_p1) {
          p.resumes -= p.resume_log.back().second;
          p.resume_log.pop_back();
        }
      }
      for (CutRec& cut : cuts_) {
        cut.cut->TrimDeliveriesAtOrAfter(finish_p1);
      }
      if (recorder_ != nullptr) recorder_->TrimAtOrAfter(finish_p1);
      now_ = finish_p1;
      return FinishRun(static_cast<unsigned>(nparts));
    }
    const Cycle merged_fire_at =
        merged_progress_p1 + config_.watchdog_cycles;
    if (barrier_cycle >= merged_fire_at) {
      now_ = merged_fire_at;
      RaiseDeadlock(/*with_partitions=*/true);
    }
    if (config_.max_cycles != 0 && barrier_cycle >= config_.max_cycles) {
      now_ = config_.max_cycles;
      throw Error("engine exceeded max_cycles=" +
                  std::to_string(config_.max_cycles));
    }
  }
}

}  // namespace smi::sim
