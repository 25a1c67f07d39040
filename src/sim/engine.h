#ifndef SMI_SIM_ENGINE_H
#define SMI_SIM_ENGINE_H

/// \file engine.h
/// The cycle engine that drives a simulated FPGA fabric.
///
/// Each simulated cycle proceeds in three phases:
///   1. parked kernels' blockers are polled and, if the operation succeeds,
///      the kernel coroutine is resumed until it parks again or finishes;
///   2. clocked components step;
///   3. FIFOs commit, making this cycle's pushes/pops visible.
///
/// Readiness checks in phases 1 and 2 only observe state committed at the
/// previous boundary, so results do not depend on registration order.
/// A watchdog raises DeadlockError when nothing moves for a configurable
/// number of cycles while non-daemon kernels are still pending — the
/// simulated analogue of the user-caused communication deadlocks the paper
/// warns about in §3.3.
///
/// ## Schedulers
///
/// Three schedulers implement those semantics:
///
/// * `SchedulerKind::kSynchronous` — the reference implementation: every
///   parked kernel is polled, every component is stepped, and every FIFO is
///   committed on every cycle.
/// * `SchedulerKind::kEventDriven` (default) — an active-set scheduler that
///   only visits entities that can possibly act:
///     - FIFOs append themselves to a dirty list on the first push/pop of a
///       cycle, so the commit phase only touches FIFOs with staged work;
///     - components declare FIFO roles (`Component::DeclareFifos`): a
///       committed push into a component's *input* asks its
///       `InputPushed(slot)`, a committed pop from its *output* its
///       `OutputPopped(slot)` (unless it is due next cycle anyway); the
///       answers and the `NextSelfWake` asked after each of its steps are
///       min-ed into its wake. A component's own pops and pushes wake
///       nothing. CKS/CKR use this to sleep until their polling pointer
///       reaches an input holding data, or while the output their latched
///       packet needs is full; the arbiter replays the skipped polls and
///       stalled retries. A flow-mode link answers its next modeled wake
///       whatever the FIFO activity;
///     - parked kernels are re-polled when a FIFO reported by their
///       blocker's `Blocker::WatchFifos` commits a transfer, or at the
///       blocker's `NextPollCycle` (timed waits sleep until their deadline);
///     - when no entity is due, the engine jumps `now` directly to the next
///       scheduled event, charging the skipped cycles to the idle watchdog
///       and max-cycles accounting exactly as if they had been stepped.
///
///   Wakes go into a two-level queue (the near/far split of a calendar
///   queue). On a streaming fabric nearly every entity is due again at the
///   next cycle, so a wake for `soon` — the next cycle the partition steps —
///   only sets the entity's bit in a dense bitset over component (or kernel)
///   ids. Later wakes go to a lazily invalidated min-heap, whose entries join
///   the bitsets when their cycle comes due. Walking the bits yields the due
///   entities in ascending id, i.e. registration order, which is exactly the
///   order the synchronous scheduler visits them in, so no sort is needed.
///   A non-empty bitset counts as an event at `soon` for the idle jump.
///
///   Kernel watches are sticky: a kernel that resumes keeps its FIFO watcher
///   entries, and they are replaced only when it parks on a blocker watching
///   a different list of FIFOs, or dropped when it finishes. The kernel
///   re-parks inside its own resume, before any commit, so every commit
///   still sees the current blocker's watch set. A watch outliving its
///   blocker could at worst cause an extra poll, which is harmless: the
///   synchronous scheduler polls every parked kernel every cycle.
/// * `SchedulerKind::kParallel` — a conservative-lookahead parallel
///   discrete-event scheduler (Chandy–Misra–Bryant style). Entities are
///   grouped into *partitions* by the tag active at registration time
///   (`SetPartitionTag`; the transport fabric tags everything with its rank).
///   Each partition runs the event-driven active-set loop above privately on
///   a worker thread; the only cross-partition edges are components
///   registered through `MarkCutComponent` (serial links), whose fixed
///   pipeline latency bounds how far one partition can influence another.
///   Partitions advance in *epochs* of up to `min(latency)` cycles between
///   global barriers, at which matured link payloads and delivery credits
///   are exchanged (see `CutLink`). `EngineConfig::threads` selects the
///   worker count; ranks are folded onto workers contiguously when there
///   are fewer threads than partition tags, and a link whose two endpoints
///   land on the same worker is not split at all.
///
/// ### Bit-identical guarantee
///
/// All three schedulers produce bit-identical results — same `RunStats`,
/// same FIFO traffic, same deadlock diagnostics at the same cycle. For the
/// event-driven scheduler the argument is the wake contract (see
/// component.h and kernel.h): skipping an entity is only allowed when its
/// synchronous-mode action would provably have been a no-op.
///
/// For the parallel scheduler the argument extends the FIFO
/// commit-semantics determinism to epochs:
///  * *Payload direction.* A payload accepted by a cut link at cycle `a`
///    matures at `a + latency`. With epoch length `E <= latency`, every
///    payload deliverable inside an epoch was accepted before the epoch
///    began and is therefore present in the receiver-side queue after the
///    preceding barrier — intra-epoch cross-partition visibility is
///    impossible by construction.
///  * *Credit direction.* The sender half may accept only while fewer than
///    `latency + 1` payloads are outstanding. Deliveries made by the
///    receiver during an epoch are not visible to the sender until the next
///    barrier, so the sender's credit count is an over-estimate, which can
///    only cause a spurious *stall*, never a spurious accept. Spurious
///    stalls are excluded by bounding each epoch with the link's *credit
///    slack*: with `W` payloads outstanding at barrier cycle `S` (after
///    applying the exactly-predictable delivery at `S` itself — the
///    receiver FIFO's cycle-`S` headroom is committed state at the
///    barrier), the sender accepts at most one payload per cycle, so its
///    stale count cannot reach `latency + 1` before cycle
///    `S + (latency + 1 - W)`. Epochs never extend past that cycle, so
///    every accept/stall decision inside an epoch equals the sequential
///    one. Under sustained saturation the slack degenerates to one cycle —
///    per-cycle barriers, still exact, merely slower.
///  * *Accounting.* Each partition records its last-progress cycle, its
///    kernel-resume log and its local app-kernel completion cycle; barriers
///    merge them so the deadlock watchdog, `max_cycles` guard and final
///    cycle/resume/link-packet counts fire and read exactly as under the
///    sequential schedulers (trailing intra-epoch activity after the
///    completion cycle is trimmed from the merged counters).
///
/// A differential test (tests/sim/engine_differential_test.cpp) runs all
/// three schedulers over the same traffic patterns at several thread counts
/// and asserts identical cycle counts, kernel resumes, link traffic and
/// payloads.

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/component.h"
#include "sim/fidelity.h"
#include "sim/fifo.h"
#include "sim/kernel.h"

namespace smi::obs {
class Recorder;
struct KernelProbe;
}

namespace smi::sim {

/// Which cycle-stepping strategy the engine uses. All produce bit-identical
/// results; the event-driven one is faster the idler the fabric is, the
/// parallel one additionally exploits thread-level parallelism between
/// partitions (ranks).
enum class SchedulerKind {
  kSynchronous,
  kEventDriven,
  kParallel,
};

struct EngineConfig {
  ClockConfig clock;
  /// Cycles without any FIFO transfer or application (non-daemon) kernel
  /// resume before the watchdog declares deadlock. Must comfortably exceed
  /// the longest structural latency in the fabric (links are ~100 cycles).
  Cycle watchdog_cycles = 100000;
  /// Hard cap on simulated cycles (0 = unlimited). A safety net for tests.
  Cycle max_cycles = 0;
  /// Scheduler selection; see the file comment.
  SchedulerKind scheduler = SchedulerKind::kEventDriven;
  /// Worker threads for SchedulerKind::kParallel (ignored otherwise).
  /// 0 = one worker per hardware thread. Clamped to the partition count.
  unsigned threads = 1;
  /// Collect per-component hardware counters (FIFO occupancy/stalls, CK
  /// polling, link utilization, kernel activity). Off by default: the
  /// instrumentation then compiles down to untaken null checks.
  bool collect_counters = false;
  /// Additionally record a Chrome trace-event timeline (kernel activity
  /// intervals and per-link packet hops); implies counter collection.
  bool collect_trace = false;
  /// Link-fidelity policy (see sim/fidelity.h). With mode kCycle (default)
  /// every FlowLink the fabric builds stays cycle-accurate; kFlow/kAuto let
  /// it switch to the calibrated flow-level model in steady state. The
  /// parallel scheduler pins every FlowLink to cycle accuracy for the
  /// duration of each Run, so results stay bit-identical.
  FidelityPolicy fidelity;
};

/// Result of a completed run.
struct RunStats {
  Cycle cycles = 0;
  double seconds = 0.0;
  std::uint64_t kernel_resumes = 0;
  /// Partitions actually used by the run (1 under sequential schedulers).
  unsigned partitions = 1;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineConfig& config() const { return config_; }
  Cycle now() const { return now_; }
  /// Stable address of the cycle counter the *current partition tag*'s
  /// kernels must observe. With no tag active this is the engine-global
  /// counter; after `SetPartitionTag(r)` it is rank r's clock slot, which
  /// tracks the global counter under sequential schedulers and rank r's
  /// private clock inside a parallel epoch.
  const Cycle* now_ptr() const;

  /// Select the partition tag for subsequently registered FIFOs, components
  /// and kernels (used by the parallel scheduler to derive partitions; the
  /// fabric tags each rank's entities with the rank id). Pass
  /// `kUntaggedPartition` to return to the untagged default, which lands in
  /// partition 0. Sequential schedulers ignore tags entirely.
  void SetPartitionTag(int tag);
  /// Partition tag applied to subsequently registered entities.
  int partition_tag() const { return current_tag_; }
  static constexpr int kUntaggedPartition = -1;

  /// Create and register a FIFO owned by the engine.
  template <typename T>
  Fifo<T>& MakeFifo(std::string name, std::size_t capacity) {
    auto fifo = std::make_unique<Fifo<T>>(std::move(name), capacity);
    Fifo<T>& ref = *fifo;
    ref.AttachScheduler(this, &whole_.dirty, fifos_.size());
    fifo_tags_.push_back(current_tag_);
    fifos_.push_back(std::move(fifo));
    return ref;
  }

  /// Register a component; the engine takes ownership and steps it once per
  /// cycle in registration order (the event-driven scheduler skips cycles
  /// where the component's wake contract proves Step would be a no-op).
  template <typename C, typename... Args>
  C& MakeComponent(Args&&... args) {
    auto component = std::make_unique<C>(std::forward<Args>(args)...);
    C& ref = *component;
    ref.engine_id_ = components_.size();
    comp_tags_.push_back(current_tag_);
    components_.push_back(std::move(component));
    return ref;
  }

  /// Declare `component` as a cross-partition cut edge between the
  /// partitions tagged `tx_tag` and `rx_tag` (its `CutLink` interface). When
  /// the parallel scheduler maps the two tags to different workers the
  /// component is split into its TX/RX halves; otherwise (and under the
  /// sequential schedulers) it steps monolithically as registered.
  void MarkCutComponent(Component& component, CutLink& cut, int tx_tag,
                        int rx_tag);

  /// Register a kernel coroutine. Daemon kernels (transport support kernels)
  /// do not keep the simulation alive: the run ends when every non-daemon
  /// kernel has finished.
  void AddKernel(Kernel kernel, std::string name, bool daemon = false);

  /// Run until all non-daemon kernels complete. Throws DeadlockError if the
  /// watchdog fires and rethrows any exception raised inside a kernel.
  RunStats Run();

  /// Step at most `cycles` cycles (for incremental tests); returns true if
  /// all non-daemon kernels are done. Always executes single-threaded (the
  /// parallel scheduler runs event-driven here).
  bool RunFor(Cycle cycles);

  /// Number of registered kernels that have not finished (incl. daemons).
  std::size_t pending_kernels() const;

  /// Schedule `fn` to run once, single-threaded, at the top of cycle `cycle`
  /// (before kernels poll and components step), under every scheduler. Under
  /// the parallel scheduler events are delivered at epoch barriers, so a
  /// caller that schedules events with a minimum lead time must also declare
  /// that lead time via ConstrainEpochLength — otherwise partitions may have
  /// advanced past `cycle` before the barrier arrives. Thread-safe: may be
  /// called from worker threads mid-epoch (e.g. a link death report).
  /// Events due at the same cycle run ordered by `order_key`, then by
  /// scheduling order, so cross-thread scheduling races cannot change
  /// execution order.
  void ScheduleGlobalEvent(Cycle cycle, std::uint64_t order_key,
                           std::function<void(Cycle)> fn);
  /// Earliest pending global event cycle, or kNeverCycle.
  Cycle NextGlobalEventCycle() const {
    return next_global_event_.load(std::memory_order_relaxed);
  }
  /// Permanently cap parallel epoch lengths at `bound` cycles (keeps the
  /// minimum across calls). Required by ScheduleGlobalEvent users whose
  /// events must not land inside an already-running epoch.
  void ConstrainEpochLength(Cycle bound);
  /// Request a step of `component` at `cycle` (used by global events that
  /// alter component state outside the normal wake sources). No-op before
  /// the first event-driven/parallel run is prepared; the synchronous
  /// scheduler steps everything anyway.
  void WakeComponentAt(Component& component, Cycle cycle);

  /// Register a hybrid-fidelity link (called from the FlowLink constructor).
  /// Registered links are demoted at collective sync points and pinned to
  /// cycle accuracy across parallel runs.
  void RegisterFlowLink(FlowLinkControl* link);
  /// Collective synchronization point (channel open/close): demote every
  /// flow-mode link to cycle accuracy so the rendezvous traffic is timed
  /// exactly. No-op while a parallel run is in flight (links are already
  /// pinned) and when no FlowLinks exist.
  void FidelitySyncPoint();
  /// Registered hybrid-fidelity links, in registration order (for reports).
  const std::vector<FlowLinkControl*>& flow_links() const {
    return flow_links_;
  }

  /// Telemetry recorder, created lazily at the first Run with
  /// `collect_counters`/`collect_trace` set; null when collection is off.
  /// Counters and trace buffers are finalized when Run returns.
  obs::Recorder* recorder() const { return recorder_.get(); }

 private:
  struct KernelSlot {
    Kernel kernel;
    std::string name;
    bool daemon = false;
    bool done = false;
    // Event-driven scheduling state.
    Cycle next_poll = kNeverCycle;  ///< scheduled poll cycle (kNever = none)
    std::vector<std::size_t> watching;  ///< FIFO indices with a watch entry
    obs::KernelProbe* probe = nullptr;  ///< telemetry block (null = off)
  };
  struct ComponentRec {
    Cycle next_wake = kNeverCycle;  ///< scheduled step cycle (kNever = none)
    /// Cycle of the component's latest wake-heap entry while it is queued
    /// (kNever = none): a wake at that cycle needs no second entry.
    Cycle heap_wake = kNeverCycle;
  };
  /// A component's declared role on a FIFO: which component, and the
  /// FIFO's slot among that component's inputs or outputs.
  struct RoleSub {
    std::size_t component = kNoComponent;
    std::size_t slot = 0;
  };
  static constexpr std::size_t kNoComponent = static_cast<std::size_t>(-1);
  struct FifoRec {
    std::vector<std::size_t> kernel_watchers;  ///< parked kernels to re-poll
    RoleSub popper;  ///< declared it an input; told of pushes
    RoleSub pusher;  ///< declared it an output; told of pops
  };
  /// Min-heap of (cycle, entity index) with lazy deletion: an entry is live
  /// iff it matches the entity's currently scheduled cycle.
  using WakeHeap =
      std::priority_queue<std::pair<Cycle, std::size_t>,
                          std::vector<std::pair<Cycle, std::size_t>>,
                          std::greater<std::pair<Cycle, std::size_t>>>;

  /// One partition's worth of event-driven scheduler state. The sequential
  /// schedulers use a single instance (`whole_`) spanning every entity; the
  /// parallel scheduler builds one per worker with disjoint entity sets.
  struct Partition {
    int index = 0;
    /// Master clock. Points at Engine::now_ for `whole_`, at
    /// `clock_storage` for parallel partitions.
    Cycle* clock = nullptr;
    Cycle clock_storage = 0;
    /// Per-tag clock slots (and, for partition 0, Engine::now_) kept in
    /// lockstep with the master so kernel promises see the right cycle.
    std::vector<Cycle*> mirrors;
    Cycle epoch_end = kNeverCycle;

    // Accounting (merged at epoch barriers under the parallel scheduler).
    Cycle last_progress_p1 = 0;  ///< (cycle of last local progress) + 1
    std::uint64_t resumes = 0;
    bool log_resumes = false;
    std::vector<std::pair<Cycle, std::uint32_t>> resume_log;  ///< this epoch
    std::size_t app_pending = 0;
    Cycle app_done_p1 = 0;  ///< (cycle the last local app kernel finished)+1

    // Entity sets (global indices).
    std::vector<std::size_t> components;
    std::vector<std::size_t> kernels;
    std::vector<std::size_t> fifo_ids;

    // Event machinery: a two-level wake queue. A wake for `soon`, the next
    // cycle this partition steps, sets the entity's bit in a dense bitset
    // indexed by entity id; a later wake goes to the heap and joins the
    // bitset when its cycle comes due. Sized in PreparePartition.
    std::vector<FifoBase*> dirty;
    Cycle soon = 0;
    bool soon_pending = false;  ///< some bit is set in a `*_soon` bitset
    std::vector<std::uint64_t> comp_soon;
    std::vector<std::uint64_t> kernel_soon;
    WakeHeap comp_heap;
    WakeHeap kernel_heap;
    std::vector<std::size_t> due_components;
    std::vector<std::size_t> due_kernels;
    std::vector<const FifoBase*> watch_scratch;
    std::vector<std::size_t> watch_ids;  ///< CollectWatches output
    FifoRoles declared_roles;

    // Worker-side error capture.
    std::exception_ptr error;
    Cycle error_cycle = kNeverCycle;
  };

  struct CutRec {
    Component* component = nullptr;
    CutLink* cut = nullptr;
    int tx_tag = 0;
    int rx_tag = 0;
    // Per-parallel-run state: whether the cut was actually split, which
    // partitions own the halves and the adapter component indices.
    bool split = false;
    int tx_part = 0;
    int rx_part = 0;
    std::size_t tx_comp = 0;
    std::size_t rx_comp = 0;
  };

  /// One synchronous simulation cycle; returns true if progress happened.
  bool StepCycleSync();
  /// One event-driven cycle on `p` (only due entities are visited).
  bool StepCycleEvent(Partition& p);
  bool AllAppKernelsDone() const;
  void CheckKernelException(KernelSlot& slot);
  [[noreturn]] void RaiseDeadlock(bool with_partitions);

  // Event-driven machinery (partition-scoped).
  void PrepareWholePartition();
  void PreparePartition(Partition& p);
  void ScheduleComponent(Partition& p, std::size_t index, Cycle cycle);
  void ScheduleKernel(Partition& p, std::size_t index, Cycle cycle);
  /// Pop the top of `p.comp_heap`, keeping ComponentRec::heap_wake exact.
  void PopComponentWake(Partition& p);
  /// Fill `p.watch_ids` with the FIFOs of this engine that the kernel's
  /// blocker watches; throws ConfigError for a FIFO of another partition.
  void CollectWatches(Partition& p, std::size_t kernel_index);
  /// Register the kernel as a watcher of every FIFO in `p.watch_ids`.
  void RegisterWatch(Partition& p, std::size_t kernel_index);
  void UnregisterWatch(std::size_t kernel_index);
  void ParkKernel(Partition& p, std::size_t kernel_index);
  /// Earliest scheduled component/kernel cycle, or kNeverCycle if none.
  Cycle NextEventCycle(Partition& p);
  /// Set `p`'s clock (master + mirrors) and its `soon` cycle to `target`.
  void AdvanceClock(Partition& p, Cycle target);
  /// Advance `whole_`'s clock to `target`, charging the skipped cycles to
  /// watchdog/max-cycles accounting when `accounted`.
  void JumpIdleCycles(Cycle target, bool accounted);
  RunStats FinishRun(unsigned partitions);
  void AppendResumeLog(Partition& p, Cycle cycle);
  /// Run every pending global event with cycle <= now (see
  /// ScheduleGlobalEvent). Single-threaded: called from the sequential
  /// loops' cycle tops and from the parallel barrier.
  void RunGlobalEventsAt(Cycle now);
  /// Create the recorder (if configured) and attach counter blocks to any
  /// not-yet-attached FIFOs, components and kernels, in registration order.
  void EnsureObservability();

  // Parallel machinery (engine_parallel portion of engine.cpp).
  RunStats RunParallel();
  void PrepareParallelRun(unsigned workers);
  void CleanupParallelRun();
  void RunPartitionEpoch(Partition& p);
  void RunPartitionEpochGuarded(Partition& p);
  void RefreshWholeClock();

  EngineConfig config_;
  Cycle now_ = 0;
  Cycle idle_cycles_ = 0;
  std::vector<std::unique_ptr<FifoBase>> fifos_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<KernelSlot> kernels_;

  // Partition tags. `tag_clocks_` is a deque so slot addresses stay stable
  // as tags are added (kernel promises keep pointers into it).
  int current_tag_ = kUntaggedPartition;
  std::map<int, std::size_t> tag_slots_;
  std::deque<Cycle> tag_clocks_;
  std::vector<int> fifo_tags_;
  std::vector<int> comp_tags_;
  std::vector<int> kernel_tags_;
  std::vector<CutRec> cuts_;

  // Hybrid-fidelity links (see sim/fidelity.h).
  std::vector<FlowLinkControl*> flow_links_;
  bool parallel_active_ = false;

  // Global events (see ScheduleGlobalEvent). Guarded by the mutex because
  // worker threads may schedule mid-epoch; executed only single-threaded.
  struct GlobalEvent {
    Cycle cycle = 0;
    std::uint64_t order_key = 0;
    std::uint64_t seq = 0;
    std::function<void(Cycle)> fn;
  };
  mutable std::mutex global_events_mutex_;
  std::vector<GlobalEvent> global_events_;
  std::uint64_t global_event_seq_ = 0;
  std::atomic<Cycle> next_global_event_{kNeverCycle};
  Cycle epoch_cap_external_ = kNeverCycle;

  // Entity -> partition maps, resolved per run (all zero for sequential).
  std::vector<int> fifo_part_;
  std::vector<int> comp_part_;
  std::vector<int> kernel_part_;

  // Global scheduling records, indexed by entity id. Parallel partitions
  // own disjoint entity sets, so concurrent access stays race-free.
  std::vector<ComponentRec> comp_recs_;
  std::vector<FifoRec> fifo_recs_;

  /// The all-entities partition used by the sequential schedulers (and as
  /// the default dirty-list target for newly created FIFOs).
  Partition whole_;
  /// Parallel partitions (built per Run; deque for stable addresses).
  std::deque<Partition> partitions_;
  std::size_t base_component_count_ = 0;  ///< components before adapters

  // Telemetry (see obs/recorder.h). Attach watermarks track how many
  // entities have been handed their counter blocks, so entities registered
  // between runs are picked up by the next Run.
  std::unique_ptr<obs::Recorder> recorder_;
  std::size_t obs_fifos_ = 0;
  std::size_t obs_comps_ = 0;
  std::size_t obs_kernels_ = 0;
};

/// RAII helper for code that registers rank-local entities outside the
/// fabric (application DRAM stream FIFOs, inter-kernel FIFOs, ...): sets the
/// engine's partition tag for the enclosing scope and restores the previous
/// tag on exit, so every FIFO/component/kernel created inside the scope is
/// co-located with the rank it belongs to under the parallel scheduler.
class PartitionTagScope {
 public:
  PartitionTagScope(Engine& engine, int tag)
      : engine_(engine), previous_(engine.partition_tag()) {
    engine_.SetPartitionTag(tag);
  }
  ~PartitionTagScope() { engine_.SetPartitionTag(previous_); }
  PartitionTagScope(const PartitionTagScope&) = delete;
  PartitionTagScope& operator=(const PartitionTagScope&) = delete;

 private:
  Engine& engine_;
  int previous_;
};

}  // namespace smi::sim

#endif  // SMI_SIM_ENGINE_H
