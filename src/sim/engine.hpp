// Timing engine — phase two of the two-phase execution model.
//
// Each processor holds a queue of recorded accesses from its current task
// firing and a local clock. The engine always advances the processor with
// the smallest clock, so accesses from different processors interleave at
// the shared L2 in global time order, and each access's measured latency
// feeds back into the issuing processor's clock (and hence into the
// production/consumption rates of the KPN — the mechanism behind the
// paper's predictability discussion in section 3).
//
// Scheduling cost: processors stay sorted by (clock, index) and only the
// one that acted is re-inserted, and a processor that steps an access
// keeps stepping while the next iteration would pick it again anyway (see
// run() in engine.cpp for the bound). Work that grows with the task count
// (Os::pick, the phase drain check, the finished predicate) is left to
// processors with an empty queue and to firing boundaries.
//
// Thread-safety: a TimingEngine (and the Platform, Os and tasks it drives)
// is thread-confined — it owns all of its mutable state and touches no
// globals beyond immutable constant tables and the atomic log level, so
// any number of engines may run concurrently on different threads as long
// as each engine's object graph stays on its own thread (the contract
// core::Campaign relies on; see ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"
#include "sim/results.hpp"
#include "sim/task.hpp"

namespace cms::sim {

class TimingEngine {
 public:
  /// `finished` — optional application-level termination predicate (e.g.
  /// "the sink consumed all frames"); when absent the engine runs until
  /// every task reports done() or no task can fire. It is read once before
  /// the first dispatch and once after every firing — never between two
  /// accesses — so it must depend only on functional (firing-driven)
  /// state, not on how often it is called.
  TimingEngine(Platform& platform, Os& os, std::vector<Task*> tasks,
               std::function<bool()> finished = nullptr);

  /// Human-readable names for buffer ids (used in the result records).
  void set_buffer_names(std::map<BufferId, std::string> names) {
    buffer_names_ = std::move(names);
  }

  /// Periodic hook, called whenever simulated time crosses a multiple of
  /// `length` cycles (used by dynamic cache-repartitioning policies in
  /// the spirit of Suh et al. [10]).
  using EpochHook = std::function<void(Cycle now, mem::MemoryHierarchy&)>;
  void set_epoch_hook(Cycle length, EpochHook hook) {
    epoch_length_ = length;
    epoch_hook_ = std::move(hook);
  }

  /// Streaming phase support: partition the tasks into consecutive
  /// phases. A task only becomes dispatchable once its phase is active,
  /// and phase k+1 activates when every task of phase k is done() — the
  /// app mix changes mid-run, deterministically (activation depends on
  /// task completion, never on wall clock or worker interleaving). Every
  /// engine task must appear in exactly one phase; anything else throws
  /// std::invalid_argument. Phase 0 is active from the start.
  void set_phase_schedule(const std::vector<std::vector<TaskId>>& phases);

  /// Fired on each phase ACTIVATION (phase >= 1, at the earliest
  /// processor clock of that iteration) — the seam plan-driven
  /// repartitioning installs per-phase layouts through. Not fired for
  /// phase 0: install its layout before run(), like any initial plan.
  using PhaseHook =
      std::function<void(std::size_t phase, Cycle now, mem::MemoryHierarchy&)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  std::size_t active_phase() const { return active_phase_; }
  /// Activation cycle of each phase reached so far (index 0 is always 0).
  const std::vector<Cycle>& phase_entry_cycles() const { return phase_entry_; }

  /// Run to completion and collect results. Statistics of the hierarchy
  /// are reset at the start of the run.
  SimResults run();

 private:
  struct ProcState {
    Cycle clock = 0;
    int current = -1;  // index into tasks_, -1 = none
    std::uint32_t quantum_left = 0;
    /// Accesses of the current firing (the recorder's vector, moved in
    /// at dispatch and released once drained), replayed from `next` on.
    std::vector<MemAccess> pending;
    std::size_t next = 0;
    ProcRunStats stats;

    bool drained() const { return next == pending.size(); }
  };

  /// Dispatch one firing of tasks_[idx] on proc `p` (functional phase).
  void dispatch(ProcState& ps, std::size_t p, int idx);
  /// Replay the next pending access of proc `p` (timing phase).
  void step_access(ProcState& ps, std::size_t p);
  /// Activate every phase whose predecessor has fully drained (firing the
  /// phase hook per activation).
  void advance_phases(Cycle now);
  /// Does processor `a` go before `b`? Earlier clock first, ties by index.
  bool before(std::size_t a, std::size_t b) const {
    return procs_[a].clock < procs_[b].clock ||
           (procs_[a].clock == procs_[b].clock && a < b);
  }
  /// Move order_[pos] back to its place after its clock advanced.
  void reinsert(std::size_t pos);
  bool all_done() const;
  SimResults collect(bool deadlocked, bool hit_limit);

  Platform& platform_;
  Os& os_;
  std::vector<Task*> tasks_;
  std::function<bool()> finished_;
  std::map<BufferId, std::string> buffer_names_;

  std::vector<ProcState> procs_;
  /// Processor indices sorted by before(); clocks only grow, so keeping
  /// it sorted means moving the processor that acted toward the back.
  std::vector<std::size_t> order_;
  std::vector<TaskRunStats> task_stats_;
  /// Tasks Os::pick must skip: a firing is in flight, or the task's phase
  /// is not active yet. Updated where that changes — dispatch, a queue
  /// draining, phase activation.
  std::vector<bool> busy_;
  std::uint64_t dispatches_ = 0;
  Cycle epoch_length_ = 0;
  EpochHook epoch_hook_;
  Cycle next_epoch_ = 0;

  std::vector<std::size_t> phase_of_;  // task index -> phase; empty = unphased
  std::size_t num_phases_ = 0;
  std::size_t active_phase_ = 0;
  PhaseHook phase_hook_;
  std::vector<Cycle> phase_entry_ = {0};
};

}  // namespace cms::sim
