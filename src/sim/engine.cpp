#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace cms::sim {

TimingEngine::TimingEngine(Platform& platform, Os& os, std::vector<Task*> tasks,
                           std::function<bool()> finished)
    : platform_(platform), os_(os), tasks_(std::move(tasks)),
      finished_(std::move(finished)) {
  procs_.resize(platform_.num_procs());
  order_.resize(procs_.size());
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    procs_[p].stats.id = static_cast<ProcId>(p);
    order_[p] = p;
  }
  task_stats_.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    task_stats_[i].id = tasks_[i]->id();
    task_stats_[i].name = tasks_[i]->name();
  }
  busy_.assign(tasks_.size(), false);
}

void TimingEngine::dispatch(ProcState& ps, std::size_t p, int idx) {
  Task* task = tasks_[static_cast<std::size_t>(idx)];
  const PlatformConfig& cfg = platform_.config();

  if (ps.current != idx) {
    if (ps.current != -1)
      platform_.hierarchy().on_task_switch(static_cast<ProcId>(p));
    ps.clock += cfg.task_switch_cost;
    ps.stats.switch_cycles += cfg.task_switch_cost;
    ++ps.stats.switches;
    // Scheduler work touches the runtime's static data/bss segments. The
    // scheduler reads the same run-queue structures on every switch (a
    // small per-processor window), which is why the paper's "rt data" /
    // "rt bss" clients are satisfied by a few exclusive sets.
    const Cycle before = ps.clock;
    for (const Region* r : {&cfg.rt_data, &cfg.rt_bss}) {
      if (r->size == 0 || cfg.switch_touch_bytes == 0) continue;
      const std::uint64_t stride = platform_.config().hier.l1.line_bytes;
      const std::uint64_t offset = (p * cfg.switch_touch_bytes) % r->size;
      for (std::uint64_t b = 0; b < cfg.switch_touch_bytes; b += stride) {
        const Addr a = r->base + (offset + b) % r->size;
        const auto type = (r == &cfg.rt_bss) ? AccessType::kWrite : AccessType::kRead;
        const auto out = platform_.hierarchy().access(
            static_cast<ProcId>(p), task->id(), a, 4, type, ps.clock);
        ps.clock = out.finish;
      }
    }
    ps.stats.switch_cycles += ps.clock - before;
    ps.current = idx;
    ps.quantum_left = cfg.quantum_firings;
  }
  if (ps.quantum_left > 0) --ps.quantum_left;

  TaskContext ctx(&task->recorder(), &task->regions());
  task->fire(ctx);
  auto trace = task->recorder().take();

  TaskRunStats& tst = task_stats_[static_cast<std::size_t>(idx)];
  ++tst.firings;
  const std::uint64_t instr = trace.compute_cycles + trace.accesses;
  tst.instructions += instr;
  ps.stats.instructions += instr;
  ++dispatches_;

  // Only dispatched from a drained processor, so nothing is overwritten.
  assert(ps.drained());
  ps.pending = std::move(trace.events);
  ps.next = 0;
  busy_[static_cast<std::size_t>(idx)] = !ps.drained();
}

void TimingEngine::charge(ProcState& ps, Cycle gap, Cycle latency,
                          std::uint32_t l2_misses) {
  TaskRunStats& tst = task_stats_[static_cast<std::size_t>(ps.current)];
  tst.compute_cycles += gap;
  tst.mem_cycles += latency;
  tst.active_cycles += gap + latency;
  tst.l2_demand_misses += l2_misses;
  ps.stats.busy_cycles += gap + latency;
  ps.clock += gap + latency;
}

void TimingEngine::step_access(ProcState& ps, std::size_t p) {
  assert(ps.current >= 0 && !ps.drained());
  const MemAccess& a = ps.pending[ps.next++];
  const auto cur = static_cast<std::size_t>(ps.current);

  if (a.size > 0) {
    const Cycle start = ps.clock + a.gap;
    const auto out = platform_.hierarchy().access(
        static_cast<ProcId>(p), tasks_[cur]->id(), a.addr, a.size, a.type,
        start);
    charge(ps, a.gap, out.finish - start, out.l2_misses);
  } else {
    charge(ps, a.gap, 0, 0);
  }
  if (ps.drained()) {
    // The firing is over: its task may be picked again, and its events
    // are released rather than held until this processor's next dispatch.
    busy_[cur] = false;
    ps.pending = std::vector<MemAccess>();
    ps.next = 0;
  }
}

bool TimingEngine::step_l1_hit(ProcState& ps, std::size_t p) {
  // The last access is left to the scheduling loop: its drain frees the
  // task for other processors (busy_).
  if (ps.pending.size() - ps.next < 2) return false;
  const MemAccess& a = ps.pending[ps.next];
  if (a.size > 0 && !platform_.hierarchy().access_l1_hit(
                        static_cast<ProcId>(p), a.addr, a.size, a.type))
    return false;
  ++ps.next;
  charge(ps, a.gap,
         a.size > 0 ? platform_.hierarchy().config().l1_hit_latency : 0, 0);
  return true;
}

void TimingEngine::reinsert(std::size_t pos) {
  const std::size_t p = order_[pos];
  for (; pos + 1 < order_.size() && before(order_[pos + 1], p); ++pos)
    order_[pos] = order_[pos + 1];
  order_[pos] = p;
}

void TimingEngine::set_phase_schedule(
    const std::vector<std::vector<TaskId>>& phases) {
  std::vector<std::size_t> phase_of(tasks_.size(),
                                    std::numeric_limits<std::size_t>::max());
  for (std::size_t k = 0; k < phases.size(); ++k) {
    for (const TaskId id : phases[k]) {
      std::size_t idx = tasks_.size();
      for (std::size_t i = 0; i < tasks_.size(); ++i)
        if (tasks_[i]->id() == id) {
          idx = i;
          break;
        }
      if (idx == tasks_.size())
        throw std::invalid_argument("phase schedule names task " +
                                    std::to_string(id) +
                                    ", which this engine does not run");
      if (phase_of[idx] != std::numeric_limits<std::size_t>::max())
        throw std::invalid_argument("phase schedule lists task " +
                                    std::to_string(id) + " twice (phases " +
                                    std::to_string(phase_of[idx]) + " and " +
                                    std::to_string(k) + ")");
      phase_of[idx] = k;
    }
  }
  for (std::size_t i = 0; i < phase_of.size(); ++i)
    if (phase_of[i] == std::numeric_limits<std::size_t>::max())
      throw std::invalid_argument("phase schedule misses task " +
                                  std::to_string(tasks_[i]->id()) + " (" +
                                  tasks_[i]->name() + ")");
  phase_of_ = std::move(phase_of);
  num_phases_ = phases.size();
  active_phase_ = 0;
  phase_entry_ = {0};
}

void TimingEngine::advance_phases(Cycle now) {
  // Earlier phases are drained by induction: a phase only activates once
  // its predecessor's tasks are all done, and done tasks stay done.
  while (active_phase_ + 1 < num_phases_) {
    bool drained = true;
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      if (phase_of_[i] == active_phase_ && !tasks_[i]->done()) {
        drained = false;
        break;
      }
    if (!drained) break;
    ++active_phase_;
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      if (phase_of_[i] == active_phase_) busy_[i] = false;
    phase_entry_.push_back(now);
    if (phase_hook_) phase_hook_(active_phase_, now, platform_.hierarchy());
  }
}

bool TimingEngine::all_done() const {
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [](const Task* t) { return t->done(); });
}

SimResults TimingEngine::run() {
  platform_.hierarchy().reset_stats();
  bool deadlocked = false;
  bool hit_limit = false;

  // Tasks of phases not yet active stay masked until advance_phases
  // activates them; Os::pick and the quantum-keep path both honor busy_.
  if (num_phases_ > 1)
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      if (phase_of_[i] > active_phase_) busy_[i] = true;

  const bool epochs = epoch_hook_ && epoch_length_ > 0;
  // Epoch checks and phase activation read the minimum clock between
  // firings, which a processor running ahead through its L1 hits could
  // be; such runs keep to the (clock, index) order.
  const bool hits_run_ahead = !epochs && num_phases_ <= 1;
  // Set by every firing, the only event that can change task done() /
  // can_fire(), the finished predicate or a phase's drain state.
  bool fired = true;
  bool app_finished = false;

  for (;;) {
    if (dispatches_ >= platform_.config().max_dispatches) {
      hit_limit = true;
      break;
    }
    const Cycle now = procs_[order_[0]].clock;
    if (fired) {
      app_finished = finished_ && finished_();
      // Phase bookkeeping runs BEFORE the dispatch scan of the same
      // iteration: the moment a phase drains, its successor's tasks are
      // already eligible below — a fully gated network can never be
      // mistaken for a deadlock.
      if (num_phases_ > 1) advance_phases(now);
      fired = false;
    }

    if (epochs && now >= next_epoch_) {
      epoch_hook_(now, platform_.hierarchy());
      next_epoch_ = (now / epoch_length_ + 1) * epoch_length_;
    }

    // Visit processors in (clock, index) order; the earliest one that can
    // act (replay a pending access, or dispatch a new firing) does so.
    // This keeps shared-L2 interleaving close to global time order while
    // never stalling on a processor that simply has nothing to run.
    bool acted = false;
    for (std::size_t pos = 0; pos < order_.size(); ++pos) {
      const std::size_t p = order_[pos];
      ProcState& ps = procs_[p];
      if (!ps.drained()) {
        step_access(ps, p);
        // Run ahead: p keeps stepping for as long as the next iteration
        // would pick it again. The processors visited before it could not
        // act, and nothing they depend on (done(), can_fire(), busy_, the
        // dispatch count, the phase state) changes before the next firing
        // or before p's queue drains; Os::pick has no side effect when it
        // finds nothing. So p is picked again while it still sorts before
        // every unvisited processor and no epoch boundary is due.
        while (!ps.drained() &&
               (pos + 1 == order_.size() || before(p, order_[pos + 1])) &&
               (!epochs || procs_[order_[0]].clock < next_epoch_))
          step_access(ps, p);
        // Then p runs on through its L1 hits and gap carriers, out of
        // (clock, index) order. Such a step touches only p's L1 (which
        // only p's own dispatch flushes), p's clock and p's and its
        // task's counters, so it commutes with every other processor's
        // step. Others see p only through the order, through busy_ and
        // task state, and through `now`: busy_ changes at a drain, so the
        // last access is never stepped here, and a dispatcher has only
        // drained processors ahead of it, so its `now` is never a clock
        // that ran ahead (ARCHITECTURE.md, "Timing engine").
        if (hits_run_ahead)
          while (step_l1_hit(ps, p)) ++run_ahead_steps_;
        reinsert(pos);
        acted = true;
        break;
      }
      if (app_finished) continue;
      // Within its quantum a task keeps its processor if it can fire again.
      int idx = -1;
      if (ps.current != -1 && ps.quantum_left > 0 &&
          !busy_[static_cast<std::size_t>(ps.current)] &&
          !tasks_[static_cast<std::size_t>(ps.current)]->done() &&
          tasks_[static_cast<std::size_t>(ps.current)]->can_fire()) {
        idx = ps.current;
      } else {
        idx = os_.pick(static_cast<ProcId>(p), tasks_, busy_);
      }
      if (idx >= 0) {
        // A processor that fell behind while idle joins the present: work
        // becoming available cannot start in its past.
        ps.clock = std::max(ps.clock, now);
        dispatch(ps, p, idx);
        reinsert(pos);
        fired = true;
        acted = true;
        break;
      }
    }
    if (acted) continue;

    // No processor can replay or dispatch anything.
    deadlocked = !app_finished && !all_done();
    break;
  }

  // Idle time = the span the processor's clock lags the makespan plus any
  // wait gaps already absorbed into its clock.
  Cycle makespan = 0;
  for (const auto& ps : procs_) makespan = std::max(makespan, ps.clock);
  for (auto& ps : procs_) {
    const Cycle accounted = ps.stats.busy_cycles + ps.stats.switch_cycles;
    ps.stats.idle_cycles = makespan > accounted ? makespan - accounted : 0;
  }

  return collect(deadlocked, hit_limit);
}

SimResults TimingEngine::collect(bool deadlocked, bool hit_limit) {
  SimResults res;
  res.deadlocked = deadlocked;
  res.hit_dispatch_limit = hit_limit;
  res.dispatches = dispatches_;

  const mem::PartitionedCache& l2 = platform_.hierarchy().l2();
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRunStats t = task_stats_[i];
    t.l2 = l2.client_stats(mem::ClientId::task(tasks_[i]->id()));
    res.tasks.push_back(std::move(t));
  }
  for (const auto& [client, stats] : l2.all_client_stats()) {
    if (!client.is_buffer()) continue;
    BufferRunStats b;
    b.id = client.id;
    const auto it = buffer_names_.find(client.id);
    b.name = it != buffer_names_.end() ? it->second
                                       : ("buffer" + std::to_string(client.id));
    b.l2 = stats;
    res.buffers.push_back(std::move(b));
  }
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    ProcRunStats st = procs_[p].stats;
    st.cycles = procs_[p].clock;
    res.procs.push_back(st);
    res.makespan = std::max(res.makespan, procs_[p].clock);
    res.total_instructions += st.instructions;
  }
  res.l2_accesses = l2.stats().accesses;
  res.l2_misses = l2.stats().misses;
  res.traffic = platform_.hierarchy().traffic();
  return res;
}

}  // namespace cms::sim
