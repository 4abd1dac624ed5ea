#ifndef GSLS_SOLVER_PARALLEL_H_
#define GSLS_SOLVER_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "analysis/dynamic_condensation.h"
#include "ground/ground_program.h"
#include "obs/trace.h"
#include "solver/solver.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace gsls::solver {

/// The condensation DAG in scheduling form: deduplicated successor lists
/// (flat CSR). Components at the same depth share no edges and may run on
/// different workers; a component is ready the moment its last
/// predecessor is final.
///
/// With a `disabled` mask the DAG covers the enabled subprogram — it must,
/// once rule retraction can leave a disabled rule's edge *ascending* under
/// a repaired condensation (a cycle in scheduling order would deadlock the
/// release counters). Fact deltas still reuse one DAG verbatim (unit rules
/// have no body and hence no edges), and rule deltas patch it in place:
/// `AppendIsolated` for newly interned atoms, `Splice` for a
/// `DynamicCondensation` repair. Edges of rules retracted *after*
/// construction may linger until the next splice touches them — they
/// descend under every later renumbering, so they only add conservative
/// ordering, never a cycle.
class ComponentDag {
 public:
  ComponentDag(const GroundProgram& gp, const AtomDependencyGraph& graph,
               const std::vector<uint8_t>* disabled = nullptr);

  uint32_t component_count() const {
    return static_cast<uint32_t>(succ_.rows());
  }
  /// Components with an edge from `c` (strictly larger ids, deduplicated).
  std::span<const uint32_t> Successors(uint32_t c) const {
    return succ_.Row(c);
  }

  /// Appends isolated components (no edges) so the DAG covers
  /// ids up to `new_component_count` — the scheduling mirror of
  /// `DynamicCondensation::AddAtoms`.
  void AppendIsolated(uint32_t new_component_count);

  /// Patches the DAG after a condensation repair, without rescanning the
  /// rule set: rows of components outside the repair window are kept and
  /// their targets remapped through `rep.old_to_new` (merged targets
  /// dedup), rows of the window's new components are recomputed from the
  /// occurrence index, and `rep.new_edges` are folded in. Requires
  /// `!rep.split()` — a split fans one old id out to several and the
  /// caller must rebuild instead.
  void Splice(const GroundProgram& gp, const AtomDependencyGraph& graph,
              const std::vector<uint8_t>* disabled,
              const CondensationRepair& rep);

 private:
  Csr<uint32_t> succ_;
};

/// Turns a `SolverOptions::num_threads` request into an actual worker
/// count (0 resolves to the hardware concurrency, minimum 1).
unsigned ResolveThreadCount(unsigned requested);

/// Sentinel for `SlotFn`: the successor takes no part in this schedule.
inline constexpr uint32_t kNoScheduleSlot = UINT32_MAX;

/// The ready-release engine under `ConeExecutor`'s threaded passes — the
/// one copy of the race-sensitive discipline. Starting from `seeds`
/// (components whose scheduled predecessors are all final), each worker
/// runs `process(worker, comp)` — returning true iff the component may
/// release its successors — then walks `successors(comp)`: a successor
/// mapping to `kNoScheduleSlot` under `slot` is outside the schedule and
/// skipped; otherwise its `pending[slot(s)]` counter is decremented, and
/// the worker that takes it to zero owns the successor — continuing into
/// the first such successor inline (a chain of tiny components runs as a
/// tight loop, no queue round-trip) and queueing the rest.
///
/// A false return from `process` (a cancellation abort) releases nothing:
/// the component's successors keep their pending counts and are never
/// scheduled, so the aborted cone simply drains — workers finish the tasks
/// already queued (each of which re-checks the cancel context at its own
/// component boundary and returns false immediately) and the pool's final
/// barrier still closes. The caller reconstructs which components ran from
/// its own bookkeeping, not from the scheduler.
///
/// Memory ordering: `process` writes its component's results with plain
/// stores; the `acq_rel` on the decrement makes every such write visible
/// to whichever worker releases (and later processes) the successor, and
/// transitively to everything downstream. `pending` must start at each
/// scheduled component's count of scheduled predecessors.
template <typename Process, typename SuccessorsFn, typename SlotFn>
void RunReadyReleaseSchedule(WorkStealingPool* pool,
                             std::span<const uint32_t> seeds,
                             std::atomic<uint32_t>* pending,
                             Process&& process, SuccessorsFn&& successors,
                             SlotFn&& slot) {
  pool->Run(seeds, [&](unsigned worker, uint32_t task) {
    constexpr uint32_t kNone = UINT32_MAX;
    for (uint32_t c = task; c != kNone;) {
      if (!process(worker, c)) break;
      uint32_t next = kNone;
      for (uint32_t s : successors(c)) {
        uint32_t ps = slot(s);
        if (ps == kNoScheduleSlot) continue;
        if (pending[ps].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (next == kNone) {
            next = s;
          } else {
            pool->Push(worker, s);
          }
        }
      }
      c = next;
    }
  });
}

/// What one cone step did with its component.
enum class ConeStep : uint8_t {
  kAborted,    ///< a checkpoint stopped it; it holds its entry state
  kUnchanged,  ///< finalized; no value or stage moved
  kChanged,    ///< finalized; something moved (dependents were flagged)
};

/// One worker's private state in a cone pass, cache-line padded so
/// neighbouring workers never share a line. Reset at every pass start
/// except the step scratch, whose capacity is reused.
struct alignas(64) ConeLane {
  SolverDiagnostics diag;            ///< merged by the caller after a pass
  std::vector<uint32_t> finalized;   ///< components finalized, in order
  std::vector<uint32_t> outside;     ///< flagged outside scope; may repeat
  uint64_t unchanged = 0;            ///< finalized with nothing moved
  std::vector<TruthValue> old_vals;  ///< step scratch (value snapshot)
  std::vector<uint32_t> old_stages;  ///< step scratch (stage snapshot)
};

/// The one schedule of every whole-model and cone pass: the components of
/// a scope, each through a caller step, in dependency order.
///
/// A `Plan` names the pass kind and its *seeds* (components whose own
/// inputs changed): a fresh pass runs every component; an up-cone pass
/// (everything reachable from the seeds) and a members pass (an explicit
/// ascending list, such as a query's down-cone) are *change-pruned* — a
/// non-seed member runs only once a finalized predecessor flags it.
/// `step(lane, comp, flag)` solves one component and calls
/// `flag(head_comp)` for every dependent whose input moved; it is a
/// template parameter, so there is no indirect call per component. A
/// flagged component inside the scope is marked to run; one outside it
/// lands in the lane's `outside` list.
///
/// `Parallel` picks the schedule from the input alone. Sequential (one
/// thread, or a single seed component): a min-heap of marked components
/// keyed by id (= dependency order), so a streaming delta whose change
/// dies within a few components touches only those. Threaded:
/// `RunReadyReleaseSchedule` over the scope; a released member whose mark
/// is unset just releases its successors. Both finalize the same
/// components with the same values, so models, stage levels and the step
/// count (one boundary checkpoint each) are thread-count invariant.
///
/// After a pass, `unfinished()` lists every marked component (a seed, a
/// flagged member, or any component of a fresh pass) that did not
/// finalize: empty unless a step aborted, and those hold their entry
/// state.
class ConeExecutor {
 public:
  enum class Pass : uint8_t {
    kFresh,    ///< components [0, component_count), all run
    kUpCone,   ///< everything reachable from the seeds, change-pruned
    kMembers,  ///< exactly `members` (ascending ids), change-pruned
  };
  struct Plan {
    Pass pass = Pass::kFresh;
    uint32_t component_count = 0;
    std::span<const uint32_t> seeds;    ///< duplicates allowed
    std::span<const uint32_t> members;  ///< `kMembers` only
  };

  /// Whether `plan` runs threaded at `threads` workers: more than one
  /// worker and more than one seed component (component, when fresh).
  static bool Parallel(const Plan& plan, unsigned threads);

  /// Runs one pass. `pool` null selects the sequential heap; otherwise
  /// `dag` must describe the current condensation and every lazily built
  /// index the step reads must be safe for concurrent readers.
  template <typename StepFn>
  void Run(const Plan& plan, const ComponentDag* dag, WorkStealingPool* pool,
           StepFn&& step);

  std::span<ConeLane> lanes() { return {lanes_.data(), lane_count_}; }
  std::span<const uint32_t> unfinished() const { return unfinished_; }
  /// Distinct components marked at pass start.
  uint32_t seed_count() const { return seed_count_; }
  /// Components the schedule visited: run by the heap, or the scope size
  /// of a threaded pass.
  uint32_t scheduled() const { return scheduled_; }

 private:
  void BeginPass(size_t lanes);
  /// Fills `members_` with the scope in rank order and `slot_` with each
  /// member's rank + 1; `EndScope` zeroes the slots again.
  void BuildScope(const Plan& plan, const ComponentDag* dag);
  void EndScope();
  /// One step plus its lane bookkeeping; false iff it aborted.
  template <typename StepFn, typename FlagFn>
  static bool Process(ConeLane& lane, uint32_t c, StepFn& step,
                      FlagFn&& flag) {
    ConeStep r = step(lane, c, flag);
    if (r == ConeStep::kAborted) return false;
    lane.finalized.push_back(c);
    if (r == ConeStep::kUnchanged) ++lane.unchanged;
    return true;
  }
  template <typename StepFn>
  void RunHeap(const Plan& plan, StepFn& step);
  template <typename StepFn>
  void RunReady(const Plan& plan, const ComponentDag& dag,
                WorkStealingPool* pool, StepFn& step);

  std::vector<ConeLane> lanes_;
  size_t lane_count_ = 0;
  std::vector<uint32_t> members_;
  /// Per component, zero between passes (grown on first use; a shrinking
  /// condensation leaves harmless trailing zeros): rank in `members_` + 1.
  std::vector<uint32_t> slot_;
  std::vector<uint8_t> marked_;  ///< per component: queued in `heap_`
  std::priority_queue<uint32_t, std::vector<uint32_t>,
                      std::greater<uint32_t>>
      heap_;
  std::vector<uint32_t> unfinished_;
  uint32_t seed_count_ = 0;
  uint32_t scheduled_ = 0;
};

template <typename StepFn>
void ConeExecutor::Run(const Plan& plan, const ComponentDag* dag,
                       WorkStealingPool* pool, StepFn&& step) {
  BeginPass(pool == nullptr ? 1 : pool->size());
  if (pool == nullptr) {
    RunHeap(plan, step);
  } else {
    RunReady(plan, *dag, pool, step);
  }
}

template <typename StepFn>
void ConeExecutor::RunHeap(const Plan& plan, StepFn& step) {
  ConeLane& lane = lanes_[0];
  if (plan.pass == Pass::kFresh) {
    // Every component runs, so ascending order needs no heap and flags
    // have nothing to mark.
    const uint32_t size = plan.component_count;
    auto ignore = [](uint32_t) {};
    seed_count_ = size;
    lane.finalized.reserve(size);
    for (uint32_t c = 0; c < size; ++c) {
      ++scheduled_;
      if (Process(lane, c, step, ignore)) continue;
      for (; c < size; ++c) unfinished_.push_back(c);
      break;
    }
    return;
  }
  // Only an explicit member list needs its slots (to route flags): an
  // up-cone is never enumerated — that is the heap's saving — and
  // everything is trivially in scope.
  const bool scoped = plan.pass == Pass::kMembers;
  if (scoped) BuildScope(plan, nullptr);
  if (marked_.size() < plan.component_count) {
    marked_.resize(plan.component_count, 0);
  }
  auto mark = [this](uint32_t c) {
    if (marked_[c] != 0) return;
    marked_[c] = 1;
    heap_.push(c);
  };
  auto flag = [&](uint32_t hc) {
    if (scoped && slot_[hc] == 0) {
      lane.outside.push_back(hc);
    } else {
      mark(hc);
    }
  };
  // Dependents carry larger ids, so a component that ran is never marked
  // again, and every step reads final lower values — including the ones
  // this pass just produced.
  for (uint32_t c : plan.seeds) mark(c);
  seed_count_ = static_cast<uint32_t>(heap_.size());
  while (!heap_.empty()) {
    const uint32_t c = heap_.top();
    heap_.pop();
    marked_[c] = 0;
    ++scheduled_;
    if (Process(lane, c, step, flag)) continue;
    unfinished_.push_back(c);
    for (; !heap_.empty(); heap_.pop()) {
      unfinished_.push_back(heap_.top());
      marked_[heap_.top()] = 0;
    }
  }
  if (scoped) EndScope();
}

template <typename StepFn>
void ConeExecutor::RunReady(const Plan& plan, const ComponentDag& dag,
                            WorkStealingPool* pool, StepFn& step) {
  GSLS_TRACE_SPAN("solve.parallel", plan.component_count);
  BuildScope(plan, &dag);
  const uint32_t size = static_cast<uint32_t>(members_.size());
  // Rank of `c`, or `kNoScheduleSlot` (0 - 1) outside the scope.
  auto slot = [this](uint32_t c) { return slot_[c] - 1; };

  // Release counters count in-scope predecessors only (everything else
  // is already final); marks start at the seeds, or everywhere when fresh.
  std::unique_ptr<std::atomic<uint32_t>[]> pending(
      new std::atomic<uint32_t>[size]);
  std::unique_ptr<std::atomic<uint8_t>[]> marks(
      new std::atomic<uint8_t>[size]);
  const bool fresh = plan.pass == Pass::kFresh;
  for (uint32_t i = 0; i < size; ++i) {
    pending[i].store(0, std::memory_order_relaxed);
    marks[i].store(fresh ? 1 : 0, std::memory_order_relaxed);
  }
  for (uint32_t c : members_) {
    for (uint32_t s : dag.Successors(c)) {
      if (slot_[s] != 0) {
        pending[slot(s)].fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  seed_count_ = fresh ? size : 0;
  if (!fresh) {
    for (uint32_t c : plan.seeds) {
      if (marks[slot(c)].exchange(1, std::memory_order_relaxed) == 0) {
        ++seed_count_;
      }
    }
  }
  std::vector<uint32_t> roots;
  for (uint32_t c : members_) {
    if (pending[slot(c)].load(std::memory_order_relaxed) == 0) {
      roots.push_back(c);
    }
  }
  scheduled_ = size;

  // Marks are set by predecessors before their releasing decrement and
  // read by the owner after it, so relaxed accesses are enough.
  RunReadyReleaseSchedule(
      pool, roots, pending.get(),
      [&](unsigned worker, uint32_t c) {
        if (marks[slot(c)].load(std::memory_order_relaxed) == 0) {
          return true;  // nothing moved below: release onwards
        }
        ConeLane& lane = lanes_[worker];
        return Process(lane, c, step, [&](uint32_t hc) {
          if (slot_[hc] != 0) {
            marks[slot(hc)].store(1, std::memory_order_relaxed);
          } else {
            lane.outside.push_back(hc);
          }
        });  // false: aborted, successors stay unreleased
      },
      [&](uint32_t c) { return dag.Successors(c); }, slot);

  // After the barrier: a marked member no lane finalized was cut off by
  // an abort.
  for (const ConeLane& lane : lanes()) {
    for (uint32_t c : lane.finalized) {
      marks[slot(c)].store(0, std::memory_order_relaxed);
    }
  }
  for (uint32_t c : members_) {
    if (marks[slot(c)].load(std::memory_order_relaxed) != 0) {
      unfinished_.push_back(c);
    }
  }
  EndScope();
}

/// The from-scratch whole-model pass: every component of `graph` through
/// `SolveComponent`, in `exec`'s fresh-pass schedule.
/// `*values` (and `*stages` when non-null) are reset to all-undefined
/// first. With `pool` non-null, `dag` must describe `graph`. After an
/// abort the components in `exec->unfinished()` keep that reset state.
void RunFreshPass(ConeExecutor* exec, const GroundProgram& gp,
                  const AtomDependencyGraph& graph, const ComponentDag* dag,
                  WorkStealingPool* pool, const std::vector<uint8_t>* disabled,
                  TruthTape* values, StageTape* stages, CancelCtx* cancel);

/// `RunFreshPass` on a private executor, with the lanes' diagnostics in
/// `*diag` and the tapes converted into the public `WfsModel` (including
/// `outcome` when `cancel` is attached). Runs threaded iff `pool` has
/// more than one worker and the condensation more than one component.
/// `SolveWfs` and `IncrementalSolver::SolveFresh` are this plus graph
/// construction.
WfsModel SolveCondensation(const GroundProgram& gp,
                           const AtomDependencyGraph& graph,
                           const std::vector<uint8_t>* disabled,
                           bool compute_levels, WorkStealingPool* pool,
                           SolverDiagnostics* diag,
                           CancelCtx* cancel = nullptr);

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_PARALLEL_H_
