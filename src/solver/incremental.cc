#include "solver/incremental.h"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "obs/trace.h"
#include "solver/component_eval.h"
#include "util/strings.h"

namespace gsls {

std::string IncrementalStats::ToString() const {
  return StrCat("deltas=", deltas, " rule_deltas=", rule_deltas,
                " full=", full_solves,
                " incremental=", incremental_solves,
                " rebuilds=", graph_rebuilds,
                " resolved=", components_resolved,
                " reused=", components_reused, " cutoffs=", cone_cutoffs,
                " queries=", queries, " fastpaths=", query_fastpaths,
                " aborted=", aborted_passes, " resumed=", resumed_passes);
}

IncrementalSolver::IncrementalSolver(GroundProgram gp, SolverOptions opts)
    : gp_(std::move(gp)), opts_(opts),
      threads_(solver::ResolveThreadCount(opts.num_threads)) {
  disabled_.assign(gp_.rule_count(), 0);
  if (opts_.telemetry != nullptr) {
    obs::MetricsRegistry& m = opts_.telemetry->metrics;
    tele_.delta_latency_us = m.GetHistogram("incremental.delta.latency_us");
    tele_.dirty_components =
        m.GetHistogram("incremental.delta.dirty_components");
    tele_.cone_components = m.GetHistogram("incremental.delta.cone_components");
    tele_.resolved_components =
        m.GetHistogram("incremental.delta.resolved_components");
    tele_.resolved_atoms = m.GetHistogram("incremental.delta.resolved_atoms");
    tele_.window_components = m.GetHistogram("condense.window_components");
    tele_.full_latency_us = m.GetHistogram("incremental.full.latency_us");
    tele_.diag = SolverDiagnostics::InternChannels(opts_.telemetry);
    tele_.program_atoms = m.GetGauge("program.atoms");
    tele_.program_rules = m.GetGauge("program.rules");
    tele_.deltas = m.GetGauge("incremental.deltas");
    tele_.full_solves = m.GetGauge("incremental.full_solves");
    tele_.incremental_solves = m.GetGauge("incremental.incremental_solves");
    tele_.components_resolved = m.GetGauge("incremental.components_resolved");
    tele_.components_reused = m.GetGauge("incremental.components_reused");
    tele_.cone_cutoffs = m.GetGauge("incremental.cone_cutoffs");
    tele_.graph_components = m.GetGauge("graph.components");
    tele_.cond_inserts = m.GetGauge("condense.inserts");
    tele_.cond_removals = m.GetGauge("condense.removals");
    tele_.cond_windows = m.GetGauge("condense.windows");
    tele_.cond_window_atoms = m.GetGauge("condense.window_atoms");
    tele_.cond_window_us = m.GetGauge("condense.window_us");
    tele_.cond_merges = m.GetGauge("condense.merges");
    tele_.cond_splits = m.GetGauge("condense.splits");
    tele_.query_latency_us = m.GetHistogram("query.latency_us");
    tele_.query_cone_components = m.GetHistogram("query.cone_components");
    tele_.query_cone_atoms = m.GetHistogram("query.cone_atoms");
    tele_.query_resolved_components =
        m.GetHistogram("query.resolved_components");
    tele_.query_memo_hits = m.GetHistogram("query.memo_hits");
    tele_.queries = m.GetGauge("query.count");
    tele_.query_fastpaths = m.GetGauge("query.fastpaths");
    tele_.memo_hits = m.GetGauge("query.memo.hits");
    tele_.memo_misses = m.GetGauge("query.memo.misses");
    tele_.memo_invalidations = m.GetGauge("query.memo.invalidations");
    tele_.cancel_aborts = m.GetCounter("cancel.aborts");
    tele_.cancel_deadline_exceeded = m.GetCounter("cancel.deadline_exceeded");
    tele_.cancel_resumes = m.GetCounter("cancel.resumes");
    tele_.cancel_checkpoints = m.GetCounter("cancel.checkpoints");
    tele_.cancel_resume_components =
        m.GetHistogram("cancel.resume_components");
    tele_.interior_warm_hits = m.GetGauge("interior.warm_hits");
    tele_.interior_cold_fallbacks = m.GetGauge("interior.cold_fallbacks");
    tele_.interior_seeded_flood_atoms =
        m.GetHistogram("interior.seeded_flood_atoms");
    tele_.interior_pk_region_components =
        m.GetHistogram("interior.pk_region_components");
  }
}

CancelCtx* IncrementalSolver::ConfigureCancel() {
  // Re-read the options every time: the Set* mutators (and the engines'
  // per-request deadlines) change them between passes.
  CancelToken* token = opts_.cancel;
  if (token == nullptr && opts_.fault != nullptr) token = &owned_token_;
  cancel_ctx_.set_token(token);
  cancel_ctx_.set_deadline_ns(opts_.deadline_ns);
  cancel_ctx_.set_step_budget(opts_.step_budget);
  cancel_ctx_.set_fault(opts_.fault);
  return cancel_ctx_.active() ? &cancel_ctx_ : nullptr;
}

CancelCtx* IncrementalSolver::BeginCancelPass() {
  CancelCtx* ctx = ConfigureCancel();
  if (ctx != nullptr) ctx->BeginPass();
  return ctx;
}

void IncrementalSolver::NoteOutcome(CancelCtx* cancel, uint64_t resolved) {
  const bool aborted = cancel != nullptr && cancel->aborted();
  if (opts_.telemetry != nullptr && tele_.cancel_checkpoints != nullptr) {
    if (cancel != nullptr) tele_.cancel_checkpoints->Add(cancel->steps());
    if (aborted) {
      tele_.cancel_aborts->Add(1);
      if (cancel->outcome() == SolveOutcome::kDeadlineExceeded) {
        tele_.cancel_deadline_exceeded->Add(1);
      }
    } else if (last_pass_aborted_) {
      tele_.cancel_resumes->Add(1);
      tele_.cancel_resume_components->Record(resolved);
    }
  }
  if (aborted) {
    ++stats_.aborted_passes;
    last_pass_aborted_ = true;
  } else if (last_pass_aborted_) {
    ++stats_.resumed_passes;
    last_pass_aborted_ = false;
  }
}

bool IncrementalSolver::Assert(const Term* fact) {
  return AssertAtom(gp_.InternAtom(fact));
}

bool IncrementalSolver::Retract(const Term* fact) {
  std::optional<AtomId> id = gp_.FindAtom(fact);
  if (!id.has_value()) return false;
  return RetractAtom(*id);
}

bool IncrementalSolver::AssertAtom(AtomId atom) {
  assert(atom < gp_.atom_count());
  std::optional<RuleId> unit = gp_.FindUnitRule(atom);
  if (unit.has_value()) {
    if (RuleEnabled(*unit)) return false;  // already an enabled fact
    disabled_[*unit] = 0;
  } else {
    gp_.AddRule(GroundRule{atom, {}, {}});
    disabled_.resize(gp_.rule_count(), 0);
  }
  MarkDirty(atom);
  return true;
}

bool IncrementalSolver::RetractAtom(AtomId atom) {
  if (atom >= gp_.atom_count()) return false;
  std::optional<RuleId> unit = gp_.FindUnitRule(atom);
  if (!unit.has_value() || !RuleEnabled(*unit)) return false;
  disabled_[*unit] = 1;
  MarkDirty(atom);
  return true;
}

bool IncrementalSolver::HasFact(AtomId atom) const {
  std::optional<RuleId> unit = gp_.FindUnitRule(atom);
  return unit.has_value() && RuleEnabled(*unit);
}

RuleId IncrementalSolver::AssertRule(GroundRule rule, bool* changed) {
  if (rule.pos.empty() && rule.neg.empty()) {
    // Unit rules are fact deltas: same path, same invariants (no edges).
    AtomId head = rule.head;
    bool did = AssertAtom(head);
    if (changed != nullptr) *changed = did;
    return *gp_.FindUnitRule(head);
  }
  size_t rules_before = gp_.rule_count();
  RuleId id = gp_.AddRule(std::move(rule));
  bool is_new = gp_.rule_count() != rules_before;
  if (!is_new && RuleEnabled(id)) {
    if (changed != nullptr) *changed = false;
    return id;  // the identical rule is already enabled
  }
  disabled_.resize(gp_.rule_count(), 0);
  disabled_[id] = 0;  // re-enable when it was a retracted duplicate
  ++stats_.rule_deltas;
  MarkDirty(gp_.rules()[id].head);
  if (cond_ != nullptr) {
    EnsureGraph();  // cover atoms interned since the last repair
    ApplyRepair(cond_->InsertRule(gp_, &disabled_, id, ConfigureCancel()));
  }
  if (changed != nullptr) *changed = true;
  return id;
}

RuleId IncrementalSolver::AssertRule(const Term* head,
                                     std::span<const Term* const> pos,
                                     std::span<const Term* const> neg,
                                     bool* changed) {
  GroundRule rule;
  rule.head = gp_.InternAtom(head);
  rule.pos.reserve(pos.size());
  rule.neg.reserve(neg.size());
  for (const Term* t : pos) rule.pos.push_back(gp_.InternAtom(t));
  for (const Term* t : neg) rule.neg.push_back(gp_.InternAtom(t));
  return AssertRule(std::move(rule), changed);
}

bool IncrementalSolver::RetractRule(RuleId r) {
  if (r >= gp_.rule_count() || !RuleEnabled(r)) return false;
  const GroundRule& rule = gp_.rules()[r];
  if (rule.pos.empty() && rule.neg.empty()) return RetractAtom(rule.head);
  disabled_.resize(gp_.rule_count(), 0);
  disabled_[r] = 1;
  ++stats_.rule_deltas;
  MarkDirty(rule.head);
  if (cond_ != nullptr) {
    EnsureGraph();
    ApplyRepair(cond_->RemoveRule(gp_, &disabled_, r, ConfigureCancel()));
  }
  return true;
}

void IncrementalSolver::MarkDirty(AtomId atom) {
  ++stats_.deltas;
  dirty_.push_back(atom);
}

void IncrementalSolver::ApplyRepair(const CondensationRepair& rep) {
  const AtomDependencyGraph& g = cond_->graph();
  // Translate the query memo through the repair (id shifts, window drop,
  // dirty invalidations) — but only once queries made it track anything.
  if (memo_.size() != 0) memo_.ApplyRepair(rep, g.component_count());
  if (rep.recondensed && tele_.window_components != nullptr) {
    tele_.window_components->Record(rep.new_window_size);
    if (rep.pk_region_components != 0) {
      tele_.interior_pk_region_components->Record(rep.pk_region_components);
    }
  }
  if (rep.recondensed && !warm_.empty()) {
    // A recondensation renumbered/re-grouped the window: warm interior
    // state is keyed by representative atom, so entries whose key no
    // longer leads its component (or whose component changed size) are
    // provably stale — discard them now rather than leaking them. Same-
    // key same-size survivors are re-checked atom-for-atom by
    // `BindingValid` on their next touch.
    std::lock_guard<std::mutex> lock(warm_mu_);
    std::erase_if(warm_, [&](const auto& kv) {
      std::span<const AtomId> atoms = g.Atoms(g.ComponentOf(kv.first));
      bool keep = !atoms.empty() && atoms[0] == kv.first &&
                  atoms.size() == kv.second->atom_count();
      if (!keep) ++diag_.warm_cold_fallbacks;
      return !keep;
    });
  }
  // Components are marked through a stable representative atom: later
  // deltas may renumber components again before `Model()` resolves them.
  for (uint32_t c : rep.dirty) {
    std::span<const AtomId> atoms = g.Atoms(c);
    if (!atoms.empty()) dirty_.push_back(atoms[0]);
  }
  if (dag_ == nullptr) return;
  if (!rep.recondensed) {
    // Edge-only delta — the streaming common case. Queue the edges; one
    // merge pass patches the DAG when the parallel path next reads it,
    // so a burst of N order-respecting deltas pays one splice, not N.
    pending_dag_edges_.insert(pending_dag_edges_.end(),
                              rep.new_edges.begin(), rep.new_edges.end());
    return;
  }
  // The repair renumbered component ids: queued edges (in pre-repair
  // ids) must land before the remap.
  FlushPendingDagEdges();
  if (rep.split()) {
    // A split fans one old id out to several; remapping rows is no longer
    // well defined, so the scheduling DAG rebuilds lazily.
    dag_.reset();
  } else {
    dag_->Splice(gp_, g, &disabled_, rep);
  }
}

void IncrementalSolver::FlushPendingDagEdges() {
  if (pending_dag_edges_.empty()) return;
  if (dag_ != nullptr) {
    CondensationRepair edges_only;
    edges_only.new_edges = std::move(pending_dag_edges_);
    dag_->Splice(gp_, cond_->graph(), &disabled_, edges_only);
  }
  pending_dag_edges_.clear();
}

void IncrementalSolver::EnsureGraph() {
  if (cond_ == nullptr) {
    cond_ = std::make_unique<DynamicCondensation>(gp_, &disabled_);
    dag_.reset();
    return;
  }
  if (cond_->graph().atom_count() == gp_.atom_count()) return;
  // Atoms interned since the last repair become trailing singleton
  // components — no rebuild, and the scheduling DAG just grows nodes.
  // They enter the tape undefined, so their components must solve once
  // (to false, until some delta derives them): mark them dirty.
  ++stats_.graph_rebuilds;
  for (AtomId a = static_cast<AtomId>(cond_->graph().atom_count());
       a < gp_.atom_count(); ++a) {
    dirty_.push_back(a);
  }
  cond_->AddAtoms(gp_.atom_count());
  if (dag_ != nullptr) {
    dag_->AppendIsolated(cond_->graph().component_count());
  }
}

void IncrementalSolver::SyncMirror(uint32_t comp) {
  // SyncMirror runs for exactly the components a pass (re)finalized, so it
  // doubles as the resolve log's append point (always on the owner thread:
  // `SettlePass` runs after the schedule's barrier).
  const bool log = resolve_log_enabled_ && !resolve_log_.all_atoms;
  for (AtomId a : cond_->graph().Atoms(comp)) {
    if (log) {
      resolve_log_.atoms.push_back(a);
    }
    tape_.CopyAtomTo(a, &model_.model);
    if (opts_.compute_levels) {
      model_.true_stage[a] = stape_.true_stage[a];
      model_.false_stage[a] = stape_.false_stage[a];
    }
  }
}

bool IncrementalSolver::SolveEligibleComponent(uint32_t c,
                                               solver::StageTape* stages,
                                               SolverDiagnostics* diag,
                                               CancelCtx* cancel) {
  const AtomDependencyGraph& graph = cond_->graph();
  std::span<const AtomId> atoms = graph.Atoms(c);
  const AtomId rep = atoms[0];
  solver::WarmComponent* warm = nullptr;
  {
    std::lock_guard<std::mutex> lock(warm_mu_);
    auto it = warm_.find(rep);
    if (it != warm_.end()) warm = it->second.get();
  }
  if (warm != nullptr && warm->BindingValid(gp_, graph, c, tape_)) {
    // Warm path: the entry still describes this component and the tape
    // holds the quiescent model it recorded — patch, undo, seed, resume.
    if (warm->Resolve(gp_, graph, c, &disabled_, &tape_, stages, diag,
                      cancel)) {
      return true;
    }
    // Aborted mid-patch: the entry is inconsistent (partial undo/flood)
    // and must not be resumed against; the caller restores the tape
    // snapshot, so the next touch rebuilds from scratch.
    ++diag->warm_cold_fallbacks;
    std::lock_guard<std::mutex> lock(warm_mu_);
    warm_.erase(rep);
    return false;
  }
  if (warm != nullptr) {
    // Present but no longer provably consistent (recondensed membership,
    // new rules targeting the component, or an out-of-band solve moved
    // the tape under it): the audit contract says discard, never trust.
    ++diag->warm_cold_fallbacks;
    std::lock_guard<std::mutex> lock(warm_mu_);
    warm_.erase(rep);
  }
  auto fresh = std::make_unique<solver::WarmComponent>();
  for (AtomId a : atoms) tape_.SetUndefined(a);
  if (!fresh->SolveFromScratch(gp_, graph, c, &disabled_, &tape_, stages,
                               diag, cancel)) {
    return false;  // tape left all-undefined; entry dropped with `fresh`
  }
  std::lock_guard<std::mutex> lock(warm_mu_);
  warm_[rep] = std::move(fresh);
  return true;
}

/// The one copy of the per-component delta step, run by the executor for
/// delta and query passes: snapshot old values, re-solve (warm or cold),
/// and invoke `flag(head_component)` for every component owning a rule
/// that mentions an atom whose value moved.
///
/// With levels on, the snapshot/compare covers the stage levels too: a
/// delta can advance a literal's stage without flipping any truth value
/// (e.g. asserting an already-derived atom as a fact pulls its stage down
/// to 1), and dependents' stages must follow — cutting the cone on value
/// equality alone would leave them stale.
///
/// A cancellation abort mid-solve restores the snapshot verbatim ("fully
/// old or fully new"), runs no flagging, and returns `kAborted` — the
/// pass epilogue queues the component for the resume pass.
template <typename FlagFn>
solver::ConeStep IncrementalSolver::ResolveComponentDelta(
    uint32_t c, solver::ConeLane* lane, CancelCtx* cancel, FlagFn&& flag) {
  const AtomDependencyGraph& graph = cond_->graph();
  solver::StageTape* stages = opts_.compute_levels ? &stape_ : nullptr;
  std::span<const AtomId> atoms = graph.Atoms(c);
  std::vector<TruthValue>& old_vals = lane->old_vals;
  std::vector<uint32_t>& old_stages = lane->old_stages;
  old_vals.clear();
  for (AtomId a : atoms) old_vals.push_back(tape_.Value(a));
  if (stages != nullptr) {
    old_stages.clear();
    for (AtomId a : atoms) {
      old_stages.push_back(stages->true_stage[a]);
      old_stages.push_back(stages->false_stage[a]);
    }
  }
  // Warm/cold dispatch is by component *shape* only (`Eligible`), never
  // by schedule, so every thread count takes identical paths and the
  // models stay bit-identical. The warm path reads the pre-delta tape
  // (no reset here — the undo is the point); the cold paths reset first.
  bool ok;
  if (solver::WarmComponent::Eligible(graph, c, opts_.warm_min_atoms)) {
    ok = SolveEligibleComponent(c, stages, &lane->diag, cancel);
  } else {
    for (AtomId a : atoms) tape_.SetUndefined(a);
    ok = solver::SolveComponent(gp_, graph, c, &disabled_, &tape_, stages,
                                &lane->diag, cancel);
  }
  if (!ok) {
    // The failed solve left the atoms all-undefined (cold/scratch) or
    // partially written (warm patch); the snapshot puts the pre-delta
    // values back either way. Stages were never touched (reconstruction
    // runs only after values finalize), so they still hold the old
    // levels — consistent with the restored values.
    for (size_t i = 0; i < atoms.size(); ++i) {
      tape_.SetValue(atoms[i], old_vals[i]);
    }
    return solver::ConeStep::kAborted;
  }

  bool changed = false;
  for (size_t i = 0; i < atoms.size(); ++i) {
    bool moved = tape_.Value(atoms[i]) != old_vals[i];
    if (!moved && stages != nullptr) {
      moved = stages->true_stage[atoms[i]] != old_stages[2 * i] ||
              stages->false_stage[atoms[i]] != old_stages[2 * i + 1];
    }
    if (!moved) continue;
    changed = true;
    // Retracted rules stay in the occurrence index; their heads do not
    // depend on this atom anymore, so skip them instead of over-marking.
    for (RuleId r : gp_.PositiveOccurrences(atoms[i])) {
      if (!RuleEnabledIn(&disabled_, r)) continue;
      uint32_t hc = graph.ComponentOf(gp_.rules()[r].head);
      if (hc != c) flag(hc);
    }
    for (RuleId r : gp_.NegativeOccurrences(atoms[i])) {
      if (!RuleEnabledIn(&disabled_, r)) continue;
      uint32_t hc = graph.ComponentOf(gp_.rules()[r].head);
      if (hc != c) flag(hc);
    }
  }
  return changed ? solver::ConeStep::kChanged : solver::ConeStep::kUnchanged;
}

void IncrementalSolver::GrowTapes() {
  // Atoms interned since the last pass (new facts, rule deltas) enter
  // undefined; atom ids are stable, so everything else carries over.
  model_.model.Resize(gp_.atom_count());
  tape_.Resize(gp_.atom_count());
  if (opts_.compute_levels) {
    stape_.Resize(gp_.atom_count());
    model_.true_stage.resize(gp_.atom_count(), 0);
    model_.false_stage.resize(gp_.atom_count(), 0);
  }
}

WorkStealingPool* IncrementalSolver::PoolFor(
    const solver::ConeExecutor::Plan& plan) {
  if (!solver::ConeExecutor::Parallel(plan, threads_)) return nullptr;
  if (dag_ == nullptr) {
    dag_ = std::make_unique<solver::ComponentDag>(gp_, cond_->graph(),
                                                  &disabled_);
    pending_dag_edges_.clear();  // a fresh build already covers them
  } else {
    FlushPendingDagEdges();
  }
  if (pool_ == nullptr) pool_ = std::make_unique<WorkStealingPool>(threads_);
  gp_.EnsureOccurrenceIndex();  // workers must not race the lazy rebuild
  return pool_.get();
}

void IncrementalSolver::RunDeltaPass(const solver::ConeExecutor::Plan& plan,
                                     CancelCtx* cancel) {
  WorkStealingPool* pool = PoolFor(plan);
  exec_.Run(plan, dag_.get(), pool,
            [&](solver::ConeLane& lane, uint32_t c, auto&& flag) {
              return ResolveComponentDelta(c, &lane, cancel, flag);
            });
}

void IncrementalSolver::QueueStale(uint32_t comp) {
  memo_.Invalidate(comp);
  // By stable representative atom: component ids may shift again before
  // anything consumes the marker.
  stale_reps_.push_back(cond_->graph().Atoms(comp)[0]);
}

IncrementalSolver::PassTally IncrementalSolver::SettlePass(bool mirror) {
  const AtomDependencyGraph& graph = cond_->graph();
  PassTally tally;
  std::vector<uint32_t> outside;
  for (solver::ConeLane& lane : exec_.lanes()) {
    diag_.MergeFrom(lane.diag);
    stats_.cone_cutoffs += lane.unchanged;
    tally.resolved += lane.finalized.size();
    for (uint32_t c : lane.finalized) {
      tally.resolved_atoms += graph.Atoms(c).size();
      memo_.MarkValid(c);
      if (mirror) SyncMirror(c);
    }
    outside.insert(outside.end(), lane.outside.begin(), lane.outside.end());
  }
  // Dependents outside the scope whose inputs moved (flagged once per
  // moved input): stale until a later pass reaches them.
  std::sort(outside.begin(), outside.end());
  outside.erase(std::unique(outside.begin(), outside.end()), outside.end());
  for (uint32_t c : outside) QueueStale(c);
  // Cut off by an abort: each holds its entry state and resumes later.
  for (uint32_t c : exec_.unfinished()) QueueStale(c);
  return tally;
}

const WfsModel& IncrementalSolver::Model() {
  const bool fresh = !solved_;
  if (!fresh && dirty_.empty() && stale_reps_.empty()) return model_;
  GSLS_TRACE_SPAN(fresh ? "solve.full" : "solve.delta",
                  fresh ? gp_.atom_count() : stats_.incremental_solves);
  const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
  EnsureGraph();
  CancelCtx* cancel = BeginCancelPass();
  const AtomDependencyGraph& graph = cond_->graph();
  const uint32_t ncomp = graph.component_count();
  memo_.Grow(ncomp);
  const uint64_t rounds_before = diag_.alternating_rounds;
  const uint64_t warm_hits_before = diag_.warm_hits;
  const uint64_t seeded_flood_before = diag_.seeded_flood_sizes.sum;
  solver::ConeExecutor::Plan plan;
  plan.component_count = ncomp;
  if (fresh) {
    // Every component is scheduled, so older markers are subsumed.
    dirty_.clear();
    stale_reps_.clear();
    WorkStealingPool* pool = PoolFor(plan);
    solver::RunFreshPass(&exec_, gp_, graph, dag_.get(), pool, &disabled_,
                         &tape_, opts_.compute_levels ? &stape_ : nullptr,
                         cancel);
  } else {
    ++stats_.incremental_solves;
    GrowTapes();
    // Delta-dirty atoms and components left stale by query or aborted
    // passes are the same "my tape values may be wrong" marker.
    seeds_.clear();
    for (AtomId a : dirty_) seeds_.push_back(graph.ComponentOf(a));
    for (AtomId a : stale_reps_) seeds_.push_back(graph.ComponentOf(a));
    dirty_.clear();
    stale_reps_.clear();
    plan.pass = solver::ConeExecutor::Pass::kUpCone;
    plan.seeds = seeds_;
    RunDeltaPass(plan, cancel);
  }
  // The full branch rewrites the tape wholesale and mirrors it whole
  // below; delta passes mirror each finalized component.
  const PassTally tally = SettlePass(/*mirror=*/!fresh);
  if (exec_.unfinished().empty()) {
    // The pass chased every change to its end: the tape is the full model
    // again, so the memo is too.
    memo_.MarkAllValid();
  }
  // Like a fresh solve, `iterations` reports this pass's alternating
  // rounds, not a lifetime total (`diagnostics()` keeps the cumulative).
  model_.iterations =
      static_cast<uint32_t>(diag_.alternating_rounds - rounds_before);
  model_.outcome =
      cancel != nullptr ? cancel->outcome() : SolveOutcome::kCompleted;
  if (fresh) {
    model_.model = tape_.ToInterpretation();
    if (opts_.compute_levels) {
      model_.true_stage = stape_.true_stage;
      model_.false_stage = stape_.false_stage;
      model_.has_levels = true;
    }
    if (resolve_log_enabled_) resolve_log_.all_atoms = true;
    diag_.component_count = ncomp;
    // `solved_` even on an abort: the finalized components carry exact
    // values (anytime semantics), and the next `Model()` resumes through
    // the delta branch — exactly the queued remainder, never a second
    // from-scratch pass.
    solved_ = true;
    ++stats_.full_solves;
  } else {
    stats_.components_resolved += tally.resolved;
    stats_.components_reused += ncomp - tally.resolved;
  }
  NoteOutcome(cancel, tally.resolved);
  if (opts_.telemetry != nullptr) {
    const uint64_t us = (obs::NowNs() - t0) / 1000;
    if (fresh) {
      tele_.full_latency_us->Record(us);
    } else {
      tele_.delta_latency_us->Record(us);
      tele_.dirty_components->Record(exec_.seed_count());
      tele_.cone_components->Record(exec_.scheduled());
      tele_.resolved_components->Record(tally.resolved);
      tele_.resolved_atoms->Record(tally.resolved_atoms);
      if (diag_.warm_hits != warm_hits_before) {
        // What this pass's warm re-solves actually flooded, summed over
        // the pass — the per-delta "how much of the SCC did the seed
        // touch" signal (per-resolve sizes live in the diagnostics
        // histogram; per-pass is the delta-latency-aligned view).
        tele_.interior_seeded_flood_atoms->Record(
            diag_.seeded_flood_sizes.sum - seeded_flood_before);
      }
    }
    PublishTelemetry();
  }
  return model_;
}

void IncrementalSolver::PublishTelemetry() {
  if (opts_.telemetry == nullptr) return;
  // Interned-pointer stores only (see TelemetryChannels): this runs after
  // every delta, so it must not touch the registry's mutexed name maps.
  diag_.PublishTo(tele_.diag);
  tele_.program_atoms->Set(static_cast<int64_t>(gp_.atom_count()));
  tele_.program_rules->Set(static_cast<int64_t>(gp_.rule_count()));
  tele_.deltas->Set(static_cast<int64_t>(stats_.deltas));
  tele_.full_solves->Set(static_cast<int64_t>(stats_.full_solves));
  tele_.incremental_solves->Set(
      static_cast<int64_t>(stats_.incremental_solves));
  tele_.components_resolved->Set(
      static_cast<int64_t>(stats_.components_resolved));
  tele_.components_reused->Set(
      static_cast<int64_t>(stats_.components_reused));
  tele_.cone_cutoffs->Set(static_cast<int64_t>(stats_.cone_cutoffs));
  tele_.queries->Set(static_cast<int64_t>(stats_.queries));
  tele_.query_fastpaths->Set(static_cast<int64_t>(stats_.query_fastpaths));
  tele_.interior_warm_hits->Set(static_cast<int64_t>(diag_.warm_hits));
  tele_.interior_cold_fallbacks->Set(
      static_cast<int64_t>(diag_.warm_cold_fallbacks));
  const solver::ComponentMemo::Stats& ms = memo_.stats();
  tele_.memo_hits->Set(static_cast<int64_t>(ms.hits));
  tele_.memo_misses->Set(static_cast<int64_t>(ms.misses));
  tele_.memo_invalidations->Set(static_cast<int64_t>(ms.invalidations));
  if (cond_ != nullptr) {
    tele_.graph_components->Set(
        static_cast<int64_t>(cond_->graph().component_count()));
    const DynamicCondensation::Stats& cs = cond_->stats();
    tele_.cond_inserts->Set(static_cast<int64_t>(cs.inserts));
    tele_.cond_removals->Set(static_cast<int64_t>(cs.removals));
    tele_.cond_windows->Set(static_cast<int64_t>(cs.windows));
    tele_.cond_window_atoms->Set(static_cast<int64_t>(cs.window_atoms));
    tele_.cond_window_us->Set(static_cast<int64_t>(cs.window_ns / 1000));
    tele_.cond_merges->Set(static_cast<int64_t>(cs.merges));
    tele_.cond_splits->Set(static_cast<int64_t>(cs.splits));
  }
}

void IncrementalSolver::DumpTelemetry(std::ostream& os) const {
  os << "incremental: " << stats_.ToString() << "\n";
  os << "diagnostics: " << diag_.ToString() << "\n";
  os << "query memo: " << memo_.stats().ToString() << "\n";
  if (cond_ != nullptr) {
    os << "condensation: " << cond_->stats().ToString() << "\n";
  }
  if (opts_.telemetry != nullptr) opts_.telemetry->metrics.WriteTable(os);
}

TruthValue IncrementalSolver::ValueOf(const Term* ground_atom) {
  std::optional<AtomId> id = gp_.FindAtom(ground_atom);
  if (!id.has_value()) return TruthValue::kFalse;
  return Model().model.Value(*id);
}

WfsModel IncrementalSolver::SolveFresh(SolverDiagnostics* diag) const {
  SolverDiagnostics scratch;
  if (diag == nullptr) diag = &scratch;
  *diag = SolverDiagnostics{};
  // Masked construction: the baseline condenses the enabled subprogram,
  // exactly what a non-incremental caller solving the mutated program
  // would build (and what the repaired condensation must agree with).
  AtomDependencyGraph graph(gp_, &disabled_);
  return solver::SolveCondensation(gp_, graph, &disabled_,
                                   opts_.compute_levels, /*pool=*/nullptr,
                                   diag);
}

void IncrementalSolver::CollectDownCone(AtomId atom) {
  const AtomDependencyGraph& graph = cond_->graph();
  if (in_down_cone_.size() < graph.component_count()) {
    in_down_cone_.resize(graph.component_count(), 0);
  }
  // Every component the query's truth can depend on, gathered by walking
  // body atoms of enabled rules for each member atom (the reverse of the
  // scheduling DAG's edges). The walk cannot prune at valid components:
  // validity is conditional on everything below being re-solved first
  // (see solver/component_memo.h), so a stale component deep under a
  // valid one must still be found and re-run.
  cone_.clear();
  const uint32_t qc = graph.ComponentOf(atom);
  cone_.push_back(qc);
  in_down_cone_[qc] = 1;
  for (size_t i = 0; i < cone_.size(); ++i) {
    for (AtomId a : graph.Atoms(cone_[i])) {
      for (RuleId r : gp_.RulesFor(a)) {
        if (!RuleEnabled(r)) continue;
        const GroundRule& rule = gp_.rules()[r];
        auto visit = [&](AtomId b) {
          uint32_t bc = graph.ComponentOf(b);
          if (in_down_cone_[bc] == 0) {
            in_down_cone_[bc] = 1;
            cone_.push_back(bc);
          }
        };
        for (AtomId b : rule.pos) visit(b);
        for (AtomId b : rule.neg) visit(b);
      }
    }
  }
  for (uint32_t c : cone_) in_down_cone_[c] = 0;
  std::sort(cone_.begin(), cone_.end());  // dependency order
  seeds_.clear();
  for (uint32_t c : cone_) {
    if (!memo_.Valid(c)) seeds_.push_back(c);
  }
}

IncrementalSolver::QueryAnswer IncrementalSolver::QueryAtom(AtomId atom) {
  assert(atom < gp_.atom_count());
  GSLS_TRACE_SPAN("solve.query", stats_.queries);
  const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
  ++stats_.queries;
  EnsureGraph();
  GrowTapes();
  const uint32_t ncomp = cond_->graph().component_count();
  memo_.Grow(ncomp);
  // Fold fact-delta atoms into memo invalidations + the pending stale set,
  // so the cone walk sees one "stale components" representation. The
  // pushes are unconditional: a component can be invalid without being
  // pending (never solved, or dropped by a recondensation window), and
  // `Invalidate`'s return value cannot tell those apart. Duplicates are
  // harmless — consumers dedupe by component.
  for (AtomId a : dirty_) {
    memo_.Invalidate(cond_->graph().ComponentOf(a));
    stale_reps_.push_back(a);
  }
  dirty_.clear();

  QueryAnswer out;
  CancelCtx* cancel = BeginCancelPass();
  if (memo_.AllValid()) {
    // Global fast path: no component anywhere is stale, the tape holds
    // the full final model — answer without even walking the cone (and
    // without a checkpoint: a zero-work answer is exact even under a
    // cancelled token).
    ++stats_.query_fastpaths;
  } else {
    CollectDownCone(atom);
    out.cone_components = static_cast<uint32_t>(cone_.size());
    for (uint32_t c : cone_) out.cone_atoms += cond_->graph().Atoms(c).size();
    // Only stale members seed the pass; valid ones are memo hits unless
    // a re-solve below them moves their inputs. With no stale member the
    // answer is already on the tape (stale components elsewhere in the
    // program cannot affect it).
    if (!seeds_.empty()) {
      solver::ConeExecutor::Plan plan;
      plan.component_count = ncomp;
      plan.pass = solver::ConeExecutor::Pass::kMembers;
      plan.seeds = seeds_;
      plan.members = cone_;
      RunDeltaPass(plan, cancel);
      out.resolved_components =
          static_cast<uint32_t>(SettlePass(/*mirror=*/true).resolved);
      memo_.CountMisses(out.resolved_components);
      stats_.components_resolved += out.resolved_components;
      // Everything this pass re-validated leaves the pending set; entries
      // for still-stale components stay for the next query or `Model()`.
      const AtomDependencyGraph& graph = cond_->graph();
      std::erase_if(stale_reps_, [this, &graph](AtomId a) {
        return memo_.Valid(graph.ComponentOf(a));
      });
    }
    out.memo_hits = out.cone_components - out.resolved_components;
    memo_.CountHits(out.memo_hits);
    stats_.components_reused += out.memo_hits;
  }
  out.outcome =
      cancel != nullptr ? cancel->outcome() : SolveOutcome::kCompleted;
  out.value = tape_.Value(atom);
  if (opts_.compute_levels) {
    out.true_stage = stape_.true_stage[atom];
    out.false_stage = stape_.false_stage[atom];
  }
  NoteOutcome(cancel, out.resolved_components);
  if (opts_.telemetry != nullptr) {
    tele_.query_latency_us->Record((obs::NowNs() - t0) / 1000);
    tele_.query_cone_components->Record(out.cone_components);
    tele_.query_cone_atoms->Record(out.cone_atoms);
    tele_.query_resolved_components->Record(out.resolved_components);
    tele_.query_memo_hits->Record(out.memo_hits);
    PublishTelemetry();
  }
  return out;
}

IncrementalSolver::QueryAnswer IncrementalSolver::QueryAtom(
    const Term* ground_atom) {
  std::optional<AtomId> id = gp_.FindAtom(ground_atom);
  if (!id.has_value()) {
    ++stats_.queries;
    ++stats_.query_fastpaths;
    QueryAnswer out;
    out.value = TruthValue::kFalse;
    if (opts_.compute_levels) out.false_stage = 1;
    return out;
  }
  return QueryAtom(*id);
}

void IncrementalSolver::InvalidateMemo() {
  memo_.InvalidateAll();
  // Warm interior state describes the tape the next pass will overwrite
  // from scratch; it would fail `BindingValid` afterwards anyway, so drop
  // it with the memo (this is the cache-drop lever, and the cold-cone
  // benches must measure truly cold solves).
  {
    std::lock_guard<std::mutex> lock(warm_mu_);
    warm_.clear();
  }
  // Everything is stale now; the finer-grained pending markers are
  // subsumed (the next `Model()` is a from-scratch solve, the next query
  // a cold cone), so drop them rather than re-solving piecemeal.
  stale_reps_.clear();
  dirty_.clear();
  solved_ = false;
}

IncrementalSolver::ResolveLog IncrementalSolver::TakeResolveLog() {
  ResolveLog out = std::move(resolve_log_);
  resolve_log_ = ResolveLog{};
  return out;
}

}  // namespace gsls
