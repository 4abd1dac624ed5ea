#include "solver/warm_component.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.h"
#include "util/strings.h"

namespace gsls::solver {

namespace {

/// From-scratch recount of one rule's `dead` / `undef_external` / `unsat`
/// against the live tape and mask — the audit oracle for the counters the
/// propagation loop maintains incrementally.
void ExpectedCounters(const RuleTable& t, LocalRule r, const TruthTape& tape,
                      const std::vector<uint8_t>* disabled, bool* dead,
                      uint32_t* undef_ext, uint32_t* unsat) {
  *dead = disabled != nullptr && (*disabled)[t.GlobalRule(r)] != 0;
  *undef_ext = 0;
  uint32_t internal = 0;
  for (AtomId b : t.ExtPos(r)) {
    if (tape.IsFalse(b)) *dead = true;
    else if (!tape.IsTrue(b)) ++*undef_ext;
  }
  for (AtomId b : t.ExtNeg(r)) {
    if (tape.IsTrue(b)) *dead = true;
    else if (!tape.IsFalse(b)) ++*undef_ext;
  }
  for (LocalAtom lb : t.PosBody(r)) {
    AtomId g = t.GlobalAtom(lb);
    if (tape.IsFalse(g)) *dead = true;
    else if (!tape.IsTrue(g)) ++internal;
  }
  for (LocalAtom lb : t.NegBody(r)) {
    AtomId g = t.GlobalAtom(lb);
    if (tape.IsTrue(g)) *dead = true;
    else if (!tape.IsFalse(g)) ++internal;
  }
  *unsat = internal + *undef_ext;
}

}  // namespace

void WarmComponent::RecordTrue(LocalAtom a, LocalRule r, TruthTape* values) {
  AtomId g = table_->GlobalAtom(a);
  if (values->IsTrue(g)) return;
  // A rule fires only with a wholly satisfied body, which never includes
  // an unfounded atom, so a fired head cannot have been falsified.
  assert(!values->IsFalse(g));
  values->SetTrue(g);
  support_->OnAtomTrue(a);
  if (persist_) {
    batch_[a] = next_batch_++;
    firing_[a] = r;
    trail_.push_back(a);
  }
  true_queue_.push_back(a);
}

void WarmComponent::RecordFalse(LocalAtom a, uint64_t batch,
                                TruthTape* values) {
  AtomId g = table_->GlobalAtom(a);
  if (values->IsFalse(g)) return;
  assert(!values->IsTrue(g));
  values->SetFalse(g);
  if (persist_) {
    batch_[a] = batch;
    firing_[a] = kNoRule;
    trail_.push_back(a);
  }
  false_queue_.push_back(a);
}

void WarmComponent::Kill(LocalRule r) {
  CompiledRule& rule = table_->rule(r);
  if (rule.dead) return;
  rule.dead = true;
  support_->OnRuleDead(r);
}

bool WarmComponent::Propagate(TruthTape* values, CancelCtx* cancel) {
  StridedCheckpoint tick(cancel);
  while (!true_queue_.empty() || !false_queue_.empty()) {
    if (tick.Tick()) return false;
    if (!true_queue_.empty()) {
      LocalAtom a = true_queue_.back();
      true_queue_.pop_back();
      for (LocalRule r : table_->PositiveOccurrences(a)) {
        CompiledRule& rule = table_->rule(r);
        if (!rule.dead && --rule.unsat == 0) RecordTrue(rule.head, r, values);
      }
      // `not a` is now false: those rules are unusable for good.
      for (LocalRule r : table_->NegativeOccurrences(a)) Kill(r);
    } else {
      LocalAtom a = false_queue_.back();
      false_queue_.pop_back();
      for (LocalRule r : table_->PositiveOccurrences(a)) Kill(r);
      // `not a` is now satisfied.
      for (LocalRule r : table_->NegativeOccurrences(a)) {
        CompiledRule& rule = table_->rule(r);
        if (!rule.dead && --rule.unsat == 0) RecordTrue(rule.head, r, values);
      }
    }
  }
  return true;
}

bool WarmComponent::RunToFixpoint(TruthTape* values, SolverDiagnostics* diag,
                                  CancelCtx* cancel) {
  while (true) {
    {
      GSLS_TRACE_SPAN("component.lfp", table_->rule_count());
      if (!Propagate(values, cancel)) return false;
    }
    if (!support_->HasPending()) break;
    ++diag->alternating_rounds;
    unfounded_.clear();
    {
      GSLS_TRACE_SPAN("component.unfounded", support_->floods());
      if (!support_->CollectUnfounded(&unfounded_, cancel)) return false;
    }
    diag->unfounded_falsified += unfounded_.size();
    if (!unfounded_.empty()) {
      // One flood's falsifications are mutually justified (the greatest
      // unfounded set falls together): they share one batch so an undo
      // can never split them.
      uint64_t fb = next_batch_++;
      for (LocalAtom a : unfounded_) RecordFalse(a, fb, values);
    }
  }
  return true;
}

bool WarmComponent::SolveFromScratch(const GroundProgram& gp,
                                     const AtomDependencyGraph& graph,
                                     uint32_t comp,
                                     const std::vector<uint8_t>* disabled,
                                     TruthTape* values, StageTape* stages,
                                     SolverDiagnostics* diag,
                                     CancelCtx* cancel, bool persist) {
  // The uniform component-boundary checkpoint, then the
  // recursive-component accounting.
  if (cancel != nullptr && cancel->Checkpoint()) return false;
  GSLS_TRACE_SPAN("solve.component", comp);
  ++diag->recursive_components;
  if (graph.HasInternalNegation(comp)) ++diag->negation_components;

  table_ = std::make_unique<RuleTable>(gp, graph, comp, *values, disabled,
                                       cancel, /*keep_all=*/persist);
  if (table_->aborted()) return false;  // tape untouched
  support_ = std::make_unique<SourceTracker>(table_.get());
  std::span<const AtomId> members = graph.Atoms(comp);
  next_batch_ = 0;
  // Trail, binding and patch state only a persisted entry needs (an empty
  // atom sequence never binds).
  persist_ = persist;
  atoms_.clear();
  trail_.clear();
  candidate_count_ = 0;
  if (persist) {
    atoms_.assign(members.begin(), members.end());
    trail_.reserve(atoms_.size());
    batch_.assign(atoms_.size(), kNoBatch);
    firing_.assign(atoms_.size(), kNoRule);
    for (AtomId a : atoms_) candidate_count_ += gp.RulesFor(a).size();
    rule_stamp_.assign(table_->rule_count(), 0);
    stamp_ = 0;
  }
  true_queue_.clear();
  false_queue_.clear();

  diag->rules_visited += table_->rule_count();

  unfounded_.clear();
  if (!support_->InitSources(&unfounded_, cancel)) return false;
  diag->unfounded_falsified += unfounded_.size();
  if (!unfounded_.empty()) {
    uint64_t fb = next_batch_++;
    for (LocalAtom a : unfounded_) RecordFalse(a, fb, values);
  }
  for (LocalRule r = 0; r < table_->rule_count(); ++r) {
    const CompiledRule& rule = table_->rule(r);
    if (!rule.dead && rule.unsat == 0) RecordTrue(rule.head, r, values);
  }
  if (!RunToFixpoint(values, diag, cancel)) {
    // Abort invariant ("fully old or fully new"): the component reads
    // exactly as on entry — all undefined. Stages were not touched. The
    // instance itself is inconsistent now; the owner discards it.
    for (AtomId a : members) values->SetUndefined(a);
    return false;
  }
  diag->unfounded_floods += support_->floods();
  diag->flood_sizes.MergeFrom(support_->flood_sizes());
  if (stages != nullptr) {
    ReconstructComponentStages(gp, graph, comp, disabled, *values, stages);
  }
  return true;
}

bool WarmComponent::BlockedAt(LocalRule r, uint64_t batch,
                              const TruthTape& values,
                              const std::vector<uint8_t>* disabled) const {
  if (disabled != nullptr && (*disabled)[table_->GlobalRule(r)] != 0) {
    return true;
  }
  // External values are final for the whole pass: they block at any batch.
  for (AtomId b : table_->ExtPos(r)) {
    if (values.IsFalse(b)) return true;
  }
  for (AtomId b : table_->ExtNeg(r)) {
    if (values.IsTrue(b)) return true;
  }
  // A positive atom may fall in the same flood (the unfounded set falls
  // together); a derived negative must precede the batch.
  for (LocalAtom b : table_->PosBody(r)) {
    if (values.IsFalse(atoms_[b]) && batch_[b] <= batch) return true;
  }
  for (LocalAtom b : table_->NegBody(r)) {
    if (values.IsTrue(atoms_[b]) && batch_[b] < batch) return true;
  }
  return false;
}

bool WarmComponent::BindingValid(const GroundProgram& gp,
                                 const AtomDependencyGraph& graph,
                                 uint32_t comp,
                                 const TruthTape& values) const {
  if (table_ == nullptr || support_ == nullptr) return false;
  std::span<const AtomId> members = graph.Atoms(comp);
  if (members.size() != atoms_.size()) return false;
  // Sequence (not multiset) equality: a recondensation that re-emitted the
  // members in a different Tarjan order changes every local id the trail
  // and the compiled bodies are keyed by.
  if (!std::equal(members.begin(), members.end(), atoms_.begin())) {
    return false;
  }
  // Rules are only appended to a `GroundProgram`, never removed, so a
  // candidate-count match means no new rule targets this component; mask
  // flips of retained rules are what `Resolve` patches.
  size_t candidates = 0;
  for (AtomId a : atoms_) candidates += gp.RulesFor(a).size();
  if (candidates != candidate_count_) return false;
  // Tape consistency: an out-of-band pass (a fresh full solve, a cold
  // re-solve that bypassed this entry) may have rewritten the component's
  // bytes; the tracker is then stale and the state must be discarded.
  for (LocalAtom a = 0; a < atoms_.size(); ++a) {
    SourceTracker::State s = support_->StateOf(a);
    switch (values.Value(atoms_[a])) {
      case TruthValue::kTrue:
        if (s != SourceTracker::State::kTrue) return false;
        break;
      case TruthValue::kFalse:
        if (s != SourceTracker::State::kFalse) return false;
        break;
      case TruthValue::kUndefined:
        if (s != SourceTracker::State::kSourced) return false;
        break;
    }
  }
  return true;
}

bool WarmComponent::Resolve(const GroundProgram& gp,
                            const AtomDependencyGraph& graph, uint32_t comp,
                            const std::vector<uint8_t>* disabled,
                            TruthTape* values, StageTape* stages,
                            SolverDiagnostics* diag, CancelCtx* cancel) {
  // Same uniform component-boundary checkpoint as `SolveComponent`.
  if (cancel != nullptr && cancel->Checkpoint()) return false;
  GSLS_TRACE_SPAN("solve.component.warm", comp);
  ++diag->recursive_components;
  if (graph.HasInternalNegation(comp)) ++diag->negation_components;
  const uint64_t floods_before = support_->floods();
  const uint64_t flood_sum_before = support_->flood_sizes().sum;
  true_queue_.clear();
  false_queue_.clear();

  // Phase 1: classify the drift against the snapshots — an O(rules) byte
  // scan of the mask plus the drifted externals' occurrence rows. Nothing
  // else in the component is touched.
  ++stamp_;
  recomputed_.clear();
  auto touch = [this](LocalRule r) {
    if (rule_stamp_[r] == stamp_) return;
    rule_stamp_[r] = stamp_;
    recomputed_.push_back(r);
  };
  for (LocalRule r = 0; r < table_->rule_count(); ++r) {
    uint8_t now = disabled != nullptr ? (*disabled)[table_->GlobalRule(r)] : 0;
    if (table_->DisabledSnapshot(r) != now) touch(r);
  }
  for (uint32_t i = 0; i < table_->external_count(); ++i) {
    if (table_->ExternalSnapshot(i) !=
        RuleTable::Code(*values, table_->ExternalAtom(i))) {
      for (LocalRule r : table_->ExternalOccurrences(i)) touch(r);
    }
  }

  // Phase 2: patch the touched rules (pre-undo tape) and collect the undo
  // threshold t*: the earliest batch whose justification the drift broke.
  uint64_t tstar = kNoBatch;
  const size_t drift_rules = recomputed_.size();
  for (size_t k = 0; k < drift_rules; ++k) {
    LocalRule r = recomputed_[k];
    CompiledRule& rule = table_->rule(r);
    const bool was_dead = rule.dead;
    table_->RecomputeRule(r, *values, disabled);
    if (!was_dead && rule.dead) support_->OnRuleDead(r);
    const bool now_fireable = !rule.dead && rule.unsat == 0;
    LocalAtom h = rule.head;
    AtomId hg = atoms_[h];
    // A true head whose firing rule no longer has a wholly satisfied
    // body: its justification broke.
    if (values->IsTrue(hg) && firing_[h] == r && !now_fireable) {
      tstar = std::min(tstar, batch_[h]);
    }
    // A false head's falsification rested on every one of its rules being
    // blocked by a literal decided no later than the head. A drifted rule
    // that is unblocked now — or blocked only by a literal decided after
    // the head fell — no longer justifies it.
    if (values->IsFalse(hg) && !BlockedAt(r, batch_[h], *values, disabled)) {
      tstar = std::min(tstar, batch_[h]);
    }
  }

  // Phase 3: undo the trail suffix with batch >= t*. Suffix-only by
  // construction — batches are monotone along the trail, one flood shares
  // one batch, and every surviving decision's justification references
  // strictly smaller batches, so the survivors stay fully justified.
  size_t undone = 0;
  if (tstar != kNoBatch) {
    while (!trail_.empty() && batch_[trail_.back()] >= tstar) {
      LocalAtom a = trail_.back();
      trail_.pop_back();
      values->SetUndefined(atoms_[a]);
      batch_[a] = kNoBatch;
      firing_[a] = kNoRule;
      support_->OnAtomUndone(a);
      // Every adjacent rule's counters are recomputed below, once the
      // post-undo tape is final. The atom's own candidate rules are
      // touched too: a rule whose body survived the undo untouched can
      // still be fireable, and only phase 4's firing loop will push it
      // back into the now-undefined head — the unfounded flood re-sources
      // undefined atoms but never derives truth.
      for (LocalRule r : table_->RulesFor(a)) touch(r);
      for (LocalRule r : table_->PositiveOccurrences(a)) touch(r);
      for (LocalRule r : table_->NegativeOccurrences(a)) touch(r);
      ++undone;
    }
  }
  diag->warm_undone_atoms += undone;
  diag->rules_visited += recomputed_.size();

  // Phase 4: recompute every touched rule against the post-undo tape
  // (undo can only revive rules — it moves atoms to undefined, never
  // decides them — so no new deaths arise here), then fire the live
  // empty-remainder rules into the undone region.
  for (LocalRule r : recomputed_) {
    CompiledRule& rule = table_->rule(r);
    const bool was_dead = rule.dead;
    table_->RecomputeRule(r, *values, disabled);
    if (!was_dead && rule.dead) support_->OnRuleDead(r);
  }
  for (LocalRule r : recomputed_) {
    const CompiledRule& rule = table_->rule(r);
    if (!rule.dead && rule.unsat == 0 &&
        values->IsUndefined(atoms_[rule.head])) {
      RecordTrue(rule.head, r, values);
    }
  }

  // Phase 5: resume the alternating fixpoint. The first flood is seeded
  // from exactly the undone atoms and the heads whose sources died — the
  // delta's footprint — instead of `InitSources` over the component.
  if (!RunToFixpoint(values, diag, cancel)) return false;
  table_->RefreshSnapshots(*values, disabled);
  ++resolves_;
  ++diag->warm_hits;
  diag->unfounded_floods += support_->floods() - floods_before;
  diag->seeded_flood_sizes.Record(support_->flood_sizes().sum -
                                  flood_sum_before);
  if (stages != nullptr) {
    ReconstructComponentStages(gp, graph, comp, disabled, *values, stages);
  }
  return true;
}

bool WarmComponent::AuditInvariants(const GroundProgram& gp,
                                    const AtomDependencyGraph& graph,
                                    uint32_t comp,
                                    const std::vector<uint8_t>* disabled,
                                    const TruthTape& values,
                                    bool settled, std::string* why) const {
  auto fail = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (table_ == nullptr || support_ == nullptr) {
    return fail("warm entry has no table/tracker");
  }
  if (!settled) {
    // Inputs may have moved since the last reconcile: audit against the
    // external values and mask the snapshots record instead.
    TruthTape snap_values = values;
    for (uint32_t i = 0; i < table_->external_count(); ++i) {
      snap_values.SetValue(
          table_->ExternalAtom(i),
          static_cast<TruthValue>(table_->ExternalSnapshot(i)));
    }
    std::vector<uint8_t> snap_mask;
    if (disabled != nullptr) {
      snap_mask = *disabled;
      for (LocalRule r = 0; r < table_->rule_count(); ++r) {
        snap_mask[table_->GlobalRule(r)] = table_->DisabledSnapshot(r);
      }
    }
    return AuditInvariants(gp, graph, comp,
                           disabled != nullptr ? &snap_mask : nullptr,
                           snap_values, /*settled=*/true, why);
  }
  if (!BindingValid(gp, graph, comp, values)) {
    return fail("warm binding invalid (atom sequence, candidate count, or "
                "tape/tracker mismatch)");
  }
  const size_t n = atoms_.size();

  // Snapshots must be reconciled at quiescence — except an external slot
  // whose every occurrence is mask-disabled: a delta may change such an
  // atom without dirtying this component (disabled rules cannot move its
  // values, so the change-pruned up-cone rightly skips it), and the next
  // warm re-solve reconciles the drift. An *enabled* occurrence of a
  // stale external means the component should have re-solved: violation.
  for (uint32_t i = 0; i < table_->external_count(); ++i) {
    if (table_->ExternalSnapshot(i) ==
        RuleTable::Code(values, table_->ExternalAtom(i))) {
      continue;
    }
    for (LocalRule r : table_->ExternalOccurrences(i)) {
      const uint8_t dis =
          disabled != nullptr ? (*disabled)[table_->GlobalRule(r)] : 0;
      if (dis == 0) {
        return fail(StrCat("external snapshot stale at atom ",
                           table_->ExternalAtom(i),
                           " with enabled occurrence rule ",
                           table_->GlobalRule(r)));
      }
    }
  }
  for (LocalRule r = 0; r < table_->rule_count(); ++r) {
    uint8_t now = disabled != nullptr ? (*disabled)[table_->GlobalRule(r)] : 0;
    if (table_->DisabledSnapshot(r) != now) {
      return fail(
          StrCat("disabled snapshot stale at rule ", table_->GlobalRule(r)));
    }
  }

  // Cached counters: the dead flag must equal a from-scratch recount
  // exactly; live rules' unsat/undef_external likewise. Dead rules'
  // counters are allowed to be stale — the propagation loop never
  // decrements them and a revival recomputes them first.
  for (LocalRule r = 0; r < table_->rule_count(); ++r) {
    const CompiledRule& rule = table_->rule(r);
    bool dead;
    uint32_t undef_ext;
    uint32_t unsat;
    ExpectedCounters(*table_, r, values, disabled, &dead, &undef_ext, &unsat);
    if (rule.dead != dead) {
      return fail(StrCat("rule ", table_->GlobalRule(r), " dead flag is ",
                         rule.dead ? 1 : 0, " but recount says ",
                         dead ? 1 : 0));
    }
    if (!rule.dead &&
        (rule.unsat != unsat || rule.undef_external != undef_ext)) {
      return fail(StrCat("rule ", table_->GlobalRule(r),
                         " counters drifted: unsat=", rule.unsat,
                         " recount=", unsat));
    }
  }

  // Per-atom state: sources live and well-formed; a true atom's firing
  // rule still satisfied by literals decided strictly earlier; every rule
  // of a false atom blocked by a literal decided no later than the atom
  // (a positive body atom of the same flood included).
  for (LocalAtom a = 0; a < n; ++a) {
    switch (support_->StateOf(a)) {
      case SourceTracker::State::kSourced: {
        LocalRule s = support_->SourceOf(a);
        if (s == kNoRule) {
          return fail(StrCat("sourced atom ", atoms_[a], " has no source"));
        }
        const CompiledRule& rule = table_->rule(s);
        if (rule.head != a) {
          return fail(StrCat("source of atom ", atoms_[a],
                             " heads a different atom"));
        }
        if (rule.dead) {
          return fail(StrCat("source of atom ", atoms_[a], " is dead"));
        }
        for (LocalAtom b : table_->PosBody(s)) {
          SourceTracker::State bs = support_->StateOf(b);
          if (bs != SourceTracker::State::kSourced &&
              bs != SourceTracker::State::kTrue) {
            return fail(StrCat("source body of atom ", atoms_[a],
                               " is not supported"));
          }
        }
        break;
      }
      case SourceTracker::State::kUnsourced:
        return fail(StrCat("atom ", atoms_[a], " unsourced at quiescence"));
      case SourceTracker::State::kTrue: {
        LocalRule f = firing_[a];
        if (f == kNoRule || batch_[a] == kNoBatch) {
          return fail(StrCat("true atom ", atoms_[a],
                             " without firing rule or batch"));
        }
        const CompiledRule& rule = table_->rule(f);
        if (rule.head != a || rule.dead || rule.unsat != 0) {
          return fail(StrCat("firing rule of atom ", atoms_[a],
                             " no longer fires it"));
        }
        // Justification order: the body was satisfied before the head.
        for (LocalAtom b : table_->PosBody(f)) {
          if (batch_[b] >= batch_[a]) {
            return fail(StrCat("true atom ", atoms_[a], " fired by atom ",
                               atoms_[b], " decided no earlier"));
          }
        }
        for (LocalAtom b : table_->NegBody(f)) {
          if (batch_[b] >= batch_[a]) {
            return fail(StrCat("true atom ", atoms_[a], " fired by not ",
                               atoms_[b], " decided no earlier"));
          }
        }
        break;
      }
      case SourceTracker::State::kFalse: {
        for (LocalRule r : table_->RulesFor(a)) {
          if (!BlockedAt(r, batch_[a], values, disabled)) {
            return fail(StrCat("false atom ", atoms_[a], " has rule ",
                               table_->GlobalRule(r),
                               " not blocked by its batch"));
          }
        }
        break;
      }
    }
  }

  // Trail well-formedness: exactly the decided atoms, each once, batches
  // monotone non-decreasing in push order.
  std::vector<uint8_t> on_trail(n, 0);
  uint64_t prev = 0;
  bool first = true;
  for (LocalAtom a : trail_) {
    if (on_trail[a]) return fail(StrCat("atom ", atoms_[a], " twice on trail"));
    on_trail[a] = 1;
    if (batch_[a] == kNoBatch) {
      return fail(StrCat("trail atom ", atoms_[a], " without batch"));
    }
    if (!first && batch_[a] < prev) {
      return fail(StrCat("trail batches not monotone at atom ", atoms_[a]));
    }
    prev = batch_[a];
    first = false;
    if (values.IsUndefined(atoms_[a])) {
      return fail(StrCat("undecided atom ", atoms_[a], " on trail"));
    }
  }
  for (LocalAtom a = 0; a < n; ++a) {
    bool decided = !values.IsUndefined(atoms_[a]);
    if (decided && !on_trail[a]) {
      return fail(StrCat("decided atom ", atoms_[a], " missing from trail"));
    }
    if (!decided && batch_[a] != kNoBatch) {
      return fail(StrCat("undecided atom ", atoms_[a], " carries a batch"));
    }
  }

  // Source-pointer acyclicity: DFS over the sourced atoms following the
  // source rule's internal positive body (true atoms terminate chains).
  std::vector<uint8_t> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::pair<LocalAtom, size_t>> stack;
  for (LocalAtom root = 0; root < n; ++root) {
    if (support_->StateOf(root) != SourceTracker::State::kSourced ||
        color[root] != 0) {
      continue;
    }
    color[root] = 1;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      LocalAtom a = stack.back().first;
      std::span<const LocalAtom> body = table_->PosBody(support_->SourceOf(a));
      if (stack.back().second == body.size()) {
        color[a] = 2;
        stack.pop_back();
        continue;
      }
      LocalAtom b = body[stack.back().second++];
      if (support_->StateOf(b) != SourceTracker::State::kSourced) continue;
      if (color[b] == 1) {
        return fail(StrCat("source pointer cycle through atom ", atoms_[b]));
      }
      if (color[b] == 0) {
        color[b] = 1;
        stack.push_back({b, 0});
      }
    }
  }
  return true;
}

}  // namespace gsls::solver
