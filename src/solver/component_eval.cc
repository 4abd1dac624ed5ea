#include "solver/component_eval.h"

#include "solver/warm_component.h"

namespace gsls::solver {

namespace {

/// Direct 3-valued evaluation of a non-recursive atom: every body literal
/// refers to a lower component, so its value is final, and the atom is
/// just the disjunction of its rules' body conjunctions. O(rules) with no
/// fixpoint machinery — this is the hot path on stratified chains.
TruthValue EvalNonRecursiveAtom(const GroundProgram& gp, AtomId atom,
                                const TruthTape& values,
                                const std::vector<uint8_t>* disabled,
                                uint64_t* rules_visited) {
  TruthValue out = TruthValue::kFalse;
  for (RuleId rid : gp.RulesFor(atom)) {
    if (disabled != nullptr && (*disabled)[rid]) continue;
    ++*rules_visited;
    const GroundRule& r = gp.rules()[rid];
    TruthValue body = TruthValue::kTrue;
    for (AtomId b : r.pos) {
      if (values.IsFalse(b)) {
        body = TruthValue::kFalse;
        break;
      }
      if (!values.IsTrue(b)) body = TruthValue::kUndefined;
    }
    if (body != TruthValue::kFalse) {
      for (AtomId b : r.neg) {
        if (values.IsTrue(b)) {
          body = TruthValue::kFalse;
          break;
        }
        if (!values.IsFalse(b)) body = TruthValue::kUndefined;
      }
    }
    if (body == TruthValue::kTrue) return TruthValue::kTrue;
    if (body == TruthValue::kUndefined) out = TruthValue::kUndefined;
  }
  return out;
}

}  // namespace

bool SolveComponent(const GroundProgram& gp, const AtomDependencyGraph& graph,
                    uint32_t comp, const std::vector<uint8_t>* disabled,
                    TruthTape* values, StageTape* stages,
                    SolverDiagnostics* diag, CancelCtx* cancel) {
  if (graph.IsRecursive(comp)) {
    // The warm store's from-scratch solve, without the retained-rule
    // metadata and discarded on return: one copy of the per-component
    // fixpoint for cold and warm re-solves alike.
    return WarmComponent().SolveFromScratch(gp, graph, comp, disabled, values,
                                            stages, diag, cancel,
                                            /*persist=*/false);
  }
  // The uniform component-boundary checkpoint: every schedule funnels
  // through here (or through the warm entry points, which poll the same
  // way), so "one checkpoint per component processed" holds at any thread
  // count — which is also what makes the fault injector's checkpoint
  // numbering deterministic.
  if (cancel != nullptr && cancel->Checkpoint()) return false;
  // Singleton without a self-loop: one 3-valued pass over its rules.
  AtomId a = graph.Atoms(comp)[0];
  switch (EvalNonRecursiveAtom(gp, a, *values, disabled,
                               &diag->rules_visited)) {
    case TruthValue::kTrue: values->SetTrue(a); break;
    case TruthValue::kFalse: values->SetFalse(a); break;
    case TruthValue::kUndefined: break;
  }
  if (stages != nullptr) {
    ReconstructComponentStages(gp, graph, comp, disabled, *values, stages);
  }
  return true;
}

}  // namespace gsls::solver
