#ifndef GSLS_SOLVER_COMPONENT_EVAL_H_
#define GSLS_SOLVER_COMPONENT_EVAL_H_

#include <cstdint>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/solver.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "util/cancel.h"

namespace gsls::solver {

/// The per-component evaluation step of `SolveWfs`, shared by every
/// `ConeExecutor` pass (solver/parallel.h) so the full solver, the
/// delta-driven `IncrementalSolver`, and the threaded schedule run the
/// exact same machinery. It takes an optional `disabled` mask (one byte per
/// `RuleId`; nonzero = the rule does not exist for this solve), which is
/// how retracted facts are hidden without rebuilding the `GroundProgram`.
///
/// All evaluation reads and writes a `TruthTape` — the flat byte-per-atom
/// model store — rather than the bit-packed `Interpretation`: one load per
/// atom on the hot path, and disjoint components touch disjoint bytes, so
/// workers finalizing different components never share a memory location.
///
/// Solves component `comp` into `*values` (dispatching on
/// `graph.IsRecursive`), assuming its atoms are undefined and all lower
/// components final. Each worker passes its own private `diag` (see
/// `SolverDiagnostics::MergeFrom`). A non-recursive singleton is one
/// 3-valued pass over its rules; a recursive component runs the
/// watched-counter least fixpoint alternating with source-pointer
/// unfounded-set floods.
///
/// When `stages` is non-null, the component's global V_P stage levels are
/// reconstructed into it right after its values finalize
/// (`ReconstructComponentStages`, solver/stages.h) — which requires the
/// stages of every lower component to be final in `*stages`, the exact
/// invariant the dependency-order (and DAG-release) schedules already
/// guarantee for the values. Null skips every levels cost.
///
/// A non-null `cancel` is polled once at entry (this is the uniform
/// component-boundary checkpoint of every schedule) and strided inside the
/// recursive loops. Returns false iff the pass aborted before this
/// component finalized; the component's tape (and stage) entries are then
/// exactly as on entry — all-undefined — so the abort invariant "fully old
/// or fully new" reduces to the caller restoring its own snapshot (the
/// delta path) or nothing at all (the from-scratch path).
bool SolveComponent(const GroundProgram& gp, const AtomDependencyGraph& graph,
                    uint32_t comp, const std::vector<uint8_t>* disabled,
                    TruthTape* values, StageTape* stages,
                    SolverDiagnostics* diag, CancelCtx* cancel = nullptr);

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_COMPONENT_EVAL_H_
