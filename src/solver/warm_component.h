#ifndef GSLS_SOLVER_WARM_COMPONENT_H_
#define GSLS_SOLVER_WARM_COMPONENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/rule_table.h"
#include "solver/solver.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "solver/unfounded.h"
#include "util/cancel.h"

namespace gsls::solver {

inline constexpr uint64_t kNoBatch = UINT64_MAX;

/// Persistent intra-component evaluation state: the warm dual of the
/// component-level change pruning `IncrementalSolver` already does. One
/// instance lives per large recursive component (keyed by its first member
/// atom) and survives across deltas, keeping
///
///   * the component's keep-all `RuleTable` (every candidate retained, so
///     mask flips and external drift are counter patches, not recompiles),
///   * the `SourceTracker` with its live source pointers, and
///   * a decision trail: every decided atom in decision order, with a
///     monotone batch stamp and, for true atoms, the rule that fired it.
///
/// A delta then re-solves the component by *patching*: classify the drift
/// against the table's snapshots, undo the smallest trail suffix whose
/// justifications the drift invalidated, seed the unfounded flood from
/// exactly the undone atoms and killed rules, and resume the alternating
/// fixpoint — instead of a cold compile + `InitSources` over the whole
/// component.
///
/// Soundness rests on two invariants, both audited (`AuditInvariants`,
/// called from `check::SolverAuditor`):
///
///   * Justification monotonicity: the batch of every atom justifying a
///     decision (the firing rule's satisfied body for a true atom; the
///     dead rules' false witnesses for a false atom) is strictly smaller
///     than the decision's own batch, and one flood's falsifications share
///     one batch (they are mutually justified — a partial flood undo would
///     be unsound). Undoing a *suffix* of the trail by batch therefore
///     leaves every survivor fully justified, and the alternating fixpoint
///     restarted from that sound under-approximation converges to the same
///     well-founded model a cold solve computes.
///   * Warm state is provably consistent or discarded: the owner re-binds
///     an entry only after `BindingValid` (same atom sequence, same
///     candidate rule count, tape consistent with the tracker) and throws
///     the entry away on any abort or recondensation touching it.
class WarmComponent {
 public:
  /// Whether `comp` should carry warm state at all: recursive and at least
  /// `warm_min_atoms` atoms (0 disables). Depends only on component shape,
  /// never on the schedule, so warm/cold decisions are identical at every
  /// thread count.
  static bool Eligible(const AtomDependencyGraph& graph, uint32_t comp,
                       uint32_t warm_min_atoms) {
    return warm_min_atoms != 0 && graph.IsRecursive(comp) &&
           graph.Atoms(comp).size() >= warm_min_atoms;
  }

  /// Cold-compiles the component's table and runs the full alternating
  /// fixpoint with trail recording under `SolveComponent`'s contract
  /// (entry checkpoint, all atoms undefined on entry, tape reset to
  /// undefined on abort). With `persist`, the table is the keep-all one
  /// and the instance is a reusable warm state; without it, this is the
  /// cold recursive-component solve `SolveComponent` runs: no trail,
  /// batches or binding state are recorded, and the instance must not be
  /// resumed. False iff the pass aborted; the
  /// instance is then inconsistent and must be discarded.
  bool SolveFromScratch(const GroundProgram& gp,
                        const AtomDependencyGraph& graph, uint32_t comp,
                        const std::vector<uint8_t>* disabled,
                        TruthTape* values, StageTape* stages,
                        SolverDiagnostics* diag, CancelCtx* cancel,
                        bool persist = true);

  /// True iff this warm state still describes component `comp`: identical
  /// atom sequence (a recondensation that reordered or re-grouped members
  /// invalidates the local ids), identical candidate-rule count (rules are
  /// only ever appended to `gp`, so count equality means no new rule
  /// targets this component — mask flips of retained rules stay patchable),
  /// and a tape consistent with the tracker state (guards against
  /// out-of-band solves having rewritten the component's bytes).
  bool BindingValid(const GroundProgram& gp, const AtomDependencyGraph& graph,
                    uint32_t comp, const TruthTape& values) const;

  /// Warm re-solve: patch, undo, seed, resume (see class comment). On
  /// entry the tape holds the previous quiescent model for this component
  /// and final post-delta values for every lower component; `disabled` is
  /// the post-delta mask. False iff the pass aborted — the tape may hold
  /// partial writes (the caller restores its snapshot) and the instance
  /// must be discarded.
  bool Resolve(const GroundProgram& gp, const AtomDependencyGraph& graph,
               uint32_t comp, const std::vector<uint8_t>* disabled,
               TruthTape* values, StageTape* stages, SolverDiagnostics* diag,
               CancelCtx* cancel);

  /// Deep consistency check of the persisted state against the live tape
  /// and mask, for `check::SolverAuditor`: tracker/tape agreement, source
  /// pointers live and acyclic, live-rule counters equal to a from-scratch
  /// recount, snapshots reconciled, trail batches monotone with every
  /// decision justified. Without `settled` (the component is queued for
  /// re-solve, so its inputs may have moved since its last reconcile) the
  /// snapshots need not be reconciled, and every other check runs against
  /// the external values and mask they record. Returns false and sets
  /// `*why` (when non-null) to a one-line reason on the first violation.
  bool AuditInvariants(const GroundProgram& gp,
                       const AtomDependencyGraph& graph, uint32_t comp,
                       const std::vector<uint8_t>* disabled,
                       const TruthTape& values, bool settled,
                       std::string* why) const;

  size_t atom_count() const { return atoms_.size(); }
  uint64_t resolves() const { return resolves_; }

 private:
  void RecordTrue(LocalAtom a, LocalRule r, TruthTape* values);
  void RecordFalse(LocalAtom a, uint64_t batch, TruthTape* values);
  void Kill(LocalRule r);
  bool Propagate(TruthTape* values, CancelCtx* cancel);
  /// True iff rule `r` is blocked by a literal decided no later than
  /// `batch`: the rule is disabled, an external literal blocks it, an
  /// internal positive atom fell at a batch <= `batch`, or an internal
  /// negative atom was derived at a batch < `batch`.
  bool BlockedAt(LocalRule r, uint64_t batch, const TruthTape& values,
                 const std::vector<uint8_t>* disabled) const;
  /// The shared alternating loop (lfp propagation x unfounded floods),
  /// from whatever queues/pending are seeded. False on abort.
  bool RunToFixpoint(TruthTape* values, SolverDiagnostics* diag,
                     CancelCtx* cancel);

  std::unique_ptr<RuleTable> table_;     ///< keep-all compile
  std::unique_ptr<SourceTracker> support_;
  bool persist_ = false;                 ///< trail and binding recorded
  std::vector<AtomId> atoms_;            ///< binding: the compiled sequence
  size_t candidate_count_ = 0;           ///< binding: gp rule count then

  std::vector<LocalAtom> trail_;         ///< decided atoms, decision order
  std::vector<uint64_t> batch_;          ///< per atom; kNoBatch if undecided
  std::vector<LocalRule> firing_;        ///< per atom; rule that fired it
  uint64_t next_batch_ = 0;
  uint64_t resolves_ = 0;

  // Solve/patch scratch, reused across calls.
  std::vector<LocalAtom> true_queue_;
  std::vector<LocalAtom> false_queue_;
  std::vector<LocalAtom> unfounded_;
  std::vector<LocalRule> recomputed_;    ///< rules patched this resolve
  std::vector<uint32_t> rule_stamp_;     ///< dedup epoch per rule
  uint32_t stamp_ = 0;
};

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_WARM_COMPONENT_H_
