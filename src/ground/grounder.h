#ifndef GSLS_GROUND_GROUNDER_H_
#define GSLS_GROUND_GROUNDER_H_

#include "ground/ground_program.h"
#include "ground/herbrand.h"
#include "lang/program.h"
#include "util/cancel.h"
#include "util/status.h"

namespace gsls {

/// Options for `GroundRelevant` / `FullyInstantiate`.
struct GroundingOptions {
  UniverseOptions universe;
  size_t max_rules = 2'000'000;  ///< Hard cap on emitted ground rules.
  size_t max_atoms = 1'000'000;  ///< Hard cap on registered ground atoms.
  /// Rule instances whose atoms have argument terms deeper than this are
  /// dropped (0 = use `universe.max_term_depth`). Function symbols in rule
  /// heads would otherwise let the derivation escape every universe bound;
  /// for function-free programs the cap is irrelevant. Truncation makes
  /// the grounding a sound under-approximation for goals whose derivations
  /// stay within the bound.
  uint32_t max_atom_arg_depth = 0;
};

/// Produces the *relevant* finite fragment of the Herbrand instantiation:
/// only rule instances whose positive body atoms are all derivable when
/// every negative literal is assumed true (a standard over-approximation:
/// the emitted fragment provably contains every rule instance that can
/// matter to the well-founded model, because atoms outside the
/// over-approximation are false in it). Variables not bound by positive
/// body matching (in heads or negative literals of non-range-restricted
/// clauses) are enumerated over the bounded universe.
///
/// For function-free programs with `max_term_depth == 1` this is exact:
/// the well-founded model of the result, extended with falsehood for all
/// unregistered atoms, is the well-founded model of `program`.
///
/// `cancel` (optional) is polled every `kCancelStride` derived atoms and
/// emitted instances for its token and deadline (`CancelCtx::Poll`); a
/// fired token returns `kCancelled`, a passed deadline
/// `kDeadlineExceeded`. Null keeps the run free of polling.
Result<GroundProgram> GroundRelevant(const Program& program,
                                     const GroundingOptions& opts,
                                     const CancelCtx* cancel = nullptr);

/// The brute-force Herbrand instantiation (Def. 1.5) over the bounded
/// universe: every clause instantiated in every possible way. Exponential;
/// intended for cross-validating `GroundRelevant` on small programs.
Result<GroundProgram> FullyInstantiate(const Program& program,
                                       const GroundingOptions& opts);

/// Restricts `gp` to the rules relevant to `roots`: the least set of atoms
/// containing every registered atom that unifies with a root atom and
/// closed under "body atoms of rules for relevant atoms". Atom ids are
/// re-assigned in the result.
GroundProgram RestrictToRelevant(const GroundProgram& gp,
                                 const std::vector<const Term*>& roots);

}  // namespace gsls

#endif  // GSLS_GROUND_GROUNDER_H_
