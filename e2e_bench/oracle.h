// The independent oracle for the benchmark's answers. It works on the
// generated graphs alone and calls no parser, grounder, solver or wfs/
// code, so a fault in the program cannot hide in its own check.
#ifndef E2E_BENCH_ORACLE_H_
#define E2E_BENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen.h"

namespace e2e {

/// Truth of an atom, numbered like the program's `TruthValue`.
enum class Verdict : uint8_t { kFalse = 0, kUndefined = 1, kTrue = 2 };

/// Retrograde analysis of the win/move game over nodes [base, base + n):
/// a position without moves is lost, one with a move to a lost position is
/// won, one whose moves all reach won positions is lost, and the rest are
/// drawn (`win` undefined). The stages are the least solution of the local
/// Def. 2.4 equations for `win(x) :- move(x, y), not win(y).`:
///   won x:  t(x) = 1 + min f(y) over lost successors y
///   lost x: f(x) = max(1, 1 + max t(y) over successors y)
/// Settling positions in breadth-first order of their stage yields exactly
/// these minima and maxima. Every edge must have both ends in the range.
struct GameSolution {
  uint32_t base = 0;
  std::vector<Verdict> win;
  std::vector<uint32_t> true_stage;   ///< 0 unless won
  std::vector<uint32_t> false_stage;  ///< 0 unless lost
};
GameSolution SolveGame(uint32_t base, uint32_t n, std::span<const Edge> edges);

/// Checks the oracle on hand-sized graphs with known answers (an
/// alternating chain, a cycle with a tail, an odd cycle that is all
/// drawn). Returns false and says why on a mismatch.
bool OracleSelfTest(std::string* why);

}  // namespace e2e

#endif  // E2E_BENCH_ORACLE_H_
