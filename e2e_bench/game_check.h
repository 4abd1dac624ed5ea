// Compares the program's answers on a win/move game with the retrograde
// oracle. Used by every workload: the checks run outside timed sections.
#ifndef E2E_BENCH_GAME_CHECK_H_
#define E2E_BENCH_GAME_CHECK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen.h"
#include "oracle.h"
#include "report.h"
#include "serve/snapshot.h"

namespace e2e {

/// The program's answers for the `win` atom of every node and the `move`
/// atom of every base edge, as gathered from a snapshot. A node whose
/// `win` atom the snapshot never registered is false at stage 1, the
/// program's convention for atoms outside the relevant instantiation.
struct GameView {
  GameView(uint32_t nodes, uint32_t edges)
      : win(nodes, 0), t(nodes, 0), f(nodes, 1), move(edges, 0) {}
  void SetWin(uint32_t node, const gsls::serve::SnapshotAnswer& a) {
    win[node] = static_cast<uint8_t>(a.value);
    t[node] = a.true_stage;
    f[node] = a.false_stage;
  }
  std::vector<uint8_t> win;  ///< `TruthValue` numbering
  std::vector<uint32_t> t, f;
  std::vector<uint8_t> move;  ///< per base edge
  uint64_t true_atoms = 0;    ///< true atoms in the whole snapshot
};

/// Checks `view` against `sol` (solved over all of the view's nodes):
/// every `win` value and stage, every `move` value against `edge_on`, the
/// count of true atoms, and the local Def. 2.4 conditions on the
/// program's own stages over the `active` successor edges: a won position
/// has a stage above that of some lost successor, a lost position a stage
/// above that of every successor. Mismatches go to `rep`.
void CompareGame(const GameView& view, const GameSolution& sol,
                 std::span<const Edge> active,
                 const std::vector<uint8_t>& edge_on, Report* rep,
                 const std::string& what);

/// Checks one point answer for `node` against a (possibly region-local)
/// oracle solution.
void CompareWin(const gsls::serve::SnapshotAnswer& a, uint32_t node,
                const GameSolution& sol, Report* rep, const std::string& what);

}  // namespace e2e

#endif  // E2E_BENCH_GAME_CHECK_H_
