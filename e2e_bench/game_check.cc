#include "game_check.h"

namespace e2e {

namespace {

constexpr uint8_t kFalse = static_cast<uint8_t>(Verdict::kFalse);
constexpr uint8_t kTrue = static_cast<uint8_t>(Verdict::kTrue);

}  // namespace

void CompareWin(const gsls::serve::SnapshotAnswer& a, uint32_t node,
                const GameSolution& sol, Report* rep,
                const std::string& what) {
  const uint32_t i = node - sol.base;
  if (static_cast<uint8_t>(a.value) != static_cast<uint8_t>(sol.win[i]) ||
      a.true_stage != sol.true_stage[i] ||
      a.false_stage != sol.false_stage[i]) {
    rep->Wrong(what + ": win(node " + std::to_string(node) + ") is " +
               std::to_string(static_cast<int>(a.value)) + " t" +
               std::to_string(a.true_stage) + " f" +
               std::to_string(a.false_stage) + ", oracle " +
               std::to_string(static_cast<int>(sol.win[i])) + " t" +
               std::to_string(sol.true_stage[i]) + " f" +
               std::to_string(sol.false_stage[i]));
  }
}

void CompareGame(const GameView& view, const GameSolution& sol,
                 std::span<const Edge> active,
                 const std::vector<uint8_t>& edge_on, Report* rep,
                 const std::string& what) {
  const uint32_t n = static_cast<uint32_t>(view.win.size());
  uint64_t want_true = 0;
  for (uint32_t x = 0; x < n; ++x) {
    gsls::serve::SnapshotAnswer a;
    a.value = static_cast<gsls::TruthValue>(view.win[x]);
    a.true_stage = view.t[x];
    a.false_stage = view.f[x];
    CompareWin(a, x, sol, rep, what);
    want_true += sol.win[x] == Verdict::kTrue;
  }
  for (size_t e = 0; e < edge_on.size(); ++e) {
    want_true += edge_on[e];
    if (view.move[e] != (edge_on[e] ? kTrue : kFalse)) {
      rep->Wrong(what + ": move atom of edge " + std::to_string(e) +
                 " has the wrong value");
    }
  }
  if (view.true_atoms != want_true) {
    rep->Wrong(what + ": " + std::to_string(view.true_atoms) +
               " true atoms, oracle " + std::to_string(want_true));
  }
  // Local Def. 2.4 conditions, on the program's stages alone.
  std::vector<uint8_t> won_ok(n, 0), lost_ok(n, 1);
  for (const Edge& e : active) {
    const uint32_t x = e.first, y = e.second;
    if (view.win[x] == kTrue && view.win[y] == kFalse &&
        view.t[x] > view.f[y]) {
      won_ok[x] = 1;
    }
    if (view.win[x] == kFalse &&
        !(view.win[y] == kTrue && view.f[x] > view.t[y])) {
      lost_ok[x] = 0;
    }
  }
  for (uint32_t x = 0; x < n; ++x) {
    if ((view.win[x] == kTrue && !won_ok[x]) ||
        (view.win[x] == kFalse && !lost_ok[x])) {
      rep->Wrong(what + ": stage of win(node " + std::to_string(x) +
                 ") breaks the local Def. 2.4 condition");
    }
  }
}

}  // namespace e2e
