#include "oracle.h"

namespace e2e {

GameSolution SolveGame(uint32_t base, uint32_t n,
                       std::span<const Edge> edges) {
  GameSolution s;
  s.base = base;
  s.win.assign(n, Verdict::kUndefined);
  s.true_stage.assign(n, 0);
  s.false_stage.assign(n, 0);
  // Predecessor lists (CSR) and the count of successors not yet won.
  std::vector<uint32_t> open(n, 0), start(n + 1, 0), preds(edges.size());
  for (const Edge& e : edges) {
    ++open[e.first - base];
    ++start[e.second - base + 1];
  }
  for (uint32_t i = 0; i < n; ++i) start[i + 1] += start[i];
  std::vector<uint32_t> fill(start.begin(), start.end() - 1);
  for (const Edge& e : edges) preds[fill[e.second - base]++] = e.first - base;

  std::vector<uint32_t> queue;
  queue.reserve(n);
  for (uint32_t x = 0; x < n; ++x) {
    if (open[x] == 0) {
      s.win[x] = Verdict::kFalse;
      s.false_stage[x] = 1;
      queue.push_back(x);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t x = queue[head];
    const bool lost = s.win[x] == Verdict::kFalse;
    const uint32_t stage = lost ? s.false_stage[x] : s.true_stage[x];
    for (uint32_t k = start[x]; k < start[x + 1]; ++k) {
      const uint32_t p = preds[k];
      if (s.win[p] != Verdict::kUndefined) continue;
      if (lost) {
        s.win[p] = Verdict::kTrue;
        s.true_stage[p] = stage + 1;
        queue.push_back(p);
      } else if (--open[p] == 0) {
        s.win[p] = Verdict::kFalse;
        s.false_stage[p] = stage + 1;
        queue.push_back(p);
      }
    }
  }
  return s;
}

namespace {

struct Want {
  Verdict win;
  uint32_t stage;  ///< t if won, f if lost, 0 if drawn
};

bool CheckGame(const char* name, uint32_t n, const std::vector<Edge>& edges,
               const std::vector<Want>& want, std::string* why) {
  GameSolution s = SolveGame(0, n, edges);
  for (uint32_t x = 0; x < n; ++x) {
    const uint32_t stage = s.win[x] == Verdict::kTrue    ? s.true_stage[x]
                           : s.win[x] == Verdict::kFalse ? s.false_stage[x]
                                                         : 0;
    if (s.win[x] != want[x].win || stage != want[x].stage) {
      *why = std::string("oracle self-test ") + name + ": node " +
             std::to_string(x) + " wrong";
      return false;
    }
  }
  return true;
}

}  // namespace

bool OracleSelfTest(std::string* why) {
  const Verdict T = Verdict::kTrue, F = Verdict::kFalse,
                U = Verdict::kUndefined;
  // a0 -> a1 -> a2 -> a3: stages 4, 3, 2, 1, won and lost alternating.
  if (!CheckGame("alternating chain", 4, {{0, 1}, {1, 2}, {2, 3}},
                 {{T, 4}, {F, 3}, {T, 2}, {F, 1}}, why)) {
    return false;
  }
  // Cycle c0 -> c1 -> c2 -> c0 with tail c0 -> t3 -> t4: the tail is
  // decided (t4 lost, t3 won), but c0's other move keeps the cycle drawn.
  if (!CheckGame("cycle with tail", 5,
                 {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}},
                 {{U, 0}, {U, 0}, {U, 0}, {T, 2}, {F, 1}}, why)) {
    return false;
  }
  // Same cycle, tail entered from c0 at a lost position: c0 is won, c2
  // (whose only move is to c0) lost, c1 won.
  if (!CheckGame("cycle with lost exit", 4, {{0, 1}, {1, 2}, {2, 0}, {0, 3}},
                 {{T, 2}, {T, 4}, {F, 3}, {F, 1}}, why)) {
    return false;
  }
  // Odd cycle a -> b -> c -> a: all drawn.
  if (!CheckGame("odd cycle", 3, {{0, 1}, {1, 2}, {2, 0}},
                 {{U, 0}, {U, 0}, {U, 0}}, why)) {
    return false;
  }
  return true;
}

}  // namespace e2e
