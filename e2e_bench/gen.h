// Seeded input generator. Every workload input is a digraph whose nodes
// become constants of a generated win/move program text; the benchmark
// hands the program only that text (and, for deltas, terms interned from
// it during set-up), and keeps the graph itself for the oracle.
#ifndef E2E_BENCH_GEN_H_
#define E2E_BENCH_GEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace e2e {

using Edge = std::pair<uint32_t, uint32_t>;

/// How a region was built; the delta plans pick rule deltas by shape.
enum class Shape : uint8_t { kChain, kGrid, kRandom };

/// A contiguous slice of a graph's nodes and edges: one chain, grid or
/// random game of a workload's program. Regions share no edges, so each
/// one can be re-checked on its own.
struct Region {
  std::string name;
  Shape shape = Shape::kChain;
  uint32_t first_node = 0;
  uint32_t node_count = 0;
  uint32_t first_edge = 0;
  uint32_t edge_count = 0;
};

struct Graph {
  std::vector<std::string> names;  ///< node id -> program constant
  std::vector<Edge> edges;
  std::vector<Region> regions;
};

/// Appends a region to `g`: a chain p0 -> p1 -> ... -> p(n-1).
void AddChain(Graph* g, const std::string& prefix, uint32_t n);
/// A w x h grid, moves right and down (acyclic, long stage chains).
void AddGrid(Graph* g, const std::string& prefix, uint32_t w, uint32_t h);
/// A random digraph over n nodes with `edge_pct`% of the n(n-1) ordered
/// pairs (no self-loops) as edges, chosen uniformly.
void AddRandom(Graph* g, gsls::Rng& rng, const std::string& prefix,
               uint32_t n, double edge_pct);

/// The win/move game program: `win(X) :- move(X, Y), not win(Y).` plus
/// one `move` fact per edge.
std::string GameText(const Graph& g);

}  // namespace e2e

#endif  // E2E_BENCH_GEN_H_
