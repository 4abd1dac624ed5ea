#include "gen.h"

#include <algorithm>
#include <unordered_set>

namespace e2e {

namespace {

Region& Open(Graph* g, const std::string& name, Shape shape) {
  Region r;
  r.name = name;
  r.shape = shape;
  r.first_node = static_cast<uint32_t>(g->names.size());
  r.first_edge = static_cast<uint32_t>(g->edges.size());
  g->regions.push_back(r);
  return g->regions.back();
}

void Close(Graph* g, Region& r) {
  r.node_count = static_cast<uint32_t>(g->names.size()) - r.first_node;
  r.edge_count = static_cast<uint32_t>(g->edges.size()) - r.first_edge;
}

}  // namespace

void AddChain(Graph* g, const std::string& prefix, uint32_t n) {
  Region& r = Open(g, prefix, Shape::kChain);
  for (uint32_t i = 0; i < n; ++i) {
    g->names.push_back(prefix + std::to_string(i));
    if (i + 1 < n) {
      g->edges.emplace_back(r.first_node + i, r.first_node + i + 1);
    }
  }
  Close(g, r);
}

void AddGrid(Graph* g, const std::string& prefix, uint32_t w, uint32_t h) {
  Region& r = Open(g, prefix, Shape::kGrid);
  auto id = [&](uint32_t x, uint32_t y) { return r.first_node + x * h + y; };
  for (uint32_t x = 0; x < w; ++x) {
    for (uint32_t y = 0; y < h; ++y) {
      g->names.push_back(prefix + std::to_string(x) + "_" + std::to_string(y));
    }
  }
  for (uint32_t x = 0; x < w; ++x) {
    for (uint32_t y = 0; y < h; ++y) {
      if (x + 1 < w) g->edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < h) g->edges.emplace_back(id(x, y), id(x, y + 1));
    }
  }
  Close(g, r);
}

void AddRandom(Graph* g, gsls::Rng& rng, const std::string& prefix,
               uint32_t n, double edge_pct) {
  Region& r = Open(g, prefix, Shape::kRandom);
  for (uint32_t i = 0; i < n; ++i) {
    g->names.push_back(prefix + std::to_string(i));
  }
  // Exactly round(edge_pct% of the n(n-1) ordered pairs), drawn uniformly:
  // a fixed edge count keeps input sizes, and so timings, from varying
  // with the seed more than the graph's shape makes them.
  const uint64_t pairs = uint64_t{n} * (n - 1);
  const uint64_t m = static_cast<uint64_t>(pairs * edge_pct / 100.0 + 0.5);
  std::vector<uint64_t> picked;  // i * n + j
  std::unordered_set<uint64_t> seen;
  while (picked.size() < m) {
    const uint64_t i = rng.Uniform(n), j = rng.Uniform(n);
    if (i != j && seen.insert(i * n + j).second) picked.push_back(i * n + j);
  }
  std::sort(picked.begin(), picked.end());
  for (uint64_t p : picked) {
    g->edges.emplace_back(r.first_node + static_cast<uint32_t>(p / n),
                          r.first_node + static_cast<uint32_t>(p % n));
  }
  Close(g, r);
}

std::string GameText(const Graph& g) {
  std::string src = "win(X) :- move(X, Y), not win(Y).\n";
  src.reserve(src.size() + g.edges.size() * 24);
  for (const Edge& e : g.edges) {
    src += "move(" + g.names[e.first] + ", " + g.names[e.second] + ").\n";
  }
  return src;
}

}  // namespace e2e
