#include "inputs.h"

#include <algorithm>

namespace e2e {

namespace {

constexpr size_t kServePlans = 64;
constexpr uint32_t kServeEdgesPerRound = 16;  ///< retracted, then re-asserted
constexpr uint32_t kReadTargets = 4096;       ///< seeded read targets

}  // namespace

bool MakeInputs(const std::string& workload, uint64_t seed, Inputs* in) {
  gsls::Rng rng(seed);
  Graph& g = in->graph;
  in->workload = workload;
  if (workload == "regions") {
    // Three regions with unlike component structure: a chain (deep cones,
    // change pruning), a dense random game (one giant SCC through
    // negation, warm interiors) and a grid (many small components).
    AddChain(&g, "c", 4096);
    AddRandom(&g, rng, "d", 1000, 1.0);
    AddGrid(&g, "g", 32, 32);
    in->delta_regions = {0, 1, 2};
    // Dense rule deltas cost several times chain ones; with equal shares
    // the median would fall in the gap between the two and move with
    // every sample, so 3:1 puts the p50 among chain deltas and the p90
    // among dense ones.
    in->chain_rules = 3;
    in->random_rules = 1;
    in->deltas_per_second = 500;
  } else if (workload == "lattice") {
    // The two fixed shapes alone: a long chain (deep cones, change
    // pruning) and a wide grid (long stage chains, many small
    // components). The game does not depend on the seed, which picks only
    // the deltas and queries; no negation cycle exists until a rule delta
    // closes one in the chain.
    AddChain(&g, "c", 8192);
    AddGrid(&g, "g", 48, 48);
    // Two chain deltas to one grid delta: grid deltas cost far less, and
    // with equal shares the medians would fall in the gap between the two
    // kinds, moving with every sample.
    in->delta_regions = {0, 0, 1};
    in->chain_rules = 4;
    in->deltas_per_second = 100;
  } else {
    return false;
  }
  in->text = GameText(g);
  const uint32_t nodes = static_cast<uint32_t>(g.names.size());
  const uint32_t edges = static_cast<uint32_t>(g.edges.size());
  for (uint32_t i = 0; i < nodes; ++i) in->node_of.emplace(g.names[i], i);
  for (uint32_t e = 0; e < edges; ++e) {
    in->edge_of.emplace(EdgeKey(g.edges[e].first, g.edges[e].second), e);
  }
  in->region_of_node.resize(nodes);
  for (uint32_t r = 0; r < g.regions.size(); ++r) {
    const Region& reg = g.regions[r];
    std::fill_n(in->region_of_node.begin() + reg.first_node, reg.node_count,
                r);
  }
  in->base = SolveGame(0, nodes, g.edges);
  in->open_query = static_cast<uint32_t>(rng.Uniform(nodes));
  for (size_t p = 0; p < kServePlans; ++p) {
    std::vector<uint32_t> plan;
    const size_t k = in->delta_regions.size();
    while (plan.size() < kServeEdgesPerRound) {
      uint32_t e = 0;
      if (k == 0) {
        e = static_cast<uint32_t>(rng.Uniform(edges));
      } else {
        const Region& r = g.regions[in->delta_regions[plan.size() % k]];
        e = r.first_edge + static_cast<uint32_t>(rng.Uniform(r.edge_count));
      }
      if (std::find(plan.begin(), plan.end(), e) == plan.end()) {
        plan.push_back(e);
      }
    }
    in->serve_plans.push_back(std::move(plan));
  }
  in->read_targets.resize(kReaders);
  for (std::vector<uint32_t>& t : in->read_targets) {
    for (uint32_t i = 0; i < kReadTargets; ++i) {
      t.push_back(static_cast<uint32_t>(rng.Uniform(nodes)));
    }
  }
  return true;
}

}  // namespace e2e
