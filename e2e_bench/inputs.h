// The workloads' inputs. Each workload is one seeded win/move game that a
// run takes through the three phases a user sees (open, deltas, serving);
// the workloads differ in the game's shape, so each phase meets other
// component structures on each.
#ifndef E2E_BENCH_INPUTS_H_
#define E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "gen.h"
#include "oracle.h"

namespace e2e {

/// The workload names, in the order `BENCHMARK.json` lists them.
inline const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"regions", "lattice"};
  return names;
}

struct Inputs {
  std::string workload;
  Graph graph;
  std::string text;  ///< the program text every open parses
  std::unordered_map<std::string, uint32_t> node_of;  ///< constant -> node
  std::unordered_map<uint64_t, uint32_t> edge_of;     ///< EdgeKey -> edge
  std::vector<uint32_t> region_of_node;
  GameSolution base;        ///< the oracle on the program as written
  uint32_t open_query = 0;  ///< node whose `win` each open asks first

  /// The fact deltas of both phases cycle through these regions, so each
  /// region's share of them is the same on every seed (a region named
  /// twice gets twice the share); when it is empty they are drawn from
  /// all edges.
  std::vector<uint32_t> delta_regions;
  // Delta phase: each round asserts and then retracts `chain_rules` rule
  // deltas in chain regions and `random_rules` in random ones.
  uint32_t chain_rules = 0;
  uint32_t random_rules = 0;

  // Serving phase.
  double deltas_per_second = 1000;  ///< offered, open loop
  std::vector<std::vector<uint32_t>> serve_plans;  ///< edges per round
  std::vector<std::vector<uint32_t>> read_targets;  ///< nodes, per reader
};

/// Reader threads of the serving phase. One: with the writer and the
/// generator that makes three threads on the reference machine's four
/// cores, so the writer never waits for a core when a delta wakes it,
/// and `visible_us` measures the program rather than the scheduler.
inline constexpr int kReaders = 1;

inline uint64_t EdgeKey(uint32_t from, uint32_t to) {
  return uint64_t{from} << 32 | to;
}

/// Generates `workload`'s inputs for `seed`. Returns false if there is no
/// such workload.
bool MakeInputs(const std::string& workload, uint64_t seed, Inputs* in);

}  // namespace e2e

#endif  // E2E_BENCH_INPUTS_H_
