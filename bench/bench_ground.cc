// Grounding: text -> ParseProgram -> GroundRelevant -> SolveWfs on the
// workload families, with the grounder's two hard gates.
//
// The verification table prints, per row, the median parse, ground and
// SolveWfs times over five runs and the ground/solve ratio. It gates:
//
//   1. Output identity: every row's atom count, rule count and a digest
//      of `GroundProgram::ToString()` (rules in id order) equal the
//      recorded values of the clause-scanning grounder this one replaced,
//      so the solver sees the same input, rule for rule.
//   2. Scaling: ground time of chain(8192) over chain(2048), medians of
//      five, stays under 6x for 4x the input. The clause-scanning
//      grounder measured 12-18x here (quadratic: every derived atom
//      visited every clause); the occurrence index makes it linear.
//
// Any mismatch or a missed ratio makes the process exit nonzero.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ground/grounder.h"
#include "lang/parser.h"
#include "solver/solver.h"
#include "util/rng.h"
#include "workload/generators.h"

using namespace gsls;

namespace {

struct Row {
  const char* name;
  std::string (*text)();
  size_t atoms;  ///< recorded from the clause-scanning grounder
  size_t rules;
  uint64_t digest;
};

std::string Chain2048() { return workload::GameChain(2048); }
std::string Chain8192() { return workload::GameChain(8192); }
std::string Grid48() { return workload::GameGrid(48, 48); }

std::string Random2000() {
  Rng rng(7);
  return workload::RandomGame(rng, 2000, 1);
}

std::string Reach100() {
  Rng rng(7);
  return workload::ReachabilityWithNegation(rng, 100, 3);
}

const std::vector<Row>& Rows() {
  static const std::vector<Row> rows = {
      {"chain(2048)", Chain2048, 4'095, 4'094, 0x6847fb003809ffaaULL},
      {"chain(8192)", Chain8192, 16'383, 16'382, 0x87e217e1c44e0288ULL},
      {"grid(48x48)", Grid48, 6'816, 9'024, 0x3d3371bb5e23b3a9ULL},
      {"random(2000,1%)", Random2000, 42'323, 80'646, 0x0187865a0d2cfad6ULL},
      {"reach_neg(100,3%)", Reach100, 20'402, 40'008, 0xaa340f3fc8aeb9b7ULL},
  };
  return rows;
}

/// FNV-1a over the rendered rules.
uint64_t Digest(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Timing {
  double parse_ms, ground_ms, solve_ms;
  size_t atoms, rules;
  uint64_t digest;
};

constexpr int kReps = 5;

Timing Measure(const std::string& text) {
  std::vector<double> parse, ground, solve;
  Timing t{};
  for (int rep = 0; rep < kReps; ++rep) {
    TermStore store;
    auto start = std::chrono::steady_clock::now();
    Program program = MustParseProgram(store, text);
    parse.push_back(MsSince(start));
    start = std::chrono::steady_clock::now();
    Result<GroundProgram> gp = GroundRelevant(program, GroundingOptions{});
    ground.push_back(MsSince(start));
    if (!gp.ok()) {
      std::fprintf(stderr, "grounding failed: %s\n",
                   gp.status().ToString().c_str());
      std::exit(1);
    }
    start = std::chrono::steady_clock::now();
    WfsModel model = SolveWfs(gp.value());
    solve.push_back(MsSince(start));
    benchmark::DoNotOptimize(model);
    if (rep == 0) {
      t.atoms = gp->atom_count();
      t.rules = gp->rule_count();
      t.digest = Digest(gp->ToString());
    }
  }
  t.parse_ms = Median(parse);
  t.ground_ms = Median(ground);
  t.solve_ms = Median(solve);
  return t;
}

/// Ground time of `text`, parsed afresh outside the timed section.
double GroundMs(const std::string& text) {
  TermStore store;
  Program program = MustParseProgram(store, text);
  auto start = std::chrono::steady_clock::now();
  Result<GroundProgram> gp = GroundRelevant(program, GroundingOptions{});
  double ms = MsSince(start);
  benchmark::DoNotOptimize(gp);
  return ms;
}

/// chain(8192) over chain(2048) ground time, medians of `kReps`. The two
/// sizes alternate, so a stretch of host load slows both alike.
double ChainScaling() {
  const std::string small = Chain2048();
  const std::string large = Chain8192();
  std::vector<double> small_ms, large_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    small_ms.push_back(GroundMs(small));
    large_ms.push_back(GroundMs(large));
  }
  return Median(large_ms) / std::max(Median(small_ms), 1e-3);
}

bool PrintVerification() {
  bool ok = true;
  std::printf("=== Grounding per row (median of %d) ===\n", kReps);
  std::printf("%-18s %8s %8s %9s %9s %9s %9s  %s\n", "row", "atoms", "rules",
              "parse_ms", "ground_ms", "solve_ms", "grd/slv", "output");
  for (const Row& row : Rows()) {
    Timing t = Measure(row.text());
    bool same = t.atoms == row.atoms && t.rules == row.rules &&
                t.digest == row.digest;
    ok = ok && same;
    std::printf("%-18s %8zu %8zu %9.2f %9.2f %9.2f %9.1f  %s\n", row.name,
                t.atoms, t.rules, t.parse_ms, t.ground_ms, t.solve_ms,
                t.ground_ms / std::max(t.solve_ms, 1e-3),
                same ? "same" : "CHANGED");
    if (!same) {
      std::printf("  MISMATCH: want %zu atoms, %zu rules, digest %016llx\n",
                  row.atoms, row.rules,
                  static_cast<unsigned long long>(row.digest));
      std::printf("  got digest %016llx\n",
                  static_cast<unsigned long long>(t.digest));
    }
  }
  double scaling = ChainScaling();
  bool linear = scaling < 6.0;
  ok = ok && linear;
  std::printf("chain(8192)/chain(2048) ground: %.2fx (gate < 6x) %s\n",
              scaling, linear ? "PASS" : "FAIL");
  return ok;
}

void BM_GroundRelevant(benchmark::State& state) {
  const Row& row = Rows()[static_cast<size_t>(state.range(0))];
  const std::string text = row.text();
  TermStore store;
  Program program = MustParseProgram(store, text);
  for (auto _ : state) {
    Result<GroundProgram> gp = GroundRelevant(program, GroundingOptions{});
    benchmark::DoNotOptimize(gp);
  }
  state.SetLabel(row.name);
}
BENCHMARK(BM_GroundRelevant)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace

GSLS_BENCH_MAIN_GATED(PrintVerification(),
                      "grounding output changed or scaling gate missed");
