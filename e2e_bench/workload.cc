#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "game_session.h"
#include "inputs.h"
#include "phases.h"
#include "workloads.h"

namespace e2e {

namespace {

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetupRepeats = 3;
/// Shares of a run's seconds: open, delta and serving phase.
constexpr double kShares[3] = {0.25, 0.35, 0.40};
/// The run interleaves the phases in this many cycles, so that each
/// metric is sampled across the whole run: a stretch of host load then
/// moves all metrics a little instead of one metric a lot.
constexpr int kCycles = 5;

/// What set-up makes: the inputs and oracle, and the two sessions the
/// delta and serving phases drive (parsed, opened and solved).
struct Setup {
  Inputs in;
  GameSession direct;
  GameSession serving;
};

bool SetUp(const std::string& workload, uint64_t seed, Setup* s) {
  return MakeInputs(workload, seed, &s->in) &&
         s->direct.Open(s->in, BenchOptions(false, nullptr)) &&
         s->serving.Open(s->in, BenchOptions(true, nullptr));
}

}  // namespace

bool RunWorkload(const Args& args, Report* rep) {
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return false;
  }
  std::vector<double> setup;
  std::unique_ptr<Setup> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s.reset();
    // Every set-up starts from a heap handed back to the system, as the
    // first one does.
    malloc_trim(0);
    s = std::make_unique<Setup>();
    const uint64_t t0 = NowNs();
    if (!SetUp(args.workload, args.seed, s.get())) {
      rep->Op("setup", true);
      return true;
    }
    setup.push_back((NowNs() - t0) / 1e9);
  }
  std::unique_ptr<Phase> phases[] = {
      MakeOpenPhase(s->in, args),
      MakeDeltaPhase(s->in, s->direct, args, rep),
      MakeServePhase(s->in, s->serving, args, rep)};
  for (const std::unique_ptr<Phase>& p : phases) {
    if (p == nullptr) return true;
  }
  for (int c = 0; c < kCycles; ++c) {
    for (int k = 0; k < 3; ++k) {
      phases[k]->Slice(args.seconds * kShares[k] / kCycles, rep);
    }
  }
  const Overhead open = phases[0]->Finish(rep);
  const Overhead delta = phases[1]->Finish(rep);
  phases[2]->Finish(rep);
  if (!args.trace) {
    rep->Metric("setup_s", Median(setup), "s");
    rep->Metric("peak_rss_mb", PeakRssMb(), "MiB");
    return true;
  }
  rep->Metric("obs.trace_overhead",
              (open.traced_ns + delta.traced_ns) /
                  (open.plain_ns + delta.plain_ns),
              "ratio");
  WriteTrace(args);
  return true;
}

void PrintSizes(uint64_t seed) {
  for (const std::string& w : WorkloadNames()) {
    Setup s;
    if (!SetUp(w, seed, &s)) continue;
    const Graph& g = s.in.graph;
    const gsls::GroundProgram& gp = s.direct.session->solver().program();
    std::printf("%s: %zu nodes, %zu edges, %zu regions, text %zu B, "
                "ground atoms %zu, rules %zu, snapshot pages %zu\n",
                w.c_str(), g.names.size(), g.edges.size(), g.regions.size(),
                s.in.text.size(), gp.atom_count(), gp.rule_count(),
                s.serving.session->SnapshotNow()->page_count());
    for (size_t r = 0; r < g.regions.size() && r < 3; ++r) {
      std::printf("%s region %-4s nodes %5u edges %5u\n", w.c_str(),
                  g.regions[r].name.c_str(), g.regions[r].node_count,
                  g.regions[r].edge_count);
    }
    std::printf("%s serving: %.0f deltas/s offered, %zu per round\n",
                w.c_str(), s.in.deltas_per_second,
                2 * s.in.serve_plans[0].size());
  }
}

}  // namespace e2e
