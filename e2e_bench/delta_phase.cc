// Delta phase: one direct-mode session of the workload's game, driven by
// a closed-loop stream of fact deltas, ground-rule deltas and bulk
// toggles. It exercises the incremental paths of solver/ and analysis/;
// parse and ground ran in set-up. Every round restores the program it
// started from (each retracted edge is re-asserted, each asserted rule
// retracted), so all rounds of a run, and runs of any length, measure the
// same states.
#include <array>
#include <map>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "game_check.h"
#include "obs/metrics.h"
#include "phases.h"
#include "solver/incremental.h"

namespace e2e {

namespace {

using gsls::Session;
using gsls::SessionAnswer;
using gsls::Term;

constexpr uint32_t kFactEdges = 24;  ///< per round: retracted, re-asserted
constexpr uint32_t kQueriesPerDelta = 4;
constexpr double kBulkShare = 0.02;          ///< of all edges, per bulk step
constexpr uint32_t kMaxChainSpan = 64;       ///< cycle length a rule closes
constexpr size_t kPlans = 32;                ///< distinct rounds, cycled

struct RuleDelta {
  uint32_t region = 0;
  uint32_t head = 0, body = 0;  ///< win(head) :- not win(body).
  gsls::Clause clause;
};

struct Op {
  enum Kind { kRetractFact, kAssertFact, kAssertRule, kRetractRule } kind;
  uint32_t region = 0;
  uint32_t index = 0;  ///< base edge, or rule of the plan
  std::array<uint32_t, kQueriesPerDelta> queries{};
};

/// One round: fact and rule ops, then a bulk toggle of `bulk` edges off
/// and back on, each followed by a whole-model snapshot.
struct Plan {
  std::vector<RuleDelta> rules;
  std::vector<Op> ops;
  std::vector<uint32_t> bulk;
};

uint32_t Pick(gsls::Rng& rng, uint32_t first, uint32_t count) {
  return first + static_cast<uint32_t>(rng.Uniform(count));
}

/// `k` distinct values of [first, first + count), in random order.
std::vector<uint32_t> Distinct(gsls::Rng& rng, uint32_t first, uint32_t count,
                               uint32_t k) {
  std::vector<uint32_t> out;
  std::unordered_set<uint32_t> seen;
  while (out.size() < k) {
    const uint32_t v = Pick(rng, first, count);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Plan MakePlan(gsls::Rng& rng, const Inputs& in,
              const std::vector<const Term*>& win) {
  const Graph& g = in.graph;
  Plan p;
  auto queries = [&](uint32_t region, uint32_t first_query) {
    const Region& r = g.regions[region];
    std::array<uint32_t, kQueriesPerDelta> q{};
    q[0] = first_query;
    for (uint32_t i = 1; i < kQueriesPerDelta; ++i) {
      q[i] = Pick(rng, r.first_node, r.node_count);
    }
    return q;
  };
  // Fact edges, interleaved over `delta_regions` when it names any; a
  // region named twice gets twice the share.
  std::vector<uint32_t> edges;
  const uint32_t k = static_cast<uint32_t>(in.delta_regions.size());
  if (k == 0) {
    edges = Distinct(rng, 0, static_cast<uint32_t>(g.edges.size()),
                     kFactEdges);
  } else {
    std::map<uint32_t, std::vector<uint32_t>> per;
    for (uint32_t r : in.delta_regions) per[r].resize(per[r].size() + 1);
    for (auto& [r, list] : per) {
      const Region& reg = g.regions[r];
      list = Distinct(rng, reg.first_edge, reg.edge_count,
                      static_cast<uint32_t>(list.size()) * (kFactEdges / k));
    }
    std::map<uint32_t, size_t> next;
    for (uint32_t i = 0; i < kFactEdges / k; ++i) {
      for (uint32_t r : in.delta_regions) edges.push_back(per[r][next[r]++]);
    }
  }
  auto fact = [&](Op::Kind kind, uint32_t e) {
    const uint32_t from = g.edges[e].first;
    const uint32_t r = in.region_of_node[from];
    p.ops.push_back({kind, r, e, queries(r, from)});
  };
  for (uint32_t e : edges) fact(Op::kRetractFact, e);
  // Rules close cycles: in a chain, from a node back to one up to
  // kMaxChainSpan steps upstream, each rule of a round in its own stretch
  // of the chain, so that its cycle stays a component of its own; in a
  // random region, between two random nodes of it.
  std::vector<uint32_t> of_shape[3];
  for (uint32_t r = 0; r < g.regions.size(); ++r) {
    of_shape[static_cast<int>(g.regions[r].shape)].push_back(r);
  }
  for (uint32_t k = 0; k < in.chain_rules + in.random_rules; ++k) {
    const Shape shape = k < in.chain_rules ? Shape::kChain : Shape::kRandom;
    const std::vector<uint32_t>& pool = of_shape[static_cast<int>(shape)];
    RuleDelta d;
    d.region = pool[rng.Uniform(pool.size())];
    const Region& reg = g.regions[d.region];
    bool fresh = false;
    while (!fresh) {
      if (shape == Shape::kChain) {
        const uint32_t stretch = reg.node_count / in.chain_rules;
        d.body = Pick(rng, reg.first_node + k * stretch,
                      stretch - kMaxChainSpan);
        d.head = d.body + 2 +
                 static_cast<uint32_t>(rng.Uniform(kMaxChainSpan - 2));
      } else {
        d.head = Pick(rng, reg.first_node, reg.node_count);
        d.body = Pick(rng, reg.first_node, reg.node_count);
      }
      fresh = d.head != d.body;
      for (const RuleDelta& o : p.rules) {
        fresh = fresh && !(o.head == d.head && o.body == d.body);
      }
    }
    d.clause.head = win[d.head];
    d.clause.body.push_back(gsls::Literal::Neg(win[d.body]));
    p.rules.push_back(std::move(d));
  }
  for (uint32_t i = 0; i < p.rules.size(); ++i) {
    const RuleDelta& d = p.rules[i];
    p.ops.push_back({Op::kAssertRule, d.region, i, queries(d.region, d.head)});
  }
  for (uint32_t i = 0; i < p.rules.size(); ++i) {
    const RuleDelta& d = p.rules[i];
    p.ops.push_back({Op::kRetractRule, d.region, i, queries(d.region, d.head)});
  }
  for (size_t i = edges.size(); i-- > 0;) fact(Op::kAssertFact, edges[i]);
  const uint32_t total = static_cast<uint32_t>(g.edges.size());
  p.bulk = Distinct(rng, 0, total, static_cast<uint32_t>(total * kBulkShare));
  return p;
}

/// The workload's inputs, the session the phase drives (the traced run
/// drives a second one on the same program and store) and the rounds.
struct Ctx {
  const Inputs& in;
  GameSession& game;
  std::vector<Plan> plans;
};

/// The oracle's view of the current program: which base edges are on and
/// which rule edges are asserted.
struct Truth {
  std::vector<uint8_t> edge_on;
  std::vector<Edge> rule_edges;

  std::vector<Edge> Active(const Graph& g, const Region* only) const {
    std::vector<Edge> out;
    const uint32_t lo = only ? only->first_edge : 0;
    const uint32_t hi = only ? lo + only->edge_count : g.edges.size();
    for (uint32_t e = lo; e < hi; ++e) {
      if (edge_on[e]) out.push_back(g.edges[e]);
    }
    for (const Edge& e : rule_edges) {
      if (!only || (e.first >= only->first_node &&
                    e.first < only->first_node + only->node_count)) {
        out.push_back(e);
      }
    }
    return out;
  }
};

/// Whole-model check of `session` against the oracle on `truth`.
void CheckModel(const Ctx& s, Session& session, const Truth& truth,
                const std::unordered_map<const Term*, uint32_t>& move_of,
                Report* rep, const std::string& what) {
  std::shared_ptr<const gsls::serve::Snapshot> snap = session.SnapshotNow();
  const Graph& g = s.in.graph;
  GameView view(static_cast<uint32_t>(g.names.size()),
                static_cast<uint32_t>(g.edges.size()));
  for (gsls::AtomId a = 0; a < snap->atom_count(); ++a) {
    view.true_atoms += snap->Value(a) == gsls::TruthValue::kTrue;
    auto it = move_of.find(snap->index().terms[a]);
    if (it != move_of.end()) {
      view.move[it->second] = static_cast<uint8_t>(snap->Value(a));
    }
  }
  for (uint32_t x = 0; x < g.names.size(); ++x) {
    view.SetWin(x, snap->Query(s.game.win[x]));
  }
  std::vector<Edge> active = truth.Active(g, nullptr);
  const uint32_t n = static_cast<uint32_t>(g.names.size());
  CompareGame(view, SolveGame(0, n, active), active, truth.edge_on, rep, what);
}

/// Samples of one session's rounds. Times in ns.
struct Samples {
  std::vector<double> fact, rule, bulk, round;
  // Per-layer (traced rounds).
  std::vector<double> assert_ns, query_ns, rule_call_ns, bulk_model_ns;
  uint64_t deltas = 0, rule_deltas = 0, resolved = 0, cutoffs = 0;
  uint64_t memo_hits = 0, cone_components = 0;
};

/// Runs plan `p` on `session`, checking every answer against the oracle on
/// `truth` (outside the timed sections).
void RunRound(const Ctx& s, const Plan& p, Session& session, bool traced,
              uint64_t round, Truth* truth,
              const std::unordered_map<const Term*, uint32_t>& move_of,
              Samples* out, Report* rep) {
  const Graph& g = s.in.graph;
  double round_ns = 0;
  std::array<SessionAnswer, kQueriesPerDelta> ans;
  for (const Op& op : p.ops) {
    const bool fact = op.kind == Op::kRetractFact || op.kind == Op::kAssertFact;
    const gsls::IncrementalStats before = session.solver().stats();
    const uint64_t t0 = NowNs();
    bool changed = false;
    {
      std::vector<double>* calls =
          traced ? (fact ? &out->assert_ns : &out->rule_call_ns) : nullptr;
      LayerSpan span(fact ? "session.Assert/Retract(fact)"
                          : "session.Assert/Retract(Clause)",
                     round, calls);
      switch (op.kind) {
        case Op::kRetractFact:
          changed = session.Retract(s.game.move[op.index]);
          break;
        case Op::kAssertFact:
          changed = session.Assert(s.game.move[op.index]);
          break;
        case Op::kAssertRule: {
          gsls::Result<gsls::RuleId> id =
              session.Assert(p.rules[op.index].clause, &changed);
          changed = changed && id.ok();
          break;
        }
        case Op::kRetractRule:
          changed = session.Retract(p.rules[op.index].clause);
          break;
      }
    }
    bool completed = true;
    for (uint32_t q = 0; q < kQueriesPerDelta; ++q) {
      LayerSpan span("session.Query", round, traced ? &out->query_ns : nullptr);
      ans[q] = session.Query(s.game.win[op.queries[q]]);
      completed = completed && ans[q].outcome == gsls::SolveOutcome::kCompleted;
    }
    const double ns = static_cast<double>(NowNs() - t0);
    round_ns += ns;
    (fact ? out->fact : out->rule).push_back(ns);
    rep->Op(fact ? "fact_delta" : "rule_delta", !changed || !completed);
    if (traced) {
      const gsls::IncrementalStats& after = session.solver().stats();
      ++out->deltas;
      out->rule_deltas += fact ? 0 : 1;
      out->resolved += after.components_resolved - before.components_resolved;
      out->cutoffs += after.cone_cutoffs - before.cone_cutoffs;
      for (const SessionAnswer& a : ans) {
        out->memo_hits += a.memo_hits;
        out->cone_components += a.cone_components;
      }
    }

    // Oracle side, untimed.
    switch (op.kind) {
      case Op::kRetractFact: truth->edge_on[op.index] = 0; break;
      case Op::kAssertFact: truth->edge_on[op.index] = 1; break;
      case Op::kAssertRule: {
        const RuleDelta& d = p.rules[op.index];
        truth->rule_edges.emplace_back(d.head, d.body);
        break;
      }
      case Op::kRetractRule: {
        const RuleDelta& d = p.rules[op.index];
        std::erase(truth->rule_edges, Edge(d.head, d.body));
        break;
      }
    }
    const Region& reg = g.regions[op.region];
    const std::vector<Edge> active = truth->Active(g, &reg);
    const GameSolution sol = SolveGame(reg.first_node, reg.node_count, active);
    for (uint32_t q = 0; q < kQueriesPerDelta; ++q) {
      gsls::serve::SnapshotAnswer a;
      a.value = ans[q].value;
      a.true_stage = ans[q].true_stage;
      a.false_stage = ans[q].false_stage;
      CompareWin(a, op.queries[q], sol, rep,
                 "delta " + reg.name + " query after " +
                     (fact ? "fact" : "rule") + " delta");
    }
  }
  for (int on = 0; on < 2; ++on) {
    const uint64_t t0 = NowNs();
    bool changed = true;
    for (uint32_t e : p.bulk) {
      const Term* move = s.game.move[e];
      changed = (on ? session.Assert(move) : session.Retract(move)) && changed;
    }
    if (traced) {
      LayerSpan span("solver.Model", round, &out->bulk_model_ns);
      session.solver().Model();
    }
    std::shared_ptr<const gsls::serve::Snapshot> snap;
    {
      LayerSpan span("serve.SnapshotNow", round, nullptr);
      snap = session.SnapshotNow();
    }
    const double ns = static_cast<double>(NowNs() - t0);
    round_ns += ns;
    out->bulk.push_back(ns);
    rep->Op("bulk_delta", !changed || snap == nullptr);
    for (uint32_t e : p.bulk) truth->edge_on[e] = static_cast<uint8_t>(on);
    CheckModel(s, session, *truth, move_of, rep,
               on ? "delta after bulk on" : "delta after bulk off");
  }
  out->round.push_back(round_ns);
}

}  // namespace

namespace {

class DeltaPhase : public Phase {
 public:
  DeltaPhase(const Inputs& in, GameSession& direct, const Args& args)
      : s_{in, direct, {}} {
    gsls::Rng rng(args.seed * 7919 + 1);
    for (size_t i = 0; i < kPlans; ++i) {
      s_.plans.push_back(MakePlan(rng, in, direct.win));
    }
    for (uint32_t e = 0; e < direct.move.size(); ++e) {
      move_of_.emplace(direct.move[e], e);
    }
    plain_truth_.edge_on.assign(in.graph.edges.size(), 1);
    traced_truth_ = plain_truth_;
  }

  /// Opens the traced run's second session, on the same program and
  /// store, with telemetry attached. Returns false if it cannot.
  bool OpenTraced() {
    gsls::Result<Session> t =
        Session::Open(*s_.game.program, BenchOptions(false, &tele_));
    if (!t.ok()) return false;
    traced_.emplace(std::move(t.value()));
    traced_->SnapshotNow();
    tele_.metrics.GetHistogram("interior.seeded_flood_atoms")->Reset();
    diag0_ = traced_->solver().diagnostics();
    if (traced_->solver().condensation_stats()) {
      cond0_ = *traced_->solver().condensation_stats();
    }
    return true;
  }

  void CheckInitial(Report* rep) {
    CheckModel(s_, *s_.game.session, plain_truth_, move_of_, rep,
               "delta initial model");
  }

  void Slice(double seconds, Report* rep) override {
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) {
      const uint64_t round = rounds_++;
      const bool use_traced = traced_.has_value() && round % 2 == 1;
      const Plan& p = s_.plans[(traced_ ? round / 2 : round) % kPlans];
      SetTracing(use_traced);
      if (use_traced) {
        RunRound(s_, p, *traced_, true, round, &traced_truth_, move_of_,
                 &traced_samples_, rep);
      } else {
        RunRound(s_, p, *s_.game.session, false, round, &plain_truth_,
                 move_of_, &plain_samples_, rep);
      }
    }
    SetTracing(false);
  }

  Overhead Finish(Report* rep) override {
    CheckModel(s_, *s_.game.session, plain_truth_, move_of_, rep,
               "delta final model");
    if (!traced_) {
      const Samples& p = plain_samples_;
      rep->Metric("fact_delta_us.p50", Percentile(p.fact, 50) / 1e3, "us");
      rep->Metric("fact_delta_us.p90", Percentile(p.fact, 90) / 1e3, "us");
      rep->Metric("rule_delta_us.p50", Percentile(p.rule, 50) / 1e3, "us");
      rep->Metric("rule_delta_us.p90", Percentile(p.rule, 90) / 1e3, "us");
      rep->Metric("bulk_delta_ms", Median(p.bulk) / 1e6, "ms");
      return {};
    }
    CheckModel(s_, *traced_, traced_truth_, move_of_, rep,
               "delta final traced model");
    const Samples& t = traced_samples_;
    const gsls::SolverDiagnostics& diag = traced_->solver().diagnostics();
    const gsls::DynamicCondensation::Stats cond =
        *traced_->solver().condensation_stats();
    const uint64_t warm = diag.warm_hits - diag0_.warm_hits;
    const uint64_t cold =
        diag.warm_cold_fallbacks - diag0_.warm_cold_fallbacks;
    auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    rep->Metric("solver.assert_us.p50", Percentile(t.assert_ns, 50) / 1e3,
                "us");
    rep->Metric("solver.query_us.p50", Percentile(t.query_ns, 50) / 1e3,
                "us");
    rep->Metric("solver.query_us.p90", Percentile(t.query_ns, 90) / 1e3,
                "us");
    rep->Metric("solver.resolved_components_per_delta",
                ratio(t.resolved, t.deltas), "count");
    rep->Metric("solver.cone_cutoffs_per_delta", ratio(t.cutoffs, t.deltas),
                "count");
    rep->Metric("solver.memo_hit_ratio",
                ratio(t.memo_hits, t.cone_components), "ratio");
    rep->Metric("solver.warm_hit_ratio", ratio(warm, warm + cold), "ratio");
    rep->Metric("solver.seeded_flood_atoms.p50",
                tele_.metrics.GetHistogram("interior.seeded_flood_atoms")
                    ->Snapshot()
                    .p50(),
                "count");
    rep->Metric("analysis.rule_delta_us.p50",
                Percentile(t.rule_call_ns, 50) / 1e3, "us");
    rep->Metric("analysis.windows_per_rule_delta",
                ratio(cond.windows - cond0_.windows, t.rule_deltas), "count");
    rep->Metric("analysis.merges", cond.merges - cond0_.merges, "count");
    rep->Metric("analysis.splits", cond.splits - cond0_.splits, "count");
    rep->Metric("analysis.pk_regions", cond.pk_regions - cond0_.pk_regions,
                "count");
    rep->Metric("solver.bulk_model_ms", Median(t.bulk_model_ns) / 1e6, "ms");
    return {Median(plain_samples_.round), Median(t.round)};
  }

 private:
  Ctx s_;
  std::unordered_map<const Term*, uint32_t> move_of_;
  Truth plain_truth_, traced_truth_;
  Samples plain_samples_, traced_samples_;
  uint64_t rounds_ = 0;
  // The traced run drives a second session, opened with telemetry, through
  // the same plans on alternate rounds; its truth is tracked apart. The
  // telemetry outlives the session.
  gsls::obs::Telemetry tele_;
  std::optional<Session> traced_;
  gsls::SolverDiagnostics diag0_;
  gsls::DynamicCondensation::Stats cond0_;
};

}  // namespace

std::unique_ptr<Phase> MakeDeltaPhase(const Inputs& in, GameSession& direct,
                                      const Args& args, Report* rep) {
  auto phase = std::make_unique<DeltaPhase>(in, direct, args);
  if (args.trace && !phase->OpenTraced()) {
    rep->Op("open_traced_session", true);
    return nullptr;
  }
  phase->CheckInitial(rep);
  return phase;
}

}  // namespace e2e
