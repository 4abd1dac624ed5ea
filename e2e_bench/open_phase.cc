// Open phase: program text -> whole-model snapshot + one point answer.
// Each open starts from a fresh TermStore, as a new user's would, so
// parsing interns every term inside the timed section. Grounding
// dominates it today.
#include <malloc.h>

#include <memory>

#include "analysis/atom_dependency_graph.h"
#include "game_check.h"
#include "ground/grounder.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "phases.h"
#include "solver/incremental.h"

namespace e2e {

namespace {

using gsls::Session;
using gsls::TermStore;
using gsls::TruthValue;

/// One opened program, kept alive until its answers are checked.
struct Opened {
  std::unique_ptr<TermStore> store = std::make_unique<TermStore>();
  std::optional<gsls::Program> program;
  std::optional<Session> session;
  std::shared_ptr<const gsls::serve::Snapshot> snap;
  gsls::SessionAnswer answer;
  bool ok = false;
};

const gsls::Term* QueryTerm(TermStore& store, const Inputs& in) {
  return store.MakeApp(
      "win", {store.MakeConstant(in.graph.names[in.open_query])});
}

/// The path a user takes: text -> ParseProgram -> Session::Open ->
/// SnapshotNow -> Query.
void OpenPlain(const Inputs& in, Opened* o) {
  gsls::Result<gsls::Program> prog = gsls::ParseProgram(*o->store, in.text);
  if (!prog.ok()) return;
  o->program.emplace(std::move(prog.value()));
  gsls::Result<Session> s =
      Session::Open(*o->program, BenchOptions(false, nullptr));
  if (!s.ok()) return;
  o->session.emplace(std::move(s.value()));
  o->snap = o->session->SnapshotNow();
  o->answer = o->session->Query(QueryTerm(*o->store, in));
  o->ok = o->answer.outcome == gsls::SolveOutcome::kCompleted;
}

/// Per-layer samples of the traced opens (ns, or counts).
struct Layers {
  std::vector<double> parse, ground, condense, model, snapshot, query;
  std::vector<double> atoms, rules;
};

/// The same work as `OpenPlain`, split into its public layer calls with a
/// span around each, plus a separate `AtomDependencyGraph` build on the
/// same ground program to time the condensation layer. Returns the wall
/// time of the open without that extra build.
uint64_t OpenTraced(const Inputs& in, uint64_t id, Layers* l, Opened* o) {
  const uint64_t t0 = NowNs();
  gsls::Result<gsls::Program> prog = [&] {
    LayerSpan span("lang.ParseProgram", id, &l->parse);
    return gsls::ParseProgram(*o->store, in.text);
  }();
  if (!prog.ok()) return NowNs() - t0;
  o->program.emplace(std::move(prog.value()));
  gsls::Result<gsls::GroundProgram> gp = [&] {
    LayerSpan span("ground.GroundRelevant", id, &l->ground);
    return gsls::GroundRelevant(*o->program, gsls::GroundingOptions{});
  }();
  if (!gp.ok()) return NowNs() - t0;
  l->atoms.push_back(static_cast<double>(gp->atom_count()));
  l->rules.push_back(static_cast<double>(gp->rule_count()));
  uint64_t extra = 0;
  {
    LayerSpan span("analysis.AtomDependencyGraph", id, &l->condense);
    gsls::AtomDependencyGraph graph(*gp);
    extra = span.End();
  }
  const gsls::SessionOptions opts = BenchOptions(false, nullptr);
  // What Session::Open hands the solver: its options, with levels on.
  gsls::SolverOptions sopts = opts.solver;
  sopts.compute_levels = opts.compute_levels;
  std::unique_ptr<gsls::IncrementalSolver> solver;
  {
    LayerSpan span("solver.IncrementalSolver+Model", id, &l->model);
    solver = std::make_unique<gsls::IncrementalSolver>(std::move(gp.value()),
                                                       sopts);
    solver->Model();
  }
  o->session.emplace(Session::Adopt(std::move(solver), opts));
  {
    LayerSpan span("serve.SnapshotNow", id, &l->snapshot);
    o->snap = o->session->SnapshotNow();
  }
  const gsls::Term* q = QueryTerm(*o->store, in);
  {
    LayerSpan span("session.Query", id, &l->query);
    o->answer = o->session->Query(q);
  }
  o->ok = o->answer.outcome == gsls::SolveOutcome::kCompleted;
  return NowNs() - t0 - extra;
}

/// Every atom of the opened snapshot, and the point answer, against the
/// oracle on the program as written.
void Check(const Inputs& in, const Opened& o, Report* rep) {
  const gsls::serve::Snapshot& snap = *o.snap;
  const gsls::SymbolTable& sym = o.store->symbols();
  const Graph& g = in.graph;
  GameView view(static_cast<uint32_t>(g.names.size()),
                static_cast<uint32_t>(g.edges.size()));
  const std::string what = "open " + in.workload;
  auto node = [&](const gsls::Term* t, uint32_t i) {
    return in.node_of.at(sym.FunctorName(t->arg(i)->functor()));
  };
  for (gsls::AtomId a = 0; a < snap.atom_count(); ++a) {
    const gsls::Term* t = snap.index().terms[a];
    const gsls::serve::SnapshotAnswer ans = snap.Query(a);
    view.true_atoms += ans.value == TruthValue::kTrue;
    const std::string& pred = sym.FunctorName(t->functor());
    if (pred == "win" && t->arity() == 1) {
      view.SetWin(node(t, 0), ans);
    } else if (pred == "move" && t->arity() == 2) {
      view.move[in.edge_of.at(EdgeKey(node(t, 0), node(t, 1)))] =
          static_cast<uint8_t>(ans.value);
    } else {
      rep->Wrong(what + ": unexpected atom " + o.store->ToString(t));
    }
  }
  CompareGame(view, in.base, g.edges, std::vector<uint8_t>(g.edges.size(), 1),
              rep, what);
  gsls::serve::SnapshotAnswer qa;
  qa.value = o.answer.value;
  qa.true_stage = o.answer.true_stage;
  qa.false_stage = o.answer.false_stage;
  CompareWin(qa, in.open_query, in.base, rep, what + " point query");
}

}  // namespace

gsls::SessionOptions BenchOptions(bool serving, gsls::obs::Telemetry* tele) {
  gsls::SessionOptions opts;
  opts.solver.num_threads = 1;
  opts.solver.telemetry = tele;
  opts.compute_levels = true;
  opts.serving = serving;
  return opts;
}

namespace {

class OpenPhase : public Phase {
 public:
  OpenPhase(const Inputs& in, const Args& args) : in_(in), args_(args) {}

  void Slice(double seconds, Report* rep) override {
    const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < end) {
      const bool trace = args_.trace && opens_++ % 2 == 1;
      SetTracing(trace);
      Opened o;
      if (trace) {
        traced_.push_back(
            static_cast<double>(OpenTraced(in_, opens_, &layers_, &o)));
      } else {
        const uint64_t t0 = NowNs();
        OpenPlain(in_, &o);
        plain_.push_back(static_cast<double>(NowNs() - t0));
      }
      rep->Op("open", !o.ok);
      if (o.ok) Check(in_, o, rep);
      o = Opened();
      // Hand freed memory back, so every open starts from a heap like a
      // fresh process's and the peak does not drift with the open count.
      malloc_trim(0);
    }
    SetTracing(false);
  }

  Overhead Finish(Report* rep) override {
    if (!args_.trace) {
      rep->Metric("open_ms", Median(plain_) / 1e6, "ms");
      return {};
    }
    const Layers& l = layers_;
    rep->Metric("lang.parse_ms", Median(l.parse) / 1e6, "ms");
    rep->Metric("ground.ground_ms", Median(l.ground) / 1e6, "ms");
    rep->Metric("ground.rules", Median(l.rules), "count");
    rep->Metric("ground.atoms", Median(l.atoms), "count");
    rep->Metric("analysis.condense_ms", Median(l.condense) / 1e6, "ms");
    rep->Metric("solver.model_ms", Median(l.model) / 1e6, "ms");
    rep->Metric("serve.snapshot_ms", Median(l.snapshot) / 1e6, "ms");
    rep->Metric("solver.first_query_us", Median(l.query) / 1e3, "us");
    return {Median(plain_), Median(traced_)};
  }

 private:
  const Inputs& in_;
  const Args& args_;
  uint64_t opens_ = 0;
  std::vector<double> plain_, traced_;
  Layers layers_;
};

}  // namespace

std::unique_ptr<Phase> MakeOpenPhase(const Inputs& in, const Args& args) {
  return std::make_unique<OpenPhase>(in, args);
}

}  // namespace e2e
