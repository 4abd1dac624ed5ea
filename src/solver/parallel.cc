#include "solver/parallel.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <thread>

#include "solver/component_eval.h"

namespace gsls::solver {

namespace {

/// Packs a deduplicated (from, to) edge list into CSR successor rows — the
/// shared tail of construction and splicing.
void BuildFromEdges(std::vector<uint64_t>* edges, uint32_t ncomp,
                    Csr<uint32_t>* succ) {
  std::sort(edges->begin(), edges->end());
  edges->erase(std::unique(edges->begin(), edges->end()), edges->end());
  succ->Reset(ncomp);
  for (uint64_t e : *edges) succ->CountAt(static_cast<uint32_t>(e >> 32));
  succ->FinishCounting();
  for (uint64_t e : *edges) {
    succ->Fill(static_cast<uint32_t>(e >> 32), static_cast<uint32_t>(e));
  }
  succ->FinishFilling();
}

}  // namespace

ComponentDag::ComponentDag(const GroundProgram& gp,
                           const AtomDependencyGraph& graph,
                           const std::vector<uint8_t>* disabled) {
  uint32_t ncomp = graph.component_count();
  // Cross-component edges, deduplicated by one sort over packed
  // (from, to) keys. Condensation order guarantees from < to.
  std::vector<uint64_t> edges;
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const GroundRule& r = gp.rules()[id];
    uint32_t hc = graph.ComponentOf(r.head);
    for (AtomId b : r.pos) {
      uint32_t bc = graph.ComponentOf(b);
      if (bc != hc) edges.push_back((uint64_t{bc} << 32) | hc);
    }
    for (AtomId b : r.neg) {
      uint32_t bc = graph.ComponentOf(b);
      if (bc != hc) edges.push_back((uint64_t{bc} << 32) | hc);
    }
  }
  BuildFromEdges(&edges, ncomp, &succ_);
}

void ComponentDag::AppendIsolated(uint32_t new_component_count) {
  if (new_component_count <= component_count()) return;
  succ_.AppendEmptyRows(new_component_count - component_count());
}

void ComponentDag::Splice(const GroundProgram& gp,
                          const AtomDependencyGraph& graph,
                          const std::vector<uint8_t>* disabled,
                          const CondensationRepair& rep) {
  assert(!rep.split());
  const uint32_t old_n = component_count();
  const uint32_t lo = rep.window_lo;
  const uint32_t old_hi = lo + rep.old_window_size;  // exclusive
  const int64_t delta =
      static_cast<int64_t>(rep.new_window_size) - rep.old_window_size;
  const uint32_t new_n = static_cast<uint32_t>(old_n + delta);
  auto remap = [&](uint32_t c) -> uint32_t {
    if (c < lo) return c;
    if (c >= old_hi) return static_cast<uint32_t>(c + delta);
    return rep.old_to_new[c - lo];
  };

  // Kept rows (outside the window), remapped; merged targets collapse in
  // the dedup. Window rows are recomputed from the occurrence index — the
  // repair may have rewired them arbitrarily — and `new_edges` covers
  // dependencies the rule added from components below the window.
  std::vector<uint64_t> edges;
  edges.reserve(succ_.size() + rep.new_edges.size());
  for (uint32_t c = 0; c < old_n; ++c) {
    if (c >= lo && c < old_hi) continue;
    uint32_t from = remap(c);
    for (uint32_t t : succ_.Row(c)) {
      edges.push_back((uint64_t{from} << 32) | remap(t));
    }
  }
  for (uint32_t c = lo; c < lo + rep.new_window_size; ++c) {
    for (AtomId a : graph.Atoms(c)) {
      for (RuleId rid : gp.PositiveOccurrences(a)) {
        if (!RuleEnabledIn(disabled, rid)) continue;
        uint32_t hc = graph.ComponentOf(gp.rules()[rid].head);
        if (hc != c) edges.push_back((uint64_t{c} << 32) | hc);
      }
      for (RuleId rid : gp.NegativeOccurrences(a)) {
        if (!RuleEnabledIn(disabled, rid)) continue;
        uint32_t hc = graph.ComponentOf(gp.rules()[rid].head);
        if (hc != c) edges.push_back((uint64_t{c} << 32) | hc);
      }
    }
  }
  for (const auto& [from, to] : rep.new_edges) {
    edges.push_back((uint64_t{from} << 32) | to);
  }
  BuildFromEdges(&edges, new_n, &succ_);
}

unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

bool ConeExecutor::Parallel(const Plan& plan, unsigned threads) {
  if (threads <= 1) return false;
  if (plan.pass == Pass::kFresh) return plan.component_count > 1;
  for (uint32_t c : plan.seeds) {
    if (c != plan.seeds.front()) return true;
  }
  return false;
}

void ConeExecutor::BeginPass(size_t lanes) {
  if (lanes_.size() < lanes) lanes_.resize(lanes);
  lane_count_ = lanes;
  for (ConeLane& lane : this->lanes()) {
    lane.diag = SolverDiagnostics{};
    lane.finalized.clear();
    lane.outside.clear();
    lane.unchanged = 0;
  }
  unfinished_.clear();
  seed_count_ = 0;
  scheduled_ = 0;
}

void ConeExecutor::BuildScope(const Plan& plan, const ComponentDag* dag) {
  if (slot_.size() < plan.component_count) {
    slot_.resize(plan.component_count, 0);
  }
  members_.clear();
  auto add = [this](uint32_t c) {
    if (slot_[c] != 0) return;
    members_.push_back(c);
    slot_[c] = static_cast<uint32_t>(members_.size());
  };
  switch (plan.pass) {
    case Pass::kFresh:
      for (uint32_t c = 0; c < plan.component_count; ++c) add(c);
      break;
    case Pass::kMembers:
      for (uint32_t c : plan.members) add(c);
      break;
    case Pass::kUpCone:
      // Breadth-first from the seeds; ranks are assigned at discovery.
      for (uint32_t c : plan.seeds) add(c);
      for (size_t i = 0; i < members_.size(); ++i) {
        for (uint32_t s : dag->Successors(members_[i])) add(s);
      }
      break;
  }
}

void ConeExecutor::EndScope() {
  for (uint32_t c : members_) slot_[c] = 0;
}

void RunFreshPass(ConeExecutor* exec, const GroundProgram& gp,
                  const AtomDependencyGraph& graph, const ComponentDag* dag,
                  WorkStealingPool* pool, const std::vector<uint8_t>* disabled,
                  TruthTape* values, StageTape* stages, CancelCtx* cancel) {
  // The lazy occurrence index must exist before workers read it
  // concurrently.
  gp.EnsureOccurrenceIndex();
  values->Assign(gp.atom_count());
  if (stages != nullptr) stages->Assign(gp.atom_count());
  ConeExecutor::Plan plan;
  plan.component_count = graph.component_count();
  exec->Run(plan, dag, pool,
            [&](ConeLane& lane, uint32_t c, auto&& /*flag*/) {
              lane.diag.max_component_size =
                  std::max(lane.diag.max_component_size,
                           static_cast<uint32_t>(graph.Atoms(c).size()));
              return SolveComponent(gp, graph, c, disabled, values, stages,
                                    &lane.diag, cancel)
                         ? ConeStep::kChanged
                         : ConeStep::kAborted;
            });
}

WfsModel SolveCondensation(const GroundProgram& gp,
                           const AtomDependencyGraph& graph,
                           const std::vector<uint8_t>* disabled,
                           bool compute_levels, WorkStealingPool* pool,
                           SolverDiagnostics* diag, CancelCtx* cancel) {
  // Cached per calling thread, like the one-shot pools: on a small program
  // a fresh executor's lane set-up is a visible share of the whole solve.
  thread_local ConeExecutor exec;
  ConeExecutor::Plan plan;
  plan.component_count = graph.component_count();
  std::unique_ptr<ComponentDag> dag;
  if (pool != nullptr && ConeExecutor::Parallel(plan, pool->size())) {
    dag = std::make_unique<ComponentDag>(gp, graph, disabled);
  } else {
    pool = nullptr;
  }
  TruthTape values;
  StageTape stages;
  RunFreshPass(&exec, gp, graph, dag.get(), pool, disabled, &values,
               compute_levels ? &stages : nullptr, cancel);
  for (const ConeLane& lane : exec.lanes()) diag->MergeFrom(lane.diag);
  diag->component_count = graph.component_count();

  WfsModel out;
  out.model = values.ToInterpretation();
  out.iterations = static_cast<uint32_t>(diag->alternating_rounds);
  if (cancel != nullptr) out.outcome = cancel->outcome();
  if (compute_levels) {
    out.true_stage = std::move(stages.true_stage);
    out.false_stage = std::move(stages.false_stage);
    out.has_levels = true;
  }
  return out;
}

}  // namespace gsls::solver
