#include "ground/grounder.h"

#include <algorithm>

#include "obs/trace.h"
#include "term/substitution.h"
#include "util/csr.h"
#include "util/strings.h"

namespace gsls {

namespace {

/// One node of a compiled atom template, in preorder: a compound node is
/// followed by the nodes of its arguments.
struct TemplateOp {
  enum class Kind : uint8_t {
    kGround,    ///< a variable-free subterm, compared by pointer
    kSlot,      ///< a clause variable, numbered into the slot array
    kCompound,  ///< a non-ground compound; its arguments follow
  };
  Kind kind;
  uint32_t slot;     ///< kSlot only
  const Term* term;  ///< kGround: the subterm; kCompound: the pattern
};

/// A body literal of a compiled clause: where its template starts in the
/// op array, and its sign.
struct LiteralPlan {
  uint32_t op;
  bool positive;
  FunctorId predicate;
};

/// A clause compiled once for instantiation. Its variables are numbered
/// into slots in first-occurrence order (`Clause::Variables`); matching a
/// positive literal binds slots, and emitting an instance builds the head
/// and the negative literals straight from them.
struct ClausePlan {
  uint32_t head;  ///< op offset of the head template
  std::vector<LiteralPlan> body;
  /// Slots no positive literal binds (head-only or negative-only
  /// variables of non-range-restricted clauses), in first-occurrence
  /// order: the universe odometer's digits, the first one fastest.
  std::vector<uint32_t> free_slots;
};

/// A derived atom with its id in the ground program.
struct Derived {
  const Term* atom;
  AtomId id;
};

/// Where a predicate occurs positively: clause `clause`, body literal
/// `literal`.
struct Occurrence {
  uint32_t clause;
  uint32_t literal;
};

/// Instances with an argument term deeper than this are dropped.
uint32_t DepthCap(const GroundingOptions& opts) {
  if (opts.max_atom_arg_depth != 0) return opts.max_atom_arg_depth;
  return opts.universe.max_term_depth;
}

/// The relevant grounder: a worklist over derived atoms. Each popped atom
/// is pinned, through a per-predicate occurrence index, to exactly the
/// positive body literals of its own predicate; the other positive
/// literals range over the atoms derived so far. Every instance found
/// costs its own matching and atom construction, so the whole run is
/// linear in the emitted program for clauses with one positive literal.
class RelevantGrounder {
 public:
  RelevantGrounder(const Program& program, const GroundingOptions& opts,
                   const CancelCtx* cancel)
      : program_(program),
        store_(program.store()),
        opts_(opts),
        cancel_(cancel),
        depth_cap_(DepthCap(opts)),
        ground_(&program.store()) {}

  Result<GroundProgram> Run() {
    Result<std::vector<const Term*>> universe =
        EnumerateUniverse(program_, opts_.universe);
    if (!universe.ok()) return universe.status();
    universe_ = std::move(universe.value());
    Compile();

    // Seed: instantiate every clause against the derived set as it grows;
    // clauses with no positive body fire immediately.
    for (size_t ci = 0; ci < plans_.size(); ++ci) {
      Status s = MatchFrom(plans_[ci], kNoPin, Derived{}, 0);
      if (!s.ok()) return s;
    }
    // Propagate: each derived atom, in derivation order, is pinned to
    // every positive occurrence of its predicate.
    for (size_t next = 0; next < queue_.size(); ++next) {
      Status s = Poll();
      if (!s.ok()) return s;
      const Derived pin = queue_[next];
      for (const Occurrence& occ : occurrences_.Row(pin.atom->functor())) {
        s = MatchFrom(plans_[occ.clause], occ.literal, pin, 0);
        if (!s.ok()) return s;
      }
    }
    return std::move(ground_);
  }

 private:
  static constexpr uint32_t kNoPin = UINT32_MAX;

  /// Compiles every clause into a plan and builds the occurrence index,
  /// both in clause and literal order (the order the worklist visits
  /// them, which fixes rule and atom ids).
  void Compile() {
    size_t functors = store_.symbols().functor_count();
    derived_by_pred_.resize(functors);
    occurrences_.Reset(functors);
    size_t max_slots = 0;
    size_t max_body = 0;
    for (const Clause& clause : program_.clauses()) {
      std::vector<VarId> vars = clause.Variables();
      std::vector<bool> bound(vars.size(), false);
      ClausePlan plan;
      plan.head = CompileTerm(clause.head, vars, nullptr);
      for (const Literal& lit : clause.body) {
        std::vector<bool>* binds = lit.positive ? &bound : nullptr;
        uint32_t op = CompileTerm(lit.atom, vars, binds);
        plan.body.push_back(LiteralPlan{op, lit.positive, lit.predicate()});
        if (lit.positive) occurrences_.CountAt(lit.predicate());
      }
      for (uint32_t s = 0; s < vars.size(); ++s) {
        if (!bound[s]) plan.free_slots.push_back(s);
      }
      max_slots = std::max(max_slots, vars.size());
      max_body = std::max(max_body, clause.body.size());
      plans_.push_back(std::move(plan));
    }
    occurrences_.FinishCounting();
    for (uint32_t ci = 0; ci < plans_.size(); ++ci) {
      const std::vector<LiteralPlan>& body = plans_[ci].body;
      for (uint32_t li = 0; li < body.size(); ++li) {
        if (body[li].positive) {
          occurrences_.Fill(body[li].predicate, Occurrence{ci, li});
        }
      }
    }
    occurrences_.FinishFilling();
    slots_.assign(max_slots, nullptr);
    matched_.resize(max_body);
  }

  /// Appends `t`'s template to `ops_` and returns its offset. Slots of
  /// the variables it contains are marked in `*bound` when given.
  uint32_t CompileTerm(const Term* t, const std::vector<VarId>& vars,
                       std::vector<bool>* bound) {
    uint32_t at = static_cast<uint32_t>(ops_.size());
    if (t->ground()) {
      ops_.push_back(TemplateOp{TemplateOp::Kind::kGround, 0, t});
    } else if (t->IsVar()) {
      uint32_t slot = static_cast<uint32_t>(
          std::find(vars.begin(), vars.end(), t->var()) - vars.begin());
      if (bound != nullptr) (*bound)[slot] = true;
      ops_.push_back(TemplateOp{TemplateOp::Kind::kSlot, slot, nullptr});
    } else {
      ops_.push_back(TemplateOp{TemplateOp::Kind::kCompound, 0, t});
      for (const Term* arg : t->args()) CompileTerm(arg, vars, bound);
    }
    return at;
  }

  /// Matches the template at `*op` against the ground term `t`, binding
  /// unbound slots (recorded on the trail) and comparing bound ones by
  /// pointer: terms are hash-consed, so equal ground terms are one
  /// pointer. Advances `*op` past the template on success.
  bool Match(uint32_t* op, const Term* t) {
    const TemplateOp& o = ops_[(*op)++];
    switch (o.kind) {
      case TemplateOp::Kind::kGround:
        return o.term == t;
      case TemplateOp::Kind::kSlot:
        if (slots_[o.slot] != nullptr) return slots_[o.slot] == t;
        slots_[o.slot] = t;
        trail_.push_back(o.slot);
        return true;
      case TemplateOp::Kind::kCompound:
        if (t->functor() != o.term->functor()) return false;
        for (const Term* arg : t->args()) {
          if (!Match(op, arg)) return false;
        }
        return true;
    }
    return false;
  }

  /// Unbinds the slots bound since trail position `mark`.
  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      slots_[trail_.back()] = nullptr;
      trail_.pop_back();
    }
  }

  /// Builds the ground instance of the template at `*op` from the slots.
  const Term* Build(uint32_t* op) {
    const TemplateOp& o = ops_[(*op)++];
    switch (o.kind) {
      case TemplateOp::Kind::kGround:
        return o.term;
      case TemplateOp::Kind::kSlot:
        return slots_[o.slot];
      case TemplateOp::Kind::kCompound:
        break;
    }
    size_t base = args_.size();
    for (uint32_t i = 0; i < o.term->arity(); ++i) {
      const Term* arg = Build(op);
      args_.push_back(arg);
    }
    std::span<const Term* const> built(args_.data() + base, o.term->arity());
    const Term* t = store_.MakeCompound(o.term->functor(), built);
    args_.resize(base);
    return t;
  }

  /// Matches the positive body literals of `plan` from body position
  /// `next` on. Literal `pinned` (if not `kNoPin`) is matched against
  /// `pin` only; every other positive literal ranges over the atoms of
  /// its predicate derived so far, including those derived while it
  /// iterates.
  Status MatchFrom(const ClausePlan& plan, uint32_t pinned, Derived pin,
                   uint32_t next) {
    while (next < plan.body.size() && !plan.body[next].positive) ++next;
    if (next == plan.body.size()) return Emit(plan);
    const LiteralPlan& lit = plan.body[next];
    const size_t mark = trail_.size();
    auto try_atom = [&](Derived d) -> Status {
      uint32_t op = lit.op;
      Status s;
      if (Match(&op, d.atom)) {
        matched_[next] = d;
        s = MatchFrom(plan, pinned, pin, next + 1);
      }
      Undo(mark);
      return s;
    };
    if (next == pinned) return try_atom(pin);
    // By index: emitting may append to (and reallocate) the candidates.
    const std::vector<Derived>& candidates = derived_by_pred_[lit.predicate];
    for (size_t i = 0; i < candidates.size(); ++i) {
      Status s = try_atom(candidates[i]);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  /// Emits every completion of the matched clause: the free slots range
  /// over the universe, the first one fastest.
  Status Emit(const ClausePlan& plan) {
    const std::vector<uint32_t>& free = plan.free_slots;
    if (free.empty()) return EmitInstance(plan);
    std::vector<size_t> idx(free.size(), 0);
    Status s;
    while (s.ok()) {
      for (size_t i = 0; i < free.size(); ++i) {
        slots_[free[i]] = universe_[idx[i]];
      }
      s = EmitInstance(plan);
      size_t pos = 0;
      for (; pos < free.size(); ++pos) {
        if (++idx[pos] < universe_.size()) break;
        idx[pos] = 0;
      }
      if (pos == free.size()) break;
    }
    for (uint32_t slot : free) slots_[slot] = nullptr;
    return s;
  }

  /// Adds one fully bound instance. Positive body atoms are the matched
  /// derived atoms themselves (already interned, and within the depth cap
  /// since they were emitted as heads); the head and the negative
  /// literals are built from the slots.
  Status EmitInstance(const ClausePlan& plan) {
    Status s = Poll();
    if (!s.ok()) return s;
    uint32_t op = plan.head;
    const Term* head = Build(&op);
    if (TooDeep(head)) return Status::Ok();
    negatives_.clear();
    for (const LiteralPlan& lit : plan.body) {
      if (lit.positive) continue;
      op = lit.op;
      const Term* atom = Build(&op);
      if (TooDeep(atom)) return Status::Ok();
      negatives_.push_back(atom);
    }
    if (ground_.rule_count() >= opts_.max_rules) {
      return Status::ResourceExhausted(
          StrCat("grounding exceeds max_rules=", opts_.max_rules));
    }
    GroundRule rule;
    rule.head = ground_.InternAtom(head);
    size_t neg = 0;
    for (size_t li = 0; li < plan.body.size(); ++li) {
      if (plan.body[li].positive) {
        rule.pos.push_back(matched_[li].id);
      } else {
        rule.neg.push_back(ground_.InternAtom(negatives_[neg++]));
      }
    }
    if (ground_.atom_count() > opts_.max_atoms) {
      return Status::ResourceExhausted(
          StrCat("grounding exceeds max_atoms=", opts_.max_atoms));
    }
    AtomId head_id = rule.head;
    ground_.AddRule(std::move(rule));
    Derive(Derived{head, head_id});
    return Status::Ok();
  }

  /// Depth cap: an instance mentioning an argument term deeper than the
  /// bound is dropped (keeps the derivation finite when rule heads
  /// contain function symbols). An atom's arguments are all within the
  /// cap iff the atom is within one more.
  bool TooDeep(const Term* atom) const {
    return atom->depth() > depth_cap_ + 1;
  }

  void Derive(Derived d) {
    if (d.id >= derived_.size()) derived_.resize(ground_.atom_count(), false);
    if (derived_[d.id]) return;
    derived_[d.id] = true;
    derived_by_pred_[d.atom->functor()].push_back(d);
    queue_.push_back(d);
  }

  /// Cancel point: polls the context every `kCancelStride` calls (popped
  /// atoms and emitted instances). Null context: free.
  Status Poll() {
    if (cancel_ == nullptr || --countdown_ != 0) return Status::Ok();
    countdown_ = kCancelStride;
    switch (cancel_->Poll()) {
      case SolveOutcome::kCompleted:
        return Status::Ok();
      case SolveOutcome::kCancelled:
        return Status::Cancelled("grounding cancelled");
      case SolveOutcome::kDeadlineExceeded:
        return Status::DeadlineExceeded("grounding passed its deadline");
    }
    return Status::Ok();
  }

  const Program& program_;
  TermStore& store_;
  const GroundingOptions& opts_;
  const CancelCtx* cancel_;
  uint32_t countdown_ = kCancelStride;
  uint32_t depth_cap_;
  GroundProgram ground_;
  std::vector<const Term*> universe_;

  std::vector<TemplateOp> ops_;
  std::vector<ClausePlan> plans_;
  Csr<Occurrence> occurrences_;  ///< predicate -> positive occurrences

  // Matching and building scratch.
  std::vector<const Term*> slots_;  ///< current bindings; null = unbound
  std::vector<uint32_t> trail_;     ///< slots bound, for `Undo`
  std::vector<Derived> matched_;    ///< per body position: matched atom
  std::vector<const Term*> args_;   ///< `Build`'s argument stack
  std::vector<const Term*> negatives_;

  // The derived set: a flag per AtomId, the atoms per predicate, and the
  // worklist, which is the derivation order.
  std::vector<bool> derived_;
  std::vector<std::vector<Derived>> derived_by_pred_;
  std::vector<Derived> queue_;
};

}  // namespace

Result<GroundProgram> GroundRelevant(const Program& program,
                                     const GroundingOptions& opts,
                                     const CancelCtx* cancel) {
  GSLS_TRACE_SPAN("ground.relevant", program.clauses().size());
  return RelevantGrounder(program, opts, cancel).Run();
}

Result<GroundProgram> FullyInstantiate(const Program& program,
                                       const GroundingOptions& opts) {
  Result<std::vector<const Term*>> universe =
      EnumerateUniverse(program, opts.universe);
  if (!universe.ok()) return universe.status();
  TermStore& store = program.store();
  GroundProgram out(&store);
  for (const Clause& clause : program.clauses()) {
    std::vector<VarId> vars = clause.Variables();
    std::vector<size_t> idx(vars.size(), 0);
    while (true) {
      Substitution s;
      for (size_t i = 0; i < vars.size(); ++i) {
        s.Bind(vars[i], universe.value()[idx[i]]);
      }
      Clause grounded = ApplyToClause(store, s, clause);
      if (out.rule_count() >= opts.max_rules) {
        return Status::ResourceExhausted(
            StrCat("instantiation exceeds max_rules=", opts.max_rules));
      }
      GroundRule rule;
      rule.head = out.InternAtom(grounded.head);
      for (const Literal& l : grounded.body) {
        AtomId id = out.InternAtom(l.atom);
        (l.positive ? rule.pos : rule.neg).push_back(id);
      }
      out.AddRule(std::move(rule));
      if (vars.empty()) break;
      size_t pos = 0;
      for (; pos < vars.size(); ++pos) {
        if (++idx[pos] < universe.value().size()) break;
        idx[pos] = 0;
      }
      if (pos == vars.size()) break;
    }
  }
  return out;
}

GroundProgram RestrictToRelevant(const GroundProgram& gp,
                                 const std::vector<const Term*>& roots) {
  TermStore& store = gp.store();
  // Find seed atoms: registered atoms unifying with some root.
  std::vector<bool> relevant(gp.atom_count(), false);
  std::vector<AtomId> work;
  auto mark = [&](AtomId id) {
    if (!relevant[id]) {
      relevant[id] = true;
      work.push_back(id);
    }
  };
  for (const Term* root : roots) {
    if (root->ground()) {
      if (auto id = gp.FindAtom(root)) mark(*id);
      continue;
    }
    for (AtomId id = 0; id < gp.atom_count(); ++id) {
      if (gp.AtomTerm(id)->functor() != root->functor()) continue;
      Substitution s;
      if (Unify(root, gp.AtomTerm(id), &s)) mark(id);
    }
  }
  while (!work.empty()) {
    AtomId a = work.back();
    work.pop_back();
    for (RuleId rid : gp.RulesFor(a)) {
      const GroundRule& r = gp.rules()[rid];
      for (AtomId b : r.pos) mark(b);
      for (AtomId b : r.neg) mark(b);
    }
  }
  GroundProgram out(&store);
  // Preserve atom registration for every relevant atom (even ruleless ones,
  // so queries about them resolve to ids).
  for (AtomId id = 0; id < gp.atom_count(); ++id) {
    if (relevant[id]) out.InternAtom(gp.AtomTerm(id));
  }
  for (const GroundRule& r : gp.rules()) {
    if (!relevant[r.head]) continue;
    GroundRule nr;
    nr.head = out.InternAtom(gp.AtomTerm(r.head));
    for (AtomId b : r.pos) nr.pos.push_back(out.InternAtom(gp.AtomTerm(b)));
    for (AtomId b : r.neg) nr.neg.push_back(out.InternAtom(gp.AtomTerm(b)));
    out.AddRule(std::move(nr));
  }
  return out;
}

}  // namespace gsls
