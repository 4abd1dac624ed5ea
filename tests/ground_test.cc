#include "ground/grounder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "test_support.h"
#include "wfs/wfs.h"

namespace gsls {
namespace {

using testing::Fixture;

TEST(HerbrandTest, ConstantsOnly) {
  Fixture f("p(a, b). q(c).");
  Result<std::vector<const Term*>> u =
      EnumerateUniverse(f.program, UniverseOptions{});
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 3u);
}

TEST(HerbrandTest, SyntheticConstantWhenNone) {
  Fixture f("p :- q.");
  Result<std::vector<const Term*>> u =
      EnumerateUniverse(f.program, UniverseOptions{});
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->size(), 1u);
  EXPECT_EQ(f.store.ToString(u->front()), "$k");
}

TEST(HerbrandTest, DepthBoundedWithFunctions) {
  Fixture f("p(s(z)).");
  UniverseOptions opts;
  opts.max_term_depth = 3;
  Result<std::vector<const Term*>> u = EnumerateUniverse(f.program, opts);
  ASSERT_TRUE(u.ok());
  // z, s(z), s(s(z)).
  EXPECT_EQ(u->size(), 3u);
  EXPECT_EQ(u->back()->depth(), 3u);
}

TEST(HerbrandTest, BinaryFunctionGrowth) {
  Fixture f("p(f(a, b)).");
  UniverseOptions opts;
  opts.max_term_depth = 2;
  Result<std::vector<const Term*>> u = EnumerateUniverse(f.program, opts);
  ASSERT_TRUE(u.ok());
  // a, b, f(a,a), f(a,b), f(b,a), f(b,b).
  EXPECT_EQ(u->size(), 6u);
}

TEST(HerbrandTest, CapEnforced) {
  Fixture f("p(f(a, b)).");
  UniverseOptions opts;
  opts.max_term_depth = 5;
  opts.max_terms = 100;
  Result<std::vector<const Term*>> u = EnumerateUniverse(f.program, opts);
  EXPECT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kResourceExhausted);
}

TEST(GrounderTest, InstantiatesFactsAndRules) {
  Fixture f(
      "e(a, b). e(b, c).\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  GroundProgram gp = testing::MustGround(f.program);
  // Facts 2, t-base 2, t-trans: e(a,b)+t(b,c) and chains.
  EXPECT_GT(gp.rule_count(), 4u);
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "t(a, c)")).has_value());
  // Irrelevant instantiations (e.g. t(c, a)) are not derivable and thus
  // should not appear as rule heads.
  auto tca = gp.FindAtom(MustParseTerm(f.store, "t(c, a)"));
  if (tca.has_value()) {
    EXPECT_TRUE(gp.RulesFor(*tca).empty());
  }
}

TEST(GrounderTest, NegativeLiteralsAreInstantiated) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b).\n");
  GroundProgram gp = testing::MustGround(f.program);
  auto win_b = gp.FindAtom(MustParseTerm(f.store, "win(b)"));
  ASSERT_TRUE(win_b.has_value());
  // win(b) appears negatively but has no rules (no move from b).
  EXPECT_TRUE(gp.RulesFor(*win_b).empty());
}

TEST(GrounderTest, NonRangeRestrictedEnumeratesUniverse) {
  Fixture f("p(X) :- not q(X). q(a). r(b).");
  GroundProgram gp = testing::MustGround(f.program);
  // X in p(X) :- not q(X) must range over {a, b}.
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "p(a)")).has_value());
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "p(b)")).has_value());
}

TEST(GrounderTest, AgreesWithFullInstantiationOnWfs) {
  // The relevant grounding must yield the same well-founded truth values
  // as the brute-force Herbrand instantiation, for every atom the full
  // instantiation registers.
  Rng rng(555);
  for (int trial = 0; trial < 25; ++trial) {
    std::string src = testing::RandomGameProgram(rng, 4, 40);
    Fixture f(src);
    GroundingOptions opts;
    GroundProgram relevant = testing::MustGround(f.program);
    Result<GroundProgram> full = FullyInstantiate(f.program, opts);
    ASSERT_TRUE(full.ok());
    WfsModel m_rel = ComputeWfs(relevant);
    WfsModel m_full = ComputeWfs(full.value());
    for (AtomId a = 0; a < full->atom_count(); ++a) {
      const Term* atom = full->AtomTerm(a);
      TruthValue full_value = m_full.model.Value(a);
      auto rel_id = relevant.FindAtom(atom);
      TruthValue rel_value = rel_id.has_value()
                                 ? m_rel.model.Value(*rel_id)
                                 : TruthValue::kFalse;
      EXPECT_EQ(full_value, rel_value)
          << f.store.ToString(atom) << " in\n"
          << src;
    }
  }
}

/// `head :- pos..., not neg...` with each side's atoms sorted as strings,
/// so rules of two ground programs compare independently of atom ids.
std::string RenderRule(const GroundProgram& gp, const GroundRule& r) {
  std::vector<std::string> pos, neg;
  for (AtomId a : r.pos) pos.push_back(gp.store().ToString(gp.AtomTerm(a)));
  for (AtomId a : r.neg) neg.push_back(gp.store().ToString(gp.AtomTerm(a)));
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  std::string out = gp.store().ToString(gp.AtomTerm(r.head)) + " :-";
  for (const std::string& a : pos) out += " " + a;
  for (const std::string& a : neg) out += " not " + a;
  return out;
}

std::vector<std::string> SortedRules(std::vector<std::string> rules) {
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  return rules;
}

std::vector<std::string> RelevantRules(const Program& program,
                                       const GroundingOptions& opts) {
  Result<GroundProgram> gp = GroundRelevant(program, opts);
  EXPECT_TRUE(gp.ok()) << gp.status().ToString();
  if (!gp.ok()) return {};
  std::vector<std::string> out;
  for (const GroundRule& r : gp->rules()) out.push_back(RenderRule(*gp, r));
  return SortedRules(std::move(out));
}

/// The relevant grounding by definition, independent of the grounder's
/// worklist: the full Herbrand instantiation, minus instances with an
/// argument deeper than the cap, restricted to the instances whose
/// positive body lies in the least model of the positive projection
/// (negative literals dropped).
std::vector<std::string> OracleRules(const Program& program,
                                     const GroundingOptions& opts) {
  Result<GroundProgram> full = FullyInstantiate(program, opts);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!full.ok()) return {};
  uint32_t cap = opts.universe.max_term_depth;
  if (opts.max_atom_arg_depth != 0) cap = opts.max_atom_arg_depth;
  auto within_cap = [&](AtomId a) {
    for (const Term* arg : full->AtomTerm(a)->args()) {
      if (arg->depth() > cap) return false;
    }
    return true;
  };
  std::vector<const GroundRule*> capped;
  for (const GroundRule& r : full->rules()) {
    bool keep = within_cap(r.head);
    for (AtomId a : r.pos) keep = keep && within_cap(a);
    for (AtomId a : r.neg) keep = keep && within_cap(a);
    if (keep) capped.push_back(&r);
  }
  std::vector<bool> least(full->atom_count(), false);
  auto body_holds = [&](const GroundRule* r) {
    return std::all_of(r->pos.begin(), r->pos.end(),
                       [&](AtomId a) { return least[a]; });
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const GroundRule* r : capped) {
      if (!least[r->head] && body_holds(r)) {
        least[r->head] = true;
        changed = true;
      }
    }
  }
  std::vector<std::string> out;
  for (const GroundRule* r : capped) {
    if (body_holds(r)) out.push_back(RenderRule(*full, *r));
  }
  return SortedRules(std::move(out));
}

/// A random function-free program over constants a, b, c: facts of e/2
/// and f/1, a fixed transitive self-join and repeated-variable rule, and
/// random rules with 1-3 positive body literals (variables, repeated
/// variables and constants as arguments) and 0-2 negative literals, some
/// over head-only variables (not range-restricted).
std::string RandomJoinProgram(Rng& rng) {
  const char* consts[] = {"a", "b", "c"};
  const char* vars[] = {"X", "Y", "Z"};
  struct Pred {
    const char* name;
    int arity;
  };
  const Pred body_preds[] = {{"e", 2}, {"f", 1}, {"p", 2}, {"q", 1}, {"r", 0}};
  const Pred head_preds[] = {{"p", 2}, {"q", 1}, {"r", 0}};
  std::string src =
      "p(X, Y) :- e(X, Y).\n"
      "p(X, Y) :- p(X, Z), p(Z, Y).\n"
      "q(X) :- e(X, X).\n"
      "e(a, b).\n";
  for (const char* x : consts) {
    for (const char* y : consts) {
      if (rng.Chance(35, 100)) src += StrCat("e(", x, ", ", y, ").\n");
    }
    if (rng.Chance(50, 100)) src += StrCat("f(", x, ").\n");
  }
  auto atom = [&](const Pred& p, auto&& arg) {
    std::string out = p.name;
    for (int i = 0; i < p.arity; ++i) {
      out += i == 0 ? "(" : ", ";
      out += arg();
    }
    return p.arity > 0 ? out + ")" : out;
  };
  auto body_arg = [&]() -> std::string {
    return rng.Chance(80, 100) ? vars[rng.Uniform(3)] : consts[rng.Uniform(3)];
  };
  // `W` occurs only in heads and negative literals.
  auto free_arg = [&]() -> std::string {
    if (rng.Chance(25, 100)) return "W";
    return body_arg();
  };
  int rules = rng.UniformInt(2, 5);
  for (int i = 0; i < rules; ++i) {
    std::string rule = atom(head_preds[rng.Uniform(3)], free_arg) + " :- ";
    int positives = rng.UniformInt(1, 3);
    for (int j = 0; j < positives; ++j) {
      if (j > 0) rule += ", ";
      rule += atom(body_preds[rng.Uniform(5)], body_arg);
    }
    int negatives = rng.UniformInt(0, 2);
    for (int j = 0; j < negatives; ++j) {
      rule += ", not " + atom(body_preds[rng.Uniform(5)], free_arg);
    }
    src += rule + ".\n";
  }
  return src;
}

TEST(GrounderTest, EmitsExactlyTheOracleRulesOnRandomJoins) {
  Rng rng(1414);
  for (int trial = 0; trial < 200; ++trial) {
    std::string src = RandomJoinProgram(rng);
    Fixture f(src);
    GroundingOptions opts;
    EXPECT_EQ(RelevantRules(f.program, opts), OracleRules(f.program, opts))
        << src;
  }
}

TEST(GrounderTest, EmitsExactlyTheOracleRulesUnderTheDepthCap) {
  Fixture f(
      "nat(z).\n"
      "nat(s(X)) :- nat(X).\n"
      "even(z).\n"
      "even(s(s(X))) :- even(X).\n"
      "odd(X) :- nat(X), not even(X).\n"
      "t(f(X)) :- odd(X).\n"
      "pair(X, s(Y)) :- nat(X), nat(Y), not odd(Y).\n"
      "lone(X, Y) :- nat(Y), not nat(X).\n");
  GroundingOptions opts;
  opts.universe.max_term_depth = 3;
  std::vector<std::string> oracle = OracleRules(f.program, opts);
  EXPECT_EQ(RelevantRules(f.program, opts), oracle);
  // The cap cut the regress: nat(s(s(z))) is derived, nat(s(s(s(z)))) not.
  const std::string kept = "nat(s(s(z))) :- nat(s(z))";
  EXPECT_NE(std::find(oracle.begin(), oracle.end(), kept), oracle.end());
  for (const std::string& r : oracle) {
    EXPECT_EQ(r.find("s(s(s("), std::string::npos) << r;
  }
}

TEST(GrounderTest, RuleDeduplication) {
  Fixture f("p :- q. p :- q. q.");
  GroundProgram gp = testing::MustGround(f.program);
  EXPECT_EQ(gp.rule_count(), 2u);
}

TEST(GrounderTest, BodyLiteralDeduplication) {
  Fixture f("p :- q, q, not r, not r. q.");
  GroundProgram gp = testing::MustGround(f.program);
  for (const GroundRule& r : gp.rules()) {
    if (r.pos.size() + r.neg.size() > 0 && !r.neg.empty()) {
      EXPECT_EQ(r.pos.size(), 1u);
      EXPECT_EQ(r.neg.size(), 1u);
    }
  }
}

TEST(GrounderTest, CapsAreEnforced) {
  Fixture f("p(X, Y, Z) :- not q(X, Y, Z). q(a, a, a). c(b). c(d). c(e).");
  GroundingOptions opts;
  opts.max_rules = 10;
  Result<GroundProgram> gp = GroundRelevant(f.program, opts);
  EXPECT_FALSE(gp.ok());
  EXPECT_EQ(gp.status().code(), StatusCode::kResourceExhausted);
}

TEST(RestrictTest, KeepsOnlyReachableRules) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, c).\n"
      "move(x, y).\n");  // disconnected component
  GroundProgram gp = testing::MustGround(f.program);
  GroundProgram restricted =
      RestrictToRelevant(gp, {MustParseTerm(f.store, "win(a)")});
  EXPECT_TRUE(restricted.FindAtom(MustParseTerm(f.store, "win(b)")));
  EXPECT_FALSE(restricted.FindAtom(MustParseTerm(f.store, "win(x)")));
  EXPECT_LT(restricted.rule_count(), gp.rule_count());
  // Restriction preserves well-founded values on kept atoms (relevance).
  WfsModel full = ComputeWfs(gp);
  WfsModel sub = ComputeWfs(restricted);
  for (AtomId a = 0; a < restricted.atom_count(); ++a) {
    const Term* atom = restricted.AtomTerm(a);
    EXPECT_EQ(sub.model.Value(a), full.model.Value(*gp.FindAtom(atom)))
        << f.store.ToString(atom);
  }
}

TEST(RestrictTest, NongroundRootMatchesAllInstances) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(x, y).\n");
  GroundProgram gp = testing::MustGround(f.program);
  GroundProgram restricted =
      RestrictToRelevant(gp, {MustParseTerm(f.store, "win(Z)")});
  EXPECT_TRUE(restricted.FindAtom(MustParseTerm(f.store, "win(a)")));
  EXPECT_TRUE(restricted.FindAtom(MustParseTerm(f.store, "win(x)")));
}

TEST(GroundProgramTest, OccurrenceIndexes) {
  Fixture f("p :- q, not r. s :- q. q.");
  GroundProgram gp = testing::MustGround(f.program);
  auto q = gp.FindAtom(MustParseTerm(f.store, "q"));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(gp.PositiveOccurrences(*q).size(), 2u);
  auto r = gp.FindAtom(MustParseTerm(f.store, "r"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(gp.NegativeOccurrences(*r).size(), 1u);
}

TEST(GroundProgramTest, UnitRuleAfterIndexReadMergesIntoRulesFor) {
  // `r` has rules but no unit rule; reading the index first forces the
  // lazily built CSR, so the later unit-rule AddRule exercises the
  // pending-row merge path instead of a full rebuild.
  Fixture f("p :- q, not r. r :- q. q.");
  GroundProgram gp = testing::MustGround(f.program);
  auto r = gp.FindAtom(MustParseTerm(f.store, "r"));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(gp.RulesFor(*r).size(), 1u);  // materializes the index
  ASSERT_FALSE(gp.FindUnitRule(*r).has_value());

  RuleId unit = gp.AddRule(GroundRule{*r, {}, {}});
  ASSERT_EQ(gp.RulesFor(*r).size(), 2u);
  EXPECT_EQ(gp.RulesFor(*r).back(), unit);  // largest id stays last
  EXPECT_EQ(gp.FindUnitRule(*r), unit);
  // The other rows and indexes are untouched by the merge.
  auto q = gp.FindAtom(MustParseTerm(f.store, "q"));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(gp.PositiveOccurrences(*q).size(), 2u);
}

TEST(GroundProgramTest, ToStringRendersRules) {
  Fixture f("p :- q, not r. q.");
  GroundProgram gp = testing::MustGround(f.program);
  std::string s = gp.ToString();
  EXPECT_NE(s.find("p :- q, not r."), std::string::npos);
  EXPECT_NE(s.find("q.\n"), std::string::npos);
}

}  // namespace
}  // namespace gsls
