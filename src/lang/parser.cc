#include "lang/parser.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "lang/lexer.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace gsls {

namespace {

/// Recursive-descent parser over the token stream. One `VarScope` per
/// clause/query maps source variable names to store variables; `_` is fresh
/// at each occurrence.
class Parser {
 public:
  Parser(TermStore& store, std::vector<Token> tokens)
      : store_(store), tokens_(std::move(tokens)) {}

  Result<Program> ParseProgramAll() {
    Program program(&store_);
    while (!Check(TokenKind::kEof)) {
      var_scope_.clear();
      Result<Clause> clause = ParseClause();
      if (!clause.ok()) return clause.status();
      program.AddClause(std::move(clause.value()));
    }
    return program;
  }

  Result<Goal> ParseQueryAll() {
    var_scope_.clear();
    if (Check(TokenKind::kQuery)) Advance();
    Goal goal;
    if (Check(TokenKind::kEof)) return goal;
    if (Check(TokenKind::kDot)) {
      Advance();
      return ExpectEof(std::move(goal));
    }
    while (true) {
      Result<Literal> lit = ParseLiteral();
      if (!lit.ok()) return lit.status();
      goal.push_back(lit.value());
      if (Check(TokenKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    if (Check(TokenKind::kDot)) Advance();
    return ExpectEof(std::move(goal));
  }

  Result<const Term*> ParseTermAll() {
    var_scope_.clear();
    Result<const Term*> t = ParseTermInner();
    if (!t.ok()) return t.status();
    if (!Check(TokenKind::kEof)) {
      return Err<const Term*>("expected end of input");
    }
    return t;
  }

 private:
  template <typename T>
  Status ErrStatus(std::string_view message) const {
    const Token& t = Peek();
    return Status::InvalidArgument(StrCat(message, " at line ", t.line,
                                          " col ", t.column, " (got ",
                                          TokenKindName(t.kind),
                                          t.text.empty() ? "" : " '",
                                          t.text,
                                          t.text.empty() ? "" : "'", ")"));
  }
  template <typename T>
  Result<T> Err(std::string_view message) const {
    return ErrStatus<T>(message);
  }

  template <typename T>
  Result<T> ExpectEof(T value) {
    if (!Check(TokenKind::kEof)) return Err<T>("expected end of input");
    return value;
  }

  const Token& Peek() const { return tokens_[pos_]; }
  bool Check(TokenKind k) const { return Peek().kind == k; }
  const Token& Advance() { return tokens_[pos_++]; }

  Result<Clause> ParseClause() {
    Result<const Term*> head = ParseAtom();
    if (!head.ok()) return head.status();
    Clause clause;
    clause.head = head.value();
    if (Check(TokenKind::kImplies)) {
      Advance();
      while (true) {
        Result<Literal> lit = ParseLiteral();
        if (!lit.ok()) return lit.status();
        clause.body.push_back(lit.value());
        if (Check(TokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (!Check(TokenKind::kDot)) return Err<Clause>("expected '.'");
    Advance();
    return clause;
  }

  Result<Literal> ParseLiteral() {
    bool positive = true;
    if (Check(TokenKind::kNot)) {
      Advance();
      positive = false;
      // Allow `not (atom)` as well as `not atom`.
      if (Check(TokenKind::kLParen)) {
        Advance();
        Result<const Term*> atom = ParseAtom();
        if (!atom.ok()) return atom.status();
        if (!Check(TokenKind::kRParen)) return Err<Literal>("expected ')'");
        Advance();
        return Literal{atom.value(), positive};
      }
    }
    Result<const Term*> atom = ParseAtom();
    if (!atom.ok()) return atom.status();
    return Literal{atom.value(), positive};
  }

  /// Atoms and terms share one grammar: name, optionally followed by a
  /// parenthesized argument list. An atom cannot be a bare variable.
  Result<const Term*> ParseAtom() {
    if (!Check(TokenKind::kName)) {
      return Err<const Term*>("expected predicate name");
    }
    return ParseTermInner();
  }

  Result<const Term*> ParseTermInner() {
    if (Check(TokenKind::kVariable)) {
      const std::string& name = Advance().text;
      return VarFor(name);
    }
    if (!Check(TokenKind::kName)) {
      return Err<const Term*>("expected term");
    }
    std::string name = Advance().text;
    std::vector<const Term*> args;
    if (Check(TokenKind::kLParen)) {
      Advance();
      while (true) {
        Result<const Term*> arg = ParseTermInner();
        if (!arg.ok()) return arg.status();
        args.push_back(arg.value());
        if (Check(TokenKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
      if (!Check(TokenKind::kRParen)) return Err<const Term*>("expected ')'");
      Advance();
    }
    return store_.MakeApp(name, args);
  }

  const Term* VarFor(const std::string& name) {
    if (name == "_") return store_.NewVar("_");
    auto it = var_scope_.find(name);
    if (it != var_scope_.end()) return it->second;
    const Term* v = store_.NewVar(name);
    var_scope_.emplace(name, v);
    return v;
  }

  TermStore& store_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::unordered_map<std::string, const Term*> var_scope_;
};

}  // namespace

Result<Program> ParseProgram(TermStore& store, std::string_view src) {
  GSLS_TRACE_SPAN("lang.parse", src.size());
  Result<std::vector<Token>> tokens = Lex(src);
  if (!tokens.ok()) return tokens.status();
  Parser parser(store, std::move(tokens.value()));
  return parser.ParseProgramAll();
}

Result<Goal> ParseQuery(TermStore& store, std::string_view src) {
  Result<std::vector<Token>> tokens = Lex(src);
  if (!tokens.ok()) return tokens.status();
  Parser parser(store, std::move(tokens.value()));
  return parser.ParseQueryAll();
}

Result<const Term*> ParseTerm(TermStore& store, std::string_view src) {
  Result<std::vector<Token>> tokens = Lex(src);
  if (!tokens.ok()) return tokens.status();
  Parser parser(store, std::move(tokens.value()));
  return parser.ParseTermAll();
}

namespace {
[[noreturn]] void DieOnParse(const Status& status) {
  std::fprintf(stderr, "parse error: %s\n", status.ToString().c_str());
  std::abort();
}
}  // namespace

Program MustParseProgram(TermStore& store, std::string_view src) {
  Result<Program> r = ParseProgram(store, src);
  if (!r.ok()) DieOnParse(r.status());
  return std::move(r.value());
}

Goal MustParseQuery(TermStore& store, std::string_view src) {
  Result<Goal> r = ParseQuery(store, src);
  if (!r.ok()) DieOnParse(r.status());
  return std::move(r.value());
}

const Term* MustParseTerm(TermStore& store, std::string_view src) {
  Result<const Term*> r = ParseTerm(store, src);
  if (!r.ok()) DieOnParse(r.status());
  return r.value();
}

}  // namespace gsls
