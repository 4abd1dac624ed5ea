// A workload's game opened in one session: the direct session of the
// delta phase, the serving session of the serving phase.
#ifndef E2E_BENCH_GAME_SESSION_H_
#define E2E_BENCH_GAME_SESSION_H_

#include <memory>
#include <optional>
#include <vector>

#include "inputs.h"
#include "lang/program.h"
#include "serve/session.h"
#include "term/term_store.h"

namespace e2e {

/// The parsed program, its session, and the `win` term of every node and
/// `move` term of every edge, interned at open so that timed sections
/// never write the store. Members are destroyed session first, store last.
struct GameSession {
  std::unique_ptr<gsls::TermStore> store;
  std::optional<gsls::Program> program;
  std::optional<gsls::Session> session;
  std::vector<const gsls::Term*> win;   ///< per node
  std::vector<const gsls::Term*> move;  ///< per edge

  /// Parses `in.text`, opens it with `opts` and interns the terms.
  /// Returns false if the program could not be opened.
  bool Open(const Inputs& in, const gsls::SessionOptions& opts);
};

}  // namespace e2e

#endif  // E2E_BENCH_GAME_SESSION_H_
