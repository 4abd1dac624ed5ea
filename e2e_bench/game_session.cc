#include "game_session.h"

#include "lang/parser.h"

namespace e2e {

bool GameSession::Open(const Inputs& in, const gsls::SessionOptions& opts) {
  store = std::make_unique<gsls::TermStore>();
  gsls::Result<gsls::Program> prog = gsls::ParseProgram(*store, in.text);
  if (!prog.ok()) return false;
  program.emplace(std::move(prog.value()));
  gsls::Result<gsls::Session> s = gsls::Session::Open(*program, opts);
  if (!s.ok()) return false;
  session.emplace(std::move(s.value()));
  gsls::TermStore& st = *store;
  const Graph& g = in.graph;
  for (const std::string& n : g.names) {
    win.push_back(st.MakeApp("win", {st.MakeConstant(n)}));
  }
  for (const Edge& e : g.edges) {
    move.push_back(st.MakeApp("move", {st.MakeConstant(g.names[e.first]),
                                       st.MakeConstant(g.names[e.second])}));
  }
  return true;
}

}  // namespace e2e
