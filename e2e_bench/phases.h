// The three phases every workload run goes through, each for its share of
// the run: open (program text -> first answer), deltas on a direct
// session, and deltas beside readers on a serving session. Each phase
// checks what it checks against the oracle outside its timed sections,
// counts its operations in `rep` and adds its metrics: the end-to-end ones
// untraced, the per-layer ones when `args.trace` is set.
#ifndef E2E_BENCH_PHASES_H_
#define E2E_BENCH_PHASES_H_

#include <memory>

#include "game_session.h"
#include "inputs.h"
#include "report.h"

namespace e2e {

/// Median wall time of the phase's unit of work (an open, a delta round)
/// untraced and traced, for `obs.trace_overhead`.
struct Overhead {
  double plain_ns = 0;
  double traced_ns = 0;
};

/// A phase keeps its samples across slices, so a run can interleave the
/// phases and each metric spans the whole run rather than one stretch of
/// it: the host's load then moves every metric alike.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Runs whole rounds of the phase until `seconds` have passed.
  virtual void Slice(double seconds, Report* rep) = 0;
  /// Makes the phase's last checks and adds its metrics.
  virtual Overhead Finish(Report* rep) = 0;
};

/// Opens `in.text` again and again, each time from a fresh `TermStore` as
/// a new user's would, and checks every atom of every opened snapshot.
std::unique_ptr<Phase> MakeOpenPhase(const Inputs& in, const Args& args);

/// Fact, rule and bulk deltas with point queries on `direct`, a
/// direct-mode session of `in`; every round restores the program. Returns
/// null (and counts a failed operation) if the traced run's second
/// session cannot be opened.
std::unique_ptr<Phase> MakeDeltaPhase(const Inputs& in, GameSession& direct,
                                      const Args& args, Report* rep);

/// `kReaders` closed-loop reader threads on `serving`, a serving-mode
/// session of `in`, beside open-loop fact deltas from this thread. The
/// traced run gives every other slice to a second session opened with
/// telemetry. Returns null (and counts a failed operation) if that session
/// cannot be opened.
std::unique_ptr<Phase> MakeServePhase(const Inputs& in, GameSession& serving,
                                      const Args& args, Report* rep);

/// Options every session of the benchmark uses: one solver thread, so its
/// counts repeat exactly, and levels for the stage checks.
gsls::SessionOptions BenchOptions(bool serving, gsls::obs::Telemetry* tele);

}  // namespace e2e

#endif  // E2E_BENCH_PHASES_H_
