// A workload run: set-up, then the open, delta and serving phases on the
// workload's game, each for its share of `args.seconds`.
#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include "report.h"

namespace e2e {

/// Runs `args.workload` and fills `rep`. Returns false if there is no such
/// workload.
bool RunWorkload(const Args& args, Report* rep);

/// Prints the make-up and size of every workload's input for `seed`.
void PrintSizes(uint64_t seed);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
