// The end-to-end benchmark binary. Usage (normally through run.py, which
// builds this binary first):
//
//   e2e_bench --workload regions|lattice --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//   e2e_bench --sizes --seed N
//
// The last line of standard output is the JSON result: `correct`,
// `attempted`, `failed` and the metrics (end-to-end ones untraced,
// per-layer ones with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "oracle.h"
#include "report.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--sizes") {
      a->sizes = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = v == "1";
    } else if (flag == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return a->sizes || a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] | --sizes --seed N\n");
    return 2;
  }
  try {
    if (args.sizes) {
      e2e::PrintSizes(args.seed);
      return 0;
    }
    e2e::Report rep;
    std::string why;
    if (!e2e::OracleSelfTest(&why)) rep.Wrong(why);
    if (!e2e::RunWorkload(args, &rep)) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    rep.Print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
