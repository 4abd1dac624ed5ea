// What every workload shares: the command line, clocks, sample
// statistics, operation counts, per-layer spans and the JSON result line.
#ifndef E2E_BENCH_REPORT_H_
#define E2E_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool sizes = false;     ///< print input sizes instead of measuring
  std::string out_dir = ".";  ///< where the traced run writes its trace
};

inline uint64_t NowNs() { return gsls::obs::NowNs(); }

/// A sample's median and percentiles by nearest rank.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Fixed-width histogram for values recorded too often to keep one by one
/// (per-read times): `Record` is one increment, and a percentile
/// interpolates within its bucket. Values past the last bucket clamp into it.
class LinearHistogram {
 public:
  LinearHistogram(double width, size_t buckets)
      : width_(width), counts_(buckets, 0) {}
  void Record(double v);
  void MergeFrom(const LinearHistogram& other);
  double Percentile(double p) const;
  uint64_t count() const { return total_; }

 private:
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// One run's outcome: operation counts, correctness and metrics.
class Report {
 public:
  /// Counts one attempted operation of kind `op`, failed or not.
  void Op(const std::string& op, bool failed) { Ops(op, 1, failed ? 1 : 0); }
  void Ops(const std::string& op, uint64_t attempted, uint64_t failed);
  /// Marks the run incorrect; the first few reasons go to stderr.
  void Wrong(const std::string& why);
  bool correct() const { return wrong_ == 0; }
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints the per-operation counts, then the JSON result as the last
  /// line of standard output.
  void Print() const;

 private:
  struct Count {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Count> ops_;
  uint64_t wrong_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Times one call into a layer. With `samples` given, the duration is
/// appended to it (in ns); while the trace recorder is on, the call is also
/// recorded as a span named `name` (a string literal) with id `id`.
class LayerSpan {
 public:
  LayerSpan(const char* name, uint64_t id, std::vector<double>* samples)
      : name_(name), id_(id), samples_(samples), start_(NowNs()) {}
  ~LayerSpan() { End(); }
  /// Ends the span early; returns its duration in ns.
  uint64_t End();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_;
  std::vector<double>* samples_;
  uint64_t start_;
  uint64_t dur_ = 0;
  bool done_ = false;
};

/// Turns the process-wide trace recorder on or off: on only for the
/// traced rounds of a traced run.
void SetTracing(bool on);
/// Writes the Chrome trace to `<out_dir>/trace_<workload>_<seed>.json`.
void WriteTrace(const Args& args);

}  // namespace e2e

#endif  // E2E_BENCH_REPORT_H_
