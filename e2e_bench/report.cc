#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

void LinearHistogram::Record(double v) {
  const double b = v / width_;
  const size_t i = b <= 0 ? 0 : static_cast<size_t>(b);
  ++counts_[std::min(i, counts_.size() - 1)];
  ++total_;
}

void LinearHistogram::MergeFrom(const LinearHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LinearHistogram::Percentile(double p) const {
  if (total_ == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(total_);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(seen + counts_[i]) >= rank) {
      const double within = (rank - static_cast<double>(seen)) / counts_[i];
      return (static_cast<double>(i) + within) * width_;
    }
    seen += counts_[i];
  }
  return static_cast<double>(counts_.size()) * width_;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Ops(const std::string& op, uint64_t attempted, uint64_t failed) {
  Count& c = ops_[op];
  c.attempted += attempted;
  c.failed += failed;
}

void Report::Wrong(const std::string& why) {
  if (++wrong_ <= 10) std::fprintf(stderr, "WRONG: %s\n", why.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print() const {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [op, c] : ops_) {
    std::printf("op %-16s attempted %8llu failed %8llu\n", op.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  if (wrong_ > 0) {
    std::printf("wrong answers: %llu\n",
                static_cast<unsigned long long>(wrong_));
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics_[i].second.first);
    json += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

uint64_t LayerSpan::End() {
  if (done_) return dur_;
  done_ = true;
  dur_ = NowNs() - start_;
  if (samples_ != nullptr) samples_->push_back(static_cast<double>(dur_));
  gsls::obs::TraceRecorder& rec = gsls::obs::TraceRecorder::Global();
  if (rec.enabled()) rec.RecordSpan(name_, id_, start_, dur_);
  return dur_;
}

void SetTracing(bool on) {
  gsls::obs::TraceRecorder& rec = gsls::obs::TraceRecorder::Global();
  if (on && !rec.enabled()) rec.Enable();
  if (!on && rec.enabled()) rec.Disable();
}

void WriteTrace(const Args& args) {
  gsls::obs::TraceRecorder& rec = gsls::obs::TraceRecorder::Global();
  rec.Disable();
  const std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                           std::to_string(args.seed) + ".json";
  if (rec.WriteChromeTraceFile(path)) {
    std::printf("chrome trace: %s (%zu events)\n", path.c_str(),
                rec.event_count());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

}  // namespace e2e
