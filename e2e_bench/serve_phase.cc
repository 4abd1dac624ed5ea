// Serving phase: a serving-mode session of the workload's game. A reader
// thread runs closed-loop point reads on pinned snapshots while the
// main thread offers fact deltas open-loop at one fixed rate, well under
// what the writer can take, and times each from when it was due until a
// published epoch covers it. It exercises serve/ (copy-on-write build,
// publish, pin, reclaim) and the solver through the writer's batches,
// with writes beside reads.
//
// Threads: 1 reader + the serving writer + this generator = 3, and the
// solver runs with one thread.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "game_check.h"
#include "obs/metrics.h"
#include "phases.h"
#include "serve/server.h"

namespace e2e {

namespace {

using gsls::Term;
using gsls::serve::ServingSolver;

constexpr uint32_t kReadBlock = 256;     ///< reads per clock pair
constexpr uint32_t kSampleEvery = 16;    ///< blocks per checked read
constexpr size_t kMaxSamples = 1 << 17;  ///< checked reads per reader
/// Pause instructions between two polls of the published sequence number.
constexpr int kPollPauses = 16;
/// `reads_per_s` is the median over windows of this length.
constexpr uint64_t kRateWindowNs = 100'000'000;

struct Sample {
  uint32_t node = 0;
  uint64_t seq = 0;
  gsls::serve::SnapshotAnswer answer;
};

struct ReaderOut {
  LinearHistogram read_ns{0.25, 1 << 14};
  uint64_t reads = 0;
  std::atomic<uint64_t> reads_done{0};  ///< `reads`, for the rate windows
  uint64_t sink = 0;
  std::vector<Sample> samples;
};

void ReaderLoop(ServingSolver* server, const GameSession* game,
                const std::vector<uint32_t>* targets,
                uint64_t seed, const std::atomic<bool>* go,
                const std::atomic<bool>* stop, ReaderOut* out) {
  gsls::serve::EpochStore::ReaderHandle h = server->RegisterReader();
  gsls::Rng rng(seed);
  out->samples.reserve(kMaxSamples);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  size_t pos = 0;
  for (uint64_t block = 0; !stop->load(std::memory_order_relaxed); ++block) {
    const uint32_t pick = static_cast<uint32_t>(rng.Uniform(kReadBlock));
    Sample sample;
    LayerSpan span("serve.ServingSolver::Read x256", block, nullptr);
    const uint64_t t0 = NowNs();
    for (uint32_t k = 0; k < kReadBlock; ++k) {
      const uint32_t node = (*targets)[(pos + k) % targets->size()];
      uint64_t seq = 0;
      const gsls::serve::SnapshotAnswer a =
          server->Read(h, game->win[node], nullptr, &seq);
      out->sink += a.true_stage;
      if (k == pick) sample = {node, seq, a};
    }
    const uint64_t ns = NowNs() - t0;
    span.End();
    pos += kReadBlock;
    out->reads += kReadBlock;
    out->reads_done.store(out->reads, std::memory_order_relaxed);
    out->read_ns.Record(static_cast<double>(ns) / kReadBlock);
    if (block % kSampleEvery == 0 && out->samples.size() < kMaxSamples) {
      out->samples.push_back(sample);
    }
  }
}

/// A spin-wait hint to the core, where the architecture has one.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Records, for every delta a published epoch now covers, the time from
/// when it was due until this poll saw it published.
class VisibilityWatch {
 public:
  /// `base`: the sequence number of the last delta submitted before.
  VisibilityWatch(ServingSolver* server, uint64_t base)
      : server_(server), base_(base), seen_(base) {}
  void Submitted(uint64_t due) { due_.push_back(due); }
  bool AllVisible() const { return seen_ - base_ == due_.size(); }
  void Poll(std::vector<double>* visible_ns) {
    const uint64_t published = server_->published_seq();
    const uint64_t now = NowNs();
    for (; seen_ < published && seen_ - base_ < due_.size(); ++seen_) {
      visible_ns->push_back(static_cast<double>(now - due_[seen_ - base_]));
    }
    for (int i = 0; i < kPollPauses; ++i) CpuRelax();
  }

 private:
  ServingSolver* server_;
  uint64_t base_;
  std::vector<uint64_t> due_;  ///< by sequence number - base - 1
  uint64_t seen_;
};

/// Reads per second of all readers over consecutive windows, sampled by
/// the generator between polls. The metric is the median window, so a
/// short stretch of host preemption moves only the windows it falls in.
class ReadRate {
 public:
  explicit ReadRate(const std::vector<ReaderOut>* readers)
      : readers_(readers) {}
  void Sample(uint64_t now) {
    if (now < next_) return;
    uint64_t total = 0;
    for (const ReaderOut& r : *readers_) {
      total += r.reads_done.load(std::memory_order_relaxed);
    }
    if (last_ != 0) {
      rates_.push_back(static_cast<double>(total - last_total_) * 1e9 /
                       static_cast<double>(now - last_));
    }
    last_ = now;
    last_total_ = total;
    next_ = now + kRateWindowNs;
  }
  const std::vector<double>& rates() const { return rates_; }

 private:
  const std::vector<ReaderOut>* readers_;
  uint64_t next_ = 0, last_ = 0, last_total_ = 0;
  std::vector<double> rates_;
};

struct Delta {
  uint32_t edge = 0;
  uint8_t on = 0;
};

/// One serving session and everything measured on it, across slices.
struct Lane {
  GameSession* game = nullptr;
  gsls::obs::Telemetry* tele = nullptr;  ///< attached to the session, or null
  std::vector<Delta> log;                ///< every delta, by seq - 1
  uint64_t rounds = 0;
  std::vector<double> visible_ns, lag_ns, rates;
  LinearHistogram read_ns{0.25, 1 << 14};
  int64_t epoch_lag_max = 0;
};

/// Replays the delta log in sequence order and checks each sampled read
/// against the oracle of its block after the deltas its epoch reports.
void CheckSamples(const Inputs& in, const std::vector<Delta>& log,
                  std::vector<Sample> samples, Report* rep) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.seq < b.seq; });
  const Graph& g = in.graph;
  std::vector<uint8_t> edge_on(g.edges.size(), 1);
  std::vector<GameSolution> cache(g.regions.size());
  std::vector<uint8_t> stale(g.regions.size(), 1);
  size_t applied = 0;
  for (const Sample& x : samples) {
    if (x.seq > log.size()) {
      rep->Wrong("serving: a read reports seq " + std::to_string(x.seq) +
                 " past the last delta");
      continue;
    }
    for (; applied < x.seq; ++applied) {
      edge_on[log[applied].edge] = log[applied].on;
      stale[in.region_of_node[g.edges[log[applied].edge].first]] = 1;
    }
    const uint32_t b = in.region_of_node[x.node];
    if (stale[b]) {
      const Region& r = g.regions[b];
      std::vector<Edge> active;
      for (uint32_t e = r.first_edge; e < r.first_edge + r.edge_count; ++e) {
        if (edge_on[e]) active.push_back(g.edges[e]);
      }
      cache[b] = SolveGame(r.first_node, r.node_count, active);
      stale[b] = 0;
    }
    CompareWin(x.answer, x.node, cache[b], rep,
               "serving read at seq " + std::to_string(x.seq));
  }
}

/// Whole published model against the oracle on the base program (every
/// round restores it).
void CheckFinal(const Inputs& in, GameSession& game, uint64_t want_seq,
                Report* rep) {
  std::shared_ptr<const gsls::serve::Snapshot> snap =
      game.session->SnapshotNow();
  if (snap->seq() != want_seq) {
    rep->Wrong("serving: final snapshot at seq " +
               std::to_string(snap->seq()) +
               ", want " + std::to_string(want_seq));
  }
  const Graph& g = in.graph;
  GameView view(static_cast<uint32_t>(g.names.size()),
                static_cast<uint32_t>(g.edges.size()));
  for (gsls::AtomId a = 0; a < snap->atom_count(); ++a) {
    view.true_atoms += snap->Value(a) == gsls::TruthValue::kTrue;
  }
  for (uint32_t x = 0; x < g.names.size(); ++x) {
    view.SetWin(x, snap->Query(game.win[x]));
  }
  for (uint32_t e = 0; e < g.edges.size(); ++e) {
    view.move[e] = static_cast<uint8_t>(snap->Query(game.move[e]).value);
  }
  const uint32_t n = static_cast<uint32_t>(g.names.size());
  CompareGame(view, SolveGame(0, n, g.edges), g.edges,
              std::vector<uint8_t>(g.edges.size(), 1), rep,
              "serving final model");
}

/// Runs readers and the open-loop generator on `lane`'s session for
/// `seconds` (whole rounds), then checks the sampled reads and the final
/// model.
void RunSlice(const Inputs& in, const Args& args, uint64_t slice,
              double seconds, Report* rep, Lane* lane) {
  GameSession& game = *lane->game;
  ServingSolver* server = game.session->server();
  std::atomic<bool> go{false}, stop{false};
  std::vector<ReaderOut> readers(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, server, &game, &in.read_targets[r],
                         (args.seed * 31 + slice) * kReaders + r, &go, &stop,
                         &readers[r]);
  }
  gsls::obs::Gauge* epoch_lag =
      lane->tele ? lane->tele->metrics.GetGauge("serve.epoch_lag") : nullptr;
  std::vector<Delta>& log = lane->log;
  const uint64_t period = static_cast<uint64_t>(1e9 / in.deltas_per_second);
  const uint64_t start = NowNs() + 1'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  // Open loop: each delta is submitted when due, whether or not the ones
  // before it are visible yet; between submissions the generator polls for
  // visibility.
  VisibilityWatch watch(server, log.size());
  ReadRate rate(&readers);
  uint64_t k = 0;
  while (NowNs() < end) {
    const std::vector<uint32_t>& plan =
        in.serve_plans[lane->rounds++ % in.serve_plans.size()];
    const uint32_t n = static_cast<uint32_t>(plan.size());
    for (uint32_t i = 0; i < 2 * n; ++i) {
      const bool on = i >= n;
      const uint32_t e = on ? plan[2 * n - 1 - i] : plan[i];
      const uint64_t due = start + k++ * period;
      for (uint64_t now = NowNs(); now < due; now = NowNs()) {
        if (now >= start) rate.Sample(now);
        watch.Poll(&lane->visible_ns);
      }
      const uint64_t submit = NowNs();
      uint64_t seq = 0;
      {
        LayerSpan span("serve.ServingSolver::Submit", log.size(), nullptr);
        const Term* move = game.move[e];
        seq = on ? server->Assert(move) : server->Retract(move);
      }
      watch.Submitted(due);
      lane->lag_ns.push_back(static_cast<double>(submit - due));
      rep->Op("visible_delta", seq != log.size() + 1);
      log.push_back({e, static_cast<uint8_t>(on)});
      if (epoch_lag != nullptr) {
        lane->epoch_lag_max =
            std::max(lane->epoch_lag_max, epoch_lag->value());
      }
    }
  }
  while (!watch.AllVisible()) watch.Poll(&lane->visible_ns);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  uint64_t reads = 0;
  std::vector<Sample> samples;
  for (const ReaderOut& r : readers) {
    reads += r.reads;
    lane->read_ns.MergeFrom(r.read_ns);
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
  }
  rep->Ops("read", reads, 0);
  lane->rates.insert(lane->rates.end(), rate.rates().begin(),
                     rate.rates().end());
  CheckSamples(in, log, std::move(samples), rep);
  CheckFinal(in, game, log.size(), rep);
}

class ServePhase : public Phase {
 public:
  ServePhase(const Inputs& in, GameSession& serving, const Args& args)
      : in_(in), args_(args) {
    plain_.game = &serving;
  }

  /// Opens the traced run's second session, with telemetry attached.
  /// Returns false if it cannot.
  bool OpenTraced() {
    if (!traced_game_.Open(in_, BenchOptions(true, &tele_))) return false;
    tele_.metrics.Reset();
    traced_.game = &traced_game_;
    traced_.tele = &tele_;
    return true;
  }

  void Slice(double seconds, Report* rep) override {
    const bool trace = args_.trace && slices_ % 2 == 1;
    SetTracing(trace);
    RunSlice(in_, args_, slices_++, seconds, rep, trace ? &traced_ : &plain_);
    SetTracing(false);
  }

  Overhead Finish(Report* rep) override {
    if (!args_.trace) {
      rep->Metric("read_ns.p50", plain_.read_ns.Percentile(50), "ns");
      rep->Metric("reads_per_s", Median(plain_.rates), "1/s");
      rep->Metric("visible_us.p50", Percentile(plain_.visible_ns, 50) / 1e3,
                  "us");
      // The p90 is printed but not a metric: it moves with the host's CPU
      // steal from run to run (see README.md).
      std::printf("visible_us.p90 %.1f (not a metric)\n",
                  Percentile(plain_.visible_ns, 90) / 1e3);
      return {};
    }
    gsls::obs::MetricsRegistry& m = tele_.metrics;
    auto p50 = [&](const char* name) {
      return static_cast<double>(m.GetHistogram(name)->Snapshot().p50());
    };
    rep->Metric("serve.publish_us.p50", p50("serve.publish_us"), "us");
    rep->Metric("serve.batch_deltas.p50", p50("serve.batch_deltas"), "count");
    rep->Metric("serve.pages_cloned.p50", p50("serve.pages_cloned"), "count");
    rep->Metric("serve.epoch_lag.max",
                static_cast<double>(traced_.epoch_lag_max), "count");
    rep->Metric("serve.reclaimed_snapshots",
                static_cast<double>(
                    m.GetCounter("serve.reclaimed_snapshots")->value()),
                "count");
    rep->Metric("serve.generator_lag_us.p90",
                Percentile(traced_.lag_ns, 90) / 1e3, "us");
    return {};
  }

 private:
  const Inputs& in_;
  const Args& args_;
  uint64_t slices_ = 0;
  Lane plain_;
  // The traced run's second session; the telemetry outlives it, since its
  // writer publishes into it until the session is destroyed.
  gsls::obs::Telemetry tele_;
  GameSession traced_game_;
  Lane traced_;
};

}  // namespace

std::unique_ptr<Phase> MakeServePhase(const Inputs& in, GameSession& serving,
                                      const Args& args, Report* rep) {
  auto phase = std::make_unique<ServePhase>(in, serving, args);
  if (args.trace && !phase->OpenTraced()) {
    rep->Op("open_traced_session", true);
    return nullptr;
  }
  return phase;
}

}  // namespace e2e
