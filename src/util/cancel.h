#ifndef GSLS_UTIL_CANCEL_H_
#define GSLS_UTIL_CANCEL_H_

#include <atomic>
#include <cstdint>

namespace gsls {

/// How a solve pass ended. Every solve entry point (`SolveWfs`,
/// `IncrementalSolver::Model`/`QueryAtom`, the parallel scheduler) reports
/// one of these; anything other than `kCompleted` means the pass stopped
/// at a checkpoint and the results are partial — components already
/// finalized are exact (anytime semantics), un-finalized components keep
/// their previous values and are queued for the next pass (the
/// crash-consistent abort protocol of solver/incremental.h).
enum class SolveOutcome : uint8_t {
  kCompleted = 0,
  kCancelled = 1,          ///< a `CancelToken` fired (or a fault injected)
  kDeadlineExceeded = 2,   ///< wall-clock deadline or step budget exhausted
};

const char* SolveOutcomeName(SolveOutcome o);

/// Thread-safe cooperative cancellation flag, shared between the thread
/// driving a solve and any thread that wants to stop it. `Cancel` may be
/// called at any time from any thread; the solve observes it at its next
/// checkpoint (component boundary or every-N-iterations inside the long
/// loops). Relaxed atomics throughout: cancellation needs no ordering with
/// solver state — the abort path re-establishes its invariants itself.
///
/// A token outlives the pass it cancels: it stays cancelled until `Reset`,
/// so every later solve entry aborts immediately too. That is what makes
/// abort recovery testable — resume is an explicit `Reset` + re-solve, not
/// an accidental retry.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Monotonic steady-clock timestamp in nanoseconds — the time base of
/// `SolverOptions::deadline_ns` (absolute, so one deadline spans several
/// passes without re-arithmetic at every entry point).
uint64_t SteadyNowNs();

/// `SteadyNowNs() + relative_ns`, the usual way callers build a deadline.
inline uint64_t DeadlineAfterNs(uint64_t relative_ns) {
  return SteadyNowNs() + relative_ns;
}

/// Deterministic fault injection over the solver's cancellation
/// checkpoints: every checkpoint increments a global counter, and when the
/// injector is armed to trip at checkpoint `k`, the k-th checkpoint
/// behaves exactly like an external `Cancel` at that instant. Driving `k`
/// over `1..N` (with `N` learned from an unarmed counting run) aborts a
/// scenario at *every* checkpoint it has — the exhaustive abort-recovery
/// test in tests/fault_test.cc.
///
/// The total checkpoint count of a completed scenario is deterministic at
/// any thread count (checkpoints are per component and per fixed-stride
/// loop iteration, both schedule-independent), so the same `N` is
/// exhaustive for sequential and parallel runs alike. Counting is a
/// relaxed `fetch_add`; which worker hits the tripping checkpoint may vary
/// between threaded runs, but that any single checkpoint trips — and that
/// recovery from it is sound — is exactly what the test quantifies over.
class FaultInjector {
 public:
  /// Arms the injector to trip at checkpoint `trip_at` (1-based) and
  /// resets the counter. `trip_at == 0` counts without tripping — the
  /// learning run.
  void Arm(uint64_t trip_at) {
    trip_at_ = trip_at;
    counter_.store(0, std::memory_order_relaxed);
    tripped_.store(false, std::memory_order_relaxed);
  }

  /// Stops future trips without touching the counter (the resume phase of
  /// the fault test: the scenario continues past the already-tripped
  /// checkpoint).
  void Disarm() { trip_at_ = 0; }

  /// Counts one checkpoint; true iff this one is the armed trip point.
  bool OnCheckpoint() {
    uint64_t n = counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (trip_at_ != 0 && n == trip_at_) {
      tripped_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint64_t checkpoints() const {
    return counter_.load(std::memory_order_relaxed);
  }
  bool tripped() const { return tripped_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> counter_{0};
  std::atomic<bool> tripped_{false};
  uint64_t trip_at_ = 0;  ///< 0 = count only; written only while idle
};

/// The per-solver checkpoint context: one object bundling the token, the
/// deadline, the step budget, and the fault injector, polled by every
/// checkpoint in the solve pipeline. A null `CancelCtx*` is the detached
/// fast path — call sites guard on the pointer, so a solver constructed
/// without any cancellation option pays nothing at all (the bench-gated
/// contract).
///
/// The outcome is *latched*: the first checkpoint that observes a stop
/// condition decides the pass outcome, and every later `Checkpoint` /
/// `aborted` call short-circuits on one relaxed load — cheap enough that
/// parallel workers poll it per component with no coordination. A new pass
/// calls `BeginPass` to re-arm (clearing the latch and the step counter);
/// a still-cancelled token simply re-latches at the first checkpoint, so
/// cancellation persists across passes until the token is `Reset`.
class CancelCtx {
 public:
  CancelCtx() = default;
  CancelCtx(CancelToken* token, uint64_t deadline_ns, uint64_t step_budget,
            FaultInjector* fault)
      : token_(token), fault_(fault), deadline_ns_(deadline_ns),
        step_budget_(step_budget) {}

  /// True iff any stop condition is configured — callers pass a null ctx
  /// downward otherwise, keeping the detached path free.
  bool active() const {
    return token_ != nullptr || fault_ != nullptr || deadline_ns_ != 0 ||
           step_budget_ != 0;
  }

  CancelToken* token() const { return token_; }
  void set_token(CancelToken* token) { token_ = token; }
  void set_deadline_ns(uint64_t ns) { deadline_ns_ = ns; }
  void set_step_budget(uint64_t n) { step_budget_ = n; }
  void set_fault(FaultInjector* fault) { fault_ = fault; }

  /// Re-arms for a new solve pass: clears the latched outcome and the
  /// step counter. Conditions that still hold (a cancelled token, an
  /// expired deadline) re-latch at the first checkpoint of the new pass.
  void BeginPass() {
    outcome_.store(static_cast<uint8_t>(SolveOutcome::kCompleted),
                   std::memory_order_relaxed);
    steps_.store(0, std::memory_order_relaxed);
  }

  /// One cancellation checkpoint: polls fault injection, the token, the
  /// step budget, and the deadline, in that order, latching the first
  /// outcome observed. Returns true iff the pass is (now) aborted. Called
  /// at every component boundary and every fixed stride inside the long
  /// loops; after the latch it degenerates to the single load of
  /// `aborted`.
  bool Checkpoint() {
    if (aborted()) return true;
    if (fault_ != nullptr && fault_->OnCheckpoint()) {
      // An injected fault is an external Cancel at this exact checkpoint:
      // it must persist across pass boundaries the same way, so it fires
      // through the token when one is attached.
      if (token_ != nullptr) token_->Cancel();
      Latch(SolveOutcome::kCancelled);
      return true;
    }
    if (token_ != nullptr && token_->IsCancelled()) {
      Latch(SolveOutcome::kCancelled);
      return true;
    }
    uint64_t steps = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (step_budget_ != 0 && steps > step_budget_) {
      Latch(SolveOutcome::kDeadlineExceeded);
      return true;
    }
    if (deadline_ns_ != 0 && SteadyNowNs() >= deadline_ns_) {
      Latch(SolveOutcome::kDeadlineExceeded);
      return true;
    }
    return false;
  }

  /// Reads the token and the deadline only: nothing is latched, no step
  /// is counted and the fault injector is not consulted. The cancel point
  /// of work outside a solve pass (grounding), which the step budget and
  /// the fault injector's checkpoint numbering do not cover.
  SolveOutcome Poll() const {
    if (token_ != nullptr && token_->IsCancelled()) {
      return SolveOutcome::kCancelled;
    }
    if (deadline_ns_ != 0 && SteadyNowNs() >= deadline_ns_) {
      return SolveOutcome::kDeadlineExceeded;
    }
    return SolveOutcome::kCompleted;
  }

  /// One relaxed load; true iff some checkpoint latched a stop outcome
  /// this pass.
  bool aborted() const {
    return outcome_.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(SolveOutcome::kCompleted);
  }

  SolveOutcome outcome() const {
    return static_cast<SolveOutcome>(
        outcome_.load(std::memory_order_relaxed));
  }

  /// Checkpoints consumed this pass (the step-budget counter) — the
  /// `cancel.checkpoints` telemetry source.
  uint64_t steps() const { return steps_.load(std::memory_order_relaxed); }

 private:
  void Latch(SolveOutcome o) {
    uint8_t expected = static_cast<uint8_t>(SolveOutcome::kCompleted);
    // First latch wins; concurrent workers hitting different conditions
    // in the same instant keep one coherent outcome.
    outcome_.compare_exchange_strong(expected, static_cast<uint8_t>(o),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed);
  }

  CancelToken* token_ = nullptr;
  FaultInjector* fault_ = nullptr;
  uint64_t deadline_ns_ = 0;  ///< absolute `SteadyNowNs`; 0 = none
  uint64_t step_budget_ = 0;  ///< max checkpoints per pass; 0 = unlimited
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint8_t> outcome_{
      static_cast<uint8_t>(SolveOutcome::kCompleted)};
};

/// The in-loop checkpoint stride: long solver loops (lfp propagation,
/// unfounded floods, recondensation windows) poll the ctx every this many
/// iterations, bounding abort latency to one stride of constant-cost steps
/// while keeping the common case at one predictable-branch decrement.
inline constexpr uint32_t kCancelStride = 256;

/// Strided checkpoint helper for the inner loops: counts down locally and
/// runs a full `Checkpoint` every `kCancelStride` calls. Null ctx is the
/// free detached path. Returns true iff the pass is aborted.
class StridedCheckpoint {
 public:
  explicit StridedCheckpoint(CancelCtx* ctx) : ctx_(ctx) {}

  bool Tick() {
    if (ctx_ == nullptr || --countdown_ != 0) return false;
    countdown_ = kCancelStride;
    return ctx_->Checkpoint();
  }

 private:
  CancelCtx* ctx_;
  uint32_t countdown_ = kCancelStride;
};

}  // namespace gsls

#endif  // GSLS_UTIL_CANCEL_H_
