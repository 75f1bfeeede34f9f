// Serving-plane health: overload detection with hysteresis and a
// stalled-dispatcher watchdog.
//
// The scheduler's third overflow policy (OverflowPolicy::kShed) needs a
// signal for *when* to shed.  Raw queue depth is too twitchy — a linger
// window or one slow batch spikes depth for a millisecond — so the
// OverloadDetector is a small hysteresis state machine over the depth
// fraction (depth / capacity), with an EWMA of observed queue latency on
// the side for deadline-aware admission ("would this request's deadline
// already be blown by the time it reaches a dispatcher?"):
//
//      depth/capacity >= shed_frac ──────────────► kShedding
//      depth/capacity >= overload_frac ──────────► kOverloaded
//      depth/capacity <  recover_frac for
//        recover_samples consecutive samples ────► kOk
//
// Entering kShedding is immediate (overload is an emergency); leaving
// requires a sustained streak below recover_frac (hysteresis), so the
// state doesn't flap at the boundary while the queue drains.
//
// The HealthWatchdog is an optional background thread that periodically
// probes the data plane: each dispatcher exposes a heartbeat counter it
// bumps every loop iteration, and a dispatcher whose heartbeat has not
// moved across `stall_intervals` probes *while work is pending* is
// declared stalled.  (No pending work means dispatchers are legitimately
// parked on the eventcount — not a stall.)
//
// This header is on lint_concurrency.py's lock-free audit list: every
// atomic operation states its memory_order and argues it in an adjacent
// comment.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace spmv::serve {

/// Admission-control state, coarsest first.  kOverloaded is advisory
/// (the queue is filling); kShedding is actionable (kShed submits of
/// priority <= 0 are rejected).
enum class HealthState : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,
  kShedding = 2,
};

[[nodiscard]] const char* to_string(HealthState s) noexcept;

struct OverloadConfig {
  /// depth/capacity at or above this enters kOverloaded.
  double overload_frac = 0.50;
  /// depth/capacity at or above this enters kShedding immediately.
  double shed_frac = 0.75;
  /// depth/capacity strictly below this counts toward recovery.
  double recover_frac = 0.25;
  /// Consecutive below-recover samples required to return to kOk.
  std::uint32_t recover_samples = 4;
  /// EWMA smoothing for queue latency: new = alpha*x + (1-alpha)*old.
  double ewma_alpha = 0.2;
};

/// Lock-free hysteresis detector.  sample() may be called concurrently
/// from every submitter; state/streak live in one packed word updated by
/// CAS so transitions are exact even under contention.
class OverloadDetector {
 public:
  explicit OverloadDetector(OverloadConfig cfg = {}) : cfg_(cfg) {}

  OverloadDetector(const OverloadDetector&) = delete;
  OverloadDetector& operator=(const OverloadDetector&) = delete;

  /// Feed one queue-depth observation; returns the state after it.
  HealthState sample(std::size_t depth, std::size_t capacity);

  /// Feed one observed queue latency (submit -> dispatch) into the EWMA.
  void record_latency(std::chrono::microseconds latency);

  [[nodiscard]] HealthState state() const {
    // relaxed: a momentarily stale state only delays one admission
    // decision by a sample; no data is published through this flag.
    return unpack_state(packed_.load(std::memory_order_relaxed));
  }

  /// Cumulative number of state *changes* (for tests and ServeStats).
  [[nodiscard]] std::uint64_t transitions() const {
    // relaxed: statistics counter, read after quiescing.
    return transitions_.load(std::memory_order_relaxed);
  }

  /// Smoothed queue latency, microseconds (0 until first sample).
  [[nodiscard]] std::uint64_t ewma_latency_us() const {
    // relaxed: advisory estimate; staleness is inherent to an EWMA.
    return ewma_us_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const OverloadConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint64_t kStateMask = 0xff;
  static constexpr unsigned kStreakShift = 8;

  static HealthState unpack_state(std::uint64_t word) {
    return static_cast<HealthState>(word & kStateMask);
  }
  static std::uint64_t pack(HealthState s, std::uint64_t streak) {
    return static_cast<std::uint64_t>(s) | (streak << kStreakShift);
  }

  const OverloadConfig cfg_;
  /// Low 8 bits: HealthState; high bits: consecutive below-recover
  /// sample streak.  One word so state+streak transition atomically.
  std::atomic<std::uint64_t> packed_{0};
  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<std::uint64_t> ewma_us_{0};
};

/// One probe of the data plane, as seen by the watchdog.
struct HealthProbe {
  /// Per-dispatcher loop-iteration counters (monotonic while healthy).
  std::vector<std::uint64_t> heartbeats;
  /// Whether the request ring held work at probe time.  Heartbeat stagnation
  /// with no pending work is a parked dispatcher, not a stalled one.
  bool work_pending = false;
};

/// Background prober: calls `probe` every `interval`, flags dispatchers
/// whose heartbeat is frozen across `stall_intervals` probes while work
/// is pending.  interval == 0 starts no thread — tests drive tick()
/// directly for determinism.
class HealthWatchdog {
 public:
  using ProbeFn = std::function<HealthProbe()>;

  HealthWatchdog(ProbeFn probe, std::chrono::milliseconds interval,
                 std::uint32_t stall_intervals = 3);
  ~HealthWatchdog();

  HealthWatchdog(const HealthWatchdog&) = delete;
  HealthWatchdog& operator=(const HealthWatchdog&) = delete;

  /// Stop the background thread (idempotent; no-op when interval was 0).
  void stop();

  /// Run one probe cycle synchronously (what the thread does each
  /// interval).  Exposed so tests control probe timing exactly.
  void tick() SPMV_EXCLUDES(mutex_);

  /// Dispatchers currently considered stalled.
  [[nodiscard]] std::uint64_t stalled_dispatchers() const {
    // relaxed: statistics gauge; readers tolerate one-probe staleness.
    return stalled_now_.load(std::memory_order_relaxed);
  }

  /// Cumulative healthy->stalled transitions (a flap counts once per
  /// entry).
  [[nodiscard]] std::uint64_t stall_events() const {
    // relaxed: statistics counter, read after quiescing.
    return stall_events_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t probes() const {
    // relaxed: statistics counter.
    return probes_.load(std::memory_order_relaxed);
  }

 private:
  void run() SPMV_EXCLUDES(mutex_);
  void tick_locked() SPMV_REQUIRES(mutex_);

  const ProbeFn probe_;
  const std::chrono::milliseconds interval_;
  const std::uint32_t stall_intervals_;

  mutable Mutex mutex_;
  CondVar cv_;
  bool stopping_ SPMV_GUARDED_BY(mutex_) = false;
  /// Per-dispatcher [last heartbeat, frozen-probe streak, stalled flag];
  /// tick() is serialized under mutex_ so plain fields suffice.
  struct Track {
    std::uint64_t last_beat = 0;
    std::uint32_t frozen = 0;
    bool stalled = false;
  };
  std::vector<Track> tracks_ SPMV_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> stalled_now_{0};
  std::atomic<std::uint64_t> stall_events_{0};
  std::atomic<std::uint64_t> probes_{0};

  std::thread thread_;  ///< joined by stop(); empty when interval was 0
};

}  // namespace spmv::serve
