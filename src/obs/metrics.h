// Metrics registry for the APPLE reproduction.
//
// Every quantity the paper's evaluation reports (solver runtime, failover
// latency, packet loss, TCAM occupancy) flows through named instruments in
// a `MetricsRegistry`:
//
//   Counter   — monotone uint64 with a saturation guard (never wraps).
//   Gauge     — last-written double, plus a high-water helper (`set_max`).
//   Histogram — fixed upper-bound buckets with count/sum/min/max and
//               interpolated p50/p95/p99 readout.
//
// Naming scheme: `module.component.metric`, e.g. `lp.simplex.iterations`
// or `core.failover.switchover_seconds` (see DESIGN.md Sec. 7). Names are
// validated on creation.
//
// Time never comes from an ambient clock: the registry holds an injected
// `Clock` (seconds as double) that spans and timers read. Benches inject a
// steady wall clock (`steady_clock_seconds`); simulation code passes sim
// time explicitly when recording latencies.
//
// Thread-safety: instruments are safe to update from concurrent threads —
// `Counter` and `Gauge` are lock-free atomics (relaxed ordering: totals are
// exact, cross-instrument ordering is not promised), `Histogram` serializes
// observations behind an internal mutex. Every registry's name->instrument
// map is guarded by the registry's own mutex, so the APPLE_OBS_* macros and
// direct lookups may resolve instruments from worker threads (the exec pool
// and the parallel MIP engine do).
//
// Zero-cost switch: the `APPLE_OBS_*` macros in obs/obs.h compile to
// nothing (arguments type-checked, never evaluated) when the tree is built
// with -DAPPLE_ENABLE_METRICS=OFF. Direct registry calls are always live.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace apple::obs {

// Seconds on an injected clock. Sub-microsecond precision is plenty: the
// shortest spans we time are simplex solves.
using Clock = std::function<double()>;

// Monotone seconds from a process-local steady clock (first call is 0).
// This is the wall clock benches inject; nothing in obs/ calls it
// implicitly.
double steady_clock_seconds();

// The instrument naming scheme shared by the registry and the flight
// recorder (obs/event_log.h): lowercase [a-z0-9_.] with at least one dot,
// no leading/trailing dot. Registry/EventLog name creation contracts on it.
bool valid_instrument_name(std::string_view name);

class Counter {
 public:
  // Saturating add: the counter pins at max() instead of wrapping, so a
  // runaway increment can never masquerade as a small value. Lock-free and
  // safe under concurrent adders (relaxed ordering: the total is exact).
  void add(std::uint64_t delta = 1) {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = delta > kMax - cur ? kMax : cur + delta;
    } while (
        !value_.compare_exchange_weak(cur, next, std::memory_order_relaxed));
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  bool saturated() const { return value() == kMax; }
  void reset() { value_.store(0, std::memory_order_relaxed); }

  static constexpr std::uint64_t kMax =
      std::numeric_limits<std::uint64_t>::max();

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  // High-water update: keeps the maximum of all set_max() calls.
  void set_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class Histogram {
 public:
  // `upper_bounds` must be finite, strictly increasing and non-empty; an
  // implicit +inf overflow bucket is appended. A value lands in the first
  // bucket whose upper bound is >= value (`le` semantics, as in
  // Prometheus), so observing exactly a bound counts into that bound's
  // bucket. Observations and readouts serialize behind an internal mutex,
  // so concurrent observers are safe (an observe is multi-field and cannot
  // be lock-free without tearing count/sum/min/max apart).
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  std::uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;

  // Interpolated quantile readout, q in [0, 1]. Within the hit bucket the
  // value is linearly interpolated between the bucket's bounds (the first
  // bucket interpolates up from 0, the overflow bucket up to the observed
  // max); the result is clamped to [min, max]. Empty histograms read 0.
  double quantile(double q) const;

  HistogramSnapshot snapshot() const;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  // counts() has upper_bounds().size() + 1 entries; the last is the
  // overflow bucket. Returns a copy so exporters never read a bucket
  // vector mid-update.
  std::vector<std::uint64_t> counts() const;

  void reset();

 private:
  double quantile_locked(double q) const;  // mu_ must be held

  mutable std::mutex mu_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Default bucket ladders. Times cover 1 us .. 100 s (decade steps with
// 1/2/5 subdivision) — wide enough for a simplex pivot and an OpenStack
// boot alike. Sizes cover 1 .. 1e6.
std::vector<double> default_time_buckets_seconds();
std::vector<double> default_size_buckets();

class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime —
  // instruments are never removed (reset_values() zeroes them in place),
  // which is what lets the APPLE_OBS_* macros cache them in static locals.
  // Names must match [a-z0-9_.] with at least one '.', per the
  // module.component.metric scheme.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Histogram with the default time ladder.
  Histogram& histogram(std::string_view name);
  // Histogram with explicit bounds; bounds are fixed on first creation
  // (later calls with the same name return the existing instrument).
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  // Injected time source for span durations; defaults to
  // steady_clock_seconds. Never sampled except through clock_now().
  void set_clock(Clock clock);
  double clock_now() const { return clock_(); }

  // Zeroes every instrument, keeping the objects (cached references stay
  // valid). Used by tests and between bench repetitions.
  void reset_values();

  // JSON snapshot of every instrument:
  //   {"counters": {name: value, ...},
  //    "gauges": {name: value, ...},
  //    "histograms": {name: {count, sum, min, max, p50, p95, p99,
  //                          buckets: [{"le": bound|"+Inf", count}...]}}}
  std::string snapshot_json() const;
  // Writes snapshot_json() to `path`; returns false on I/O failure.
  bool write_snapshot_json(const std::string& path) const;

  // Visitation (stable name order) for exporters/tests.
  void for_each_counter(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void for_each_gauge(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

 private:
  // std::map: node-based, so instrument references are stable across
  // inserts. Heterogeneous lookup avoids a string copy per cache miss.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  Clock clock_;
  std::mutex mutex_;  // guards the three maps on lookup and reset
};

// Process-wide registry the APPLE_OBS_* macros write to. Benches and
// examples export it; tests may also read module instrumentation here.
MetricsRegistry& default_registry();

// Running min/mean/max accumulator — the helper the bench binaries used to
// re-implement per figure (hoisted here; see bench/bench_common.h).
class RunningStat {
 public:
  void observe(double v) {
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    sum_ += v;
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Elapsed-time helper over an injected clock (replaces ad-hoc
// std::chrono stopwatches in benches).
class Stopwatch {
 public:
  explicit Stopwatch(Clock clock) : clock_(std::move(clock)) {
    start_ = clock_();
  }
  Stopwatch() : Stopwatch(Clock(&steady_clock_seconds)) {}
  void restart() { start_ = clock_(); }
  double elapsed_seconds() const { return clock_() - start_; }

 private:
  Clock clock_;
  double start_ = 0.0;
};

}  // namespace apple::obs
