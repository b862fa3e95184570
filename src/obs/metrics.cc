#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>

#include "common/check.h"
#include "obs/json.h"

namespace apple::obs {

double steady_clock_seconds() {
  using SteadyClock = std::chrono::steady_clock;
  static const SteadyClock::time_point origin = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - origin).count();
}

bool valid_instrument_name(std::string_view name) {
  if (name.empty()) return false;
  bool has_dot = false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
    if (c == '.') has_dot = true;
  }
  return has_dot && name.front() != '.' && name.back() != '.';
}

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  APPLE_CHECK(!bounds_.empty());
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    APPLE_CHECK(std::isfinite(bounds_[i]));
    if (i > 0) APPLE_CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  // NaN observations are programmer errors (a NaN latency would silently
  // fall into the overflow bucket and poison sum/min/max).
  APPLE_CHECK(!std::isnan(value));
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx =
      static_cast<std::size_t>(std::distance(bounds_.begin(), it));
  ++counts_[idx];  // idx == bounds_.size() is the overflow bucket
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  sum_ += value;
  ++count_;
}

std::uint64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : min_;
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : max_;
}

std::vector<std::uint64_t> Histogram::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

double Histogram::quantile(double q) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return quantile_locked(q);
}

double Histogram::quantile_locked(double q) const {
  APPLE_CHECK_GE(q, 0.0);
  APPLE_CHECK_LE(q, 1.0);
  if (count_ == 0) return 0.0;
  // Target rank in (0, count]; q=0 maps to rank 1 (the smallest sample's
  // bucket) so quantile(0) tracks min.
  const double target =
      std::max(1.0, q * static_cast<double>(count_));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : max_;
      const double fraction =
          (target - prev) / static_cast<double>(counts_[i]);
      const double interpolated =
          lower + fraction * (std::max(upper, lower) - lower);
      return std::clamp(interpolated, min_, max_);
    }
  }
  return max_;  // unreachable when counts are consistent
}

HistogramSnapshot Histogram::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = count_ == 0 ? 0.0 : min_;
  s.max = count_ == 0 ? 0.0 : max_;
  s.p50 = quantile_locked(0.50);
  s.p95 = quantile_locked(0.95);
  s.p99 = quantile_locked(0.99);
  return s;
}

void Histogram::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::vector<double> default_time_buckets_seconds() {
  // 1/2/5 ladder per decade, 1 us .. 100 s.
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1e2 * 1.5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

std::vector<double> default_size_buckets() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade < 1e6 * 1.5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

// --- MetricsRegistry ---------------------------------------------------------

MetricsRegistry::MetricsRegistry() : clock_(&steady_clock_seconds) {}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  APPLE_CHECK(valid_instrument_name(name));
  // try_emplace default-constructs in place: the atomic payload makes the
  // instrument neither movable nor copyable.
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  APPLE_CHECK(valid_instrument_name(name));
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histogram(name, default_time_buckets_seconds());
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  APPLE_CHECK(valid_instrument_name(name));
  // try_emplace constructs the Histogram in place: it owns a mutex and is
  // therefore neither movable nor copyable.
  return histograms_.try_emplace(std::string(name), std::move(bounds))
      .first->second;
}

void MetricsRegistry::set_clock(Clock clock) {
  APPLE_CHECK(clock != nullptr);
  clock_ = std::move(clock);
}

void MetricsRegistry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::string MetricsRegistry::snapshot_json() const {
  json::Writer w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name);
    w.value(c.value());
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name);
    w.value(g.value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h.snapshot();
    w.key(name);
    w.begin_object();
    w.key("count");
    w.value(s.count);
    w.key("sum");
    w.value(s.sum);
    w.key("min");
    w.value(s.min);
    w.key("max");
    w.value(s.max);
    w.key("p50");
    w.value(s.p50);
    w.key("p95");
    w.value(s.p95);
    w.key("p99");
    w.value(s.p99);
    w.key("buckets");
    w.begin_array();
    const auto& bounds = h.upper_bounds();
    const auto& counts = h.counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      // Empty buckets are skipped to keep snapshots compact; cumulative
      // counts can be reconstructed because `le` bounds are explicit.
      if (counts[i] == 0) continue;
      w.begin_object();
      w.key("le");
      if (i < bounds.size()) {
        w.value(bounds[i]);
      } else {
        w.value("+Inf");  // Prometheus-style overflow bucket label
      }
      w.key("count");
      w.value(counts[i]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

bool MetricsRegistry::write_snapshot_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << snapshot_json() << "\n";
  return static_cast<bool>(out);
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  for (const auto& [name, c] : counters_) fn(name, c);
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  for (const auto& [name, g] : gauges_) fn(name, g);
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  for (const auto& [name, h] : histograms_) fn(name, h);
}

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace apple::obs
