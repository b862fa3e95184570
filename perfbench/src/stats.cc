#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::size_t samples_beyond(std::size_t n, double percentile) {
  // Ranks at or below ceil(n * p / 100) sit at or under the percentile.
  const double at = std::ceil(static_cast<double>(n) * percentile / 100.0 -
                              1e-9);
  const auto below = static_cast<std::size_t>(std::max(0.0, at));
  return below >= n ? 0 : n - below;
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

std::size_t min_samples_for(double percentile, std::size_t min_beyond) {
  std::size_t n = min_beyond;
  while (samples_beyond(n, percentile) < min_beyond) ++n;
  return n;
}

FailureTally isp_drift_failures(std::size_t epochs_attempted,
                                std::size_t epochs_threw) {
  return {epochs_attempted, epochs_threw};
}

std::size_t failed_requests(std::span<const DomainBatchOutcome> domains) {
  std::size_t failed = 0;
  for (const DomainBatchOutcome& d : domains) {
    if (d.dirty && !d.advanced) failed += d.requests;
  }
  return failed;
}

FailureTally policy_stream_failures(std::size_t submitted,
                                    std::size_t refused,
                                    std::size_t failed_in_batches) {
  return {submitted, refused + failed_in_batches};
}

FailureTally replay_lp_failures(std::size_t segments, std::size_t infeasible,
                                std::size_t faults_injected,
                                std::size_t unrepaired) {
  return {segments + faults_injected, infeasible + unrepaired};
}

}  // namespace perfbench
