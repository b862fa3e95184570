// Sample statistics and failure accounting shared by the three workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

// Linear-interpolation quantile (numpy's default), q in [0, 1]. 0 for an
// empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(std::span<const double> samples);

// Tail percentile: the highest percentile of the ladder {50, 75, 90, 95,
// 99, 99.9} that still has at least `min_beyond` samples above it. The
// published metric name fixes it at p90, and a run keeps measuring until
// that percentile is supported.
inline constexpr double kTailPercentile = 90.0;
inline constexpr std::size_t kMinBeyond = 10;

// Samples ranked strictly above the `percentile` position in a sample of n.
std::size_t samples_beyond(std::size_t n, double percentile);
// Highest ladder percentile with >= min_beyond samples beyond it; 0 when
// even the median is unsupported.
double tail_percentile(std::size_t n, std::size_t min_beyond = kMinBeyond);
// Smallest sample count for which `percentile` has min_beyond samples above.
std::size_t min_samples_for(double percentile,
                            std::size_t min_beyond = kMinBeyond);

// Operations attempted and failed, counted from outside the program.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  double ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// isp-drift: an epoch fails when advance() or run() threw; a full-recompute
// fallback inside advance() is a retry, not a failure.
FailureTally isp_drift_failures(std::size_t epochs_attempted,
                                std::size_t epochs_threw);

// policy-stream: one domain's share of one applied batch.
struct DomainBatchOutcome {
  std::size_t requests = 0;  // requests routed to the domain in the batch
  bool dirty = false;        // the batch changes the domain's class set
  bool advanced = false;     // domain_status(d).epochs moved during apply
};

// Requests of dirty domains whose epoch did not advance (bounced or failed
// re-solve).
std::size_t failed_requests(std::span<const DomainBatchOutcome> domains);

// policy-stream: (refused by submit + failed_requests) / submitted.
FailureTally policy_stream_failures(std::size_t submitted,
                                    std::size_t refused,
                                    std::size_t failed_in_batches);

// replay-lp: (infeasible optimizations + unrepaired faults) /
// (segments + faults injected).
FailureTally replay_lp_failures(std::size_t segments, std::size_t infeasible,
                                std::size_t faults_injected,
                                std::size_t unrepaired);

}  // namespace perfbench
