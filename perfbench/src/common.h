// Shared pieces of the control-loop benchmark: run configuration, the
// per-workload result, the published metric lists, timers, fingerprints and
// the policy-probe sweep every workload gates on.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "dataplane/data_plane.h"
#include "fault/recovery_monitor.h"
#include "stats.h"
#include "traffic/flow_classes.h"
#include "vnf/nf_types.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Metric descriptors. The JSON line carries every kEndToEnd metric when
// untraced and every kPerLayer metric when traced (BENCHMARK.json lists the
// same names and units).
struct MetricSpec {
  const char* name;
  const char* unit;
};

extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

// One human-readable line of a workload's own report.
struct Line {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadResult {
  std::vector<std::string> errors;  // failed correctness gates
  FailureTally failures;
  std::uint64_t fingerprint = 0;
  std::size_t passes = 0;
  std::vector<Line> report;                // the workload's own metrics
  std::map<std::string, double> end_to_end;  // keyed by kEndToEnd names
  std::map<std::string, double> per_layer;   // keyed by kPerLayer names
  std::vector<std::string> notes;

  void fail(std::string message) { errors.push_back(std::move(message)); }
};

WorkloadResult run_isp_drift(const RunConfig& config);
WorkloadResult run_policy_stream(const RunConfig& config);
WorkloadResult run_replay_lp(const RunConfig& config);

// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

inline double seconds_between(SteadyClock::time_point a,
                              SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Timer {
 public:
  Timer() : start_(SteadyClock::now()) {}
  double seconds() const { return seconds_between(start_, SteadyClock::now()); }
  double ms() const { return seconds() * 1e3; }

 private:
  SteadyClock::time_point start_;
};

// Runs `body` and adds its wall time in milliseconds to `sink`.
template <typename Body>
auto timed_ms(double& sink, Body&& body) {
  const Timer t;
  if constexpr (std::is_void_v<decltype(body())>) {
    body();
    sink += t.ms();
  } else {
    auto out = body();
    sink += t.ms();
    return out;
  }
}

// Wall time of `body` in milliseconds.
template <typename Body>
double ms_of(Body&& body) {
  const Timer t;
  body();
  return t.ms();
}

// Order-sensitive FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void add(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ULL; }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Seeds derived per purpose, so workloads never share a random stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose);

// Set-ups timed in pass 0 (one more per later pass); setup_s is their
// median.
inline constexpr std::size_t kSetupReps = 5;

// The loop every workload runs: whole passes of its fixed schedule until
// `seconds` have elapsed, at least `min_steps` timed steps and `min_passes`
// passes exist (capped at `cap_seconds`). `pass` runs pass i and returns the
// steps it timed. Returns the number of passes run.
std::size_t run_passes(double seconds, std::size_t min_steps,
                       double cap_seconds, std::size_t min_passes,
                       const std::function<std::size_t(std::size_t)>& pass);

// A policy probe for one installed class: the header is a pure function of
// (class id, salt), the expected chain the class's policy.
apple::fault::PolicyProbe make_probe(const apple::traffic::TrafficClass& cls,
                                     std::span<const apple::vnf::PolicyChain>
                                         chains,
                                     std::uint64_t salt);

// Walks probes through a data plane. A delivered probe whose NF types
// differ from its expected chain is a policy violation.
struct ProbeSweep {
  std::size_t walks = 0;
  std::size_t violations = 0;
  std::size_t dropped = 0;
  double walk_seconds = 0.0;  // time inside DataPlane::walk only
};
void sweep_probes(const apple::dataplane::DataPlane& dp,
                  std::span<const apple::fault::PolicyProbe> probes,
                  ProbeSweep& sweep);

// Reads one counter of the default obs registry.
std::uint64_t obs_counter(const char* name);

}  // namespace perfbench
