// Control-loop benchmark entry point.
//
//   perfbench --workload isp-drift|policy-stream|replay-lp --seed N
//             --seconds S --trace 0|1
//
// Prints the workload's own metrics, its output fingerprint and (traced)
// the per-layer table, then one JSON line with the published metrics.
// Exits 1 when a correctness gate failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.h"

namespace {

using perfbench::MetricSpec;
using perfbench::RunConfig;
using perfbench::WorkloadResult;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "isp-drift|policy-stream|replay-lp --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, RunConfig& config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !std::isfinite(config.seconds) || config.seconds <= 0.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      config.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

// Appends `"name": {"value": v, "unit": "u"}` for every spec; a layer the
// workload bypasses reads 0.
void append_metrics(std::string& json,
                    const std::vector<MetricSpec>& specs,
                    const std::map<std::string, double>& values,
                    bool require_all, WorkloadResult& result) {
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() && require_all) {
      result.fail(std::string("metric ") + spec.name + " was not measured");
    }
    const double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      result.fail(std::string("metric ") + spec.name + " is not finite");
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, std::isfinite(v) ? v : 0.0,
                  spec.unit);
    json += buf;
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!parse(argc, argv, config)) return usage("bad arguments");

  WorkloadResult result;
  try {
    if (config.workload == "isp-drift") {
      result = perfbench::run_isp_drift(config);
    } else if (config.workload == "policy-stream") {
      result = perfbench::run_policy_stream(config);
    } else if (config.workload == "replay-lp") {
      result = perfbench::run_replay_lp(config);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }

  std::printf("=== perfbench %s  seed=%llu  seconds=%g  trace=%d ===\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("passes: %zu\n\n%-26s %18s  %s\n", result.passes, "metric",
              "value", "unit");
  for (const perfbench::Line& line : result.report) {
    std::printf("%-26s %18.6f  %s\n", line.name.c_str(), line.value,
                line.unit.c_str());
  }
  std::printf("%-26s   %016llx\n", "fingerprint",
              static_cast<unsigned long long>(result.fingerprint));
  if (config.trace) {
    std::printf("\n%-34s %14s  %s\n", "per-layer", "value", "unit");
    for (const MetricSpec& spec : perfbench::kPerLayer) {
      const auto it = result.per_layer.find(spec.name);
      std::printf("%-34s %14.6f  %s%s\n", spec.name,
                  it == result.per_layer.end() ? 0.0 : it->second, spec.unit,
                  it == result.per_layer.end() ? "  (bypassed)" : "");
    }
  }
  for (const std::string& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }

  std::string metrics;
  if (config.trace) {
    append_metrics(metrics, perfbench::kPerLayer, result.per_layer, false,
                   result);
  } else {
    append_metrics(metrics, perfbench::kEndToEnd, result.end_to_end, true,
                   result);
  }
  if (result.failures.attempted == 0) result.fail("no operation attempted");
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  const bool correct = result.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.failures.attempted),
              static_cast<unsigned long long>(result.failures.failed),
              metrics.c_str());
  return correct ? 0 : 1;
}
