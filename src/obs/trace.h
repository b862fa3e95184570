// Scoped tracing with Chrome trace-event export.
//
// `TraceSpan` is the instrumentation primitive: an RAII scope that reads
// its start/end from the owning registry's injected clock, records the
// elapsed time into a histogram, and — when a `TraceSink` is attached to
// the registry — also emits a complete ("ph":"X") Chrome trace event. The
// resulting file loads directly into chrome://tracing / Perfetto.
//
// Timestamps are never taken from an ambient clock: everything flows from
// the registry clock. Simulation code that
// wants spans on the sim timeline injects the sim clock into its registry
// (or records into the sink directly via record()).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace apple::obs {

struct TraceEvent {
  std::string name;      // e.g. "core.engine.place"
  std::string category;  // coarse grouping; defaults to the module prefix
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

// Collects spans and serializes them as a Chrome trace-event JSON object
// ({"traceEvents": [...]}). record() serializes behind an internal mutex
// so spans ending on exec-pool workers are safe; events() returns a copy
// for the same reason.
class TraceSink {
 public:
  void record(TraceEvent event) {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(event));
  }
  std::vector<TraceEvent> events() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

  // Chrome trace-event format: complete events, microsecond timestamps.
  std::string chrome_trace_json() const;
  bool write_chrome_trace_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

// RAII span bound to a registry: on destruction records elapsed clock time
// into `registry.histogram(name)` and, if a sink is attached, a trace
// event. `name` must outlive the span (string literals do).
class TraceSpan {
 public:
  TraceSpan(MetricsRegistry& registry, const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  MetricsRegistry* registry_;
  const char* name_;
  double start_;
};

// Reads the APPLE_TRACE environment variable: unset/""/"0" disable
// tracing; "1" (or any other value) enables it with the default path
// `<program>_trace.json`; a value containing '/' or ending in ".json" is
// used as the output path itself. Shared by examples and benches.
struct TraceRequest {
  bool enabled = false;
  std::string path;
};
TraceRequest trace_request_from_env(const std::string& default_path);

}  // namespace apple::obs
