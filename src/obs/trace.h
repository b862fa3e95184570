// APPLE_TRACE request parsing for the examples. The flight recorder
// (obs/event_log.h) is the only trace sink: a traced run writes its journal
// with `default_event_log().write_json(path)`, and `apple_trace --chrome`
// turns journals into Chrome trace-event files.
#pragma once

#include <string>

namespace apple::obs {

// Reads the APPLE_TRACE environment variable: unset/""/"0" disable
// tracing; "1" (or any other value) enables it with the default path
// `<program>_trace.json`; a value containing '/' or ending in ".json" is
// used as the output path itself.
struct TraceRequest {
  bool enabled = false;
  std::string path;
};
TraceRequest trace_request_from_env(const std::string& default_path);

}  // namespace apple::obs
