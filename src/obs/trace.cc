#include "obs/trace.h"

#include <cstdlib>

namespace apple::obs {

TraceRequest trace_request_from_env(const std::string& default_path) {
  TraceRequest req;
  const char* raw = std::getenv("APPLE_TRACE");
  if (raw == nullptr || raw[0] == '\0') return req;
  const std::string value(raw);
  if (value == "0") return req;
  req.enabled = true;
  const bool looks_like_path =
      value.find('/') != std::string::npos ||
      (value.size() > 5 && value.compare(value.size() - 5, 5, ".json") == 0);
  req.path = looks_like_path ? value : default_path;
  return req;
}

}  // namespace apple::obs
