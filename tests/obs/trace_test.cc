// APPLE_TRACE env parsing: the one outside input obs/trace.h reads.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace apple::obs {
namespace {

class ScopedTraceEnv {
 public:
  explicit ScopedTraceEnv(const char* value) {
    if (value == nullptr) {
      ::unsetenv("APPLE_TRACE");
    } else {
      ::setenv("APPLE_TRACE", value, /*overwrite=*/1);
    }
  }
  ~ScopedTraceEnv() { ::unsetenv("APPLE_TRACE"); }
};

TEST(TraceRequestFromEnv, DisabledWhenUnsetEmptyOrZero) {
  for (const char* value : {static_cast<const char*>(nullptr), "", "0"}) {
    ScopedTraceEnv env(value);
    const TraceRequest req = trace_request_from_env("default.json");
    EXPECT_FALSE(req.enabled);
  }
}

TEST(TraceRequestFromEnv, OneEnablesWithDefaultPath) {
  ScopedTraceEnv env("1");
  const TraceRequest req = trace_request_from_env("quickstart_trace.json");
  EXPECT_TRUE(req.enabled);
  EXPECT_EQ(req.path, "quickstart_trace.json");
}

TEST(TraceRequestFromEnv, PathLikeValuesBecomeThePath) {
  {
    ScopedTraceEnv env("/tmp/out.json");
    const TraceRequest req = trace_request_from_env("default.json");
    EXPECT_TRUE(req.enabled);
    EXPECT_EQ(req.path, "/tmp/out.json");
  }
  {
    ScopedTraceEnv env("mytrace.json");
    const TraceRequest req = trace_request_from_env("default.json");
    EXPECT_TRUE(req.enabled);
    EXPECT_EQ(req.path, "mytrace.json");
  }
}

}  // namespace
}  // namespace apple::obs
