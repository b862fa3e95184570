// TraceSpan semantics against an injected clock, Chrome
// trace-event serialization round-trip, and APPLE_TRACE env parsing.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace apple::obs {
namespace {

TEST(TraceSpan, RecordsElapsedClockTimeIntoHistogram) {
  MetricsRegistry reg;
  double t = 5.0;
  reg.set_clock([&t] { return t; });
  {
    TraceSpan span(reg, "mod.comp.op_seconds");
    t = 5.75;
  }
  Histogram& h = reg.histogram("mod.comp.op_seconds");
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.75);
}

TEST(TraceSpan, EmitsTraceEventWhenSinkAttached) {
  MetricsRegistry reg;
  double t = 2.0;
  reg.set_clock([&t] { return t; });
  TraceSink sink;
  reg.set_trace_sink(&sink);
  {
    TraceSpan span(reg, "core.engine.place_seconds");
    t = 2.5;
  }
  reg.set_trace_sink(nullptr);
  {
    TraceSpan span(reg, "core.engine.unsinked_seconds");  // no sink: no event
    t = 3.0;
  }
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& ev = events[0];
  EXPECT_EQ(ev.name, "core.engine.place_seconds");
  EXPECT_DOUBLE_EQ(ev.start_seconds, 2.0);
  EXPECT_DOUBLE_EQ(ev.duration_seconds, 0.5);
  // Both spans still landed in histograms.
  EXPECT_EQ(reg.histogram("core.engine.unsinked_seconds").count(), 1u);
}

TEST(TraceSink, ChromeTraceJsonRoundTrips) {
  TraceSink sink;
  sink.record({"lp.simplex.solve", "", 1.0, 0.25});
  sink.record({"custom", "mycat", 2.0, 0.5});
  sink.record({"nodots", "", 3.0, 0.125});

  const auto doc = json::parse(sink.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const json::Value* unit = doc->find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");

  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items.size(), 3u);

  const json::Value& first = events->items[0];
  EXPECT_EQ(first.find("name")->string, "lp.simplex.solve");
  EXPECT_EQ(first.find("cat")->string, "lp");  // default: module prefix
  EXPECT_EQ(first.find("ph")->string, "X");
  EXPECT_DOUBLE_EQ(first.find("ts")->number, 1e6);  // seconds -> us
  EXPECT_DOUBLE_EQ(first.find("dur")->number, 0.25e6);
  EXPECT_DOUBLE_EQ(first.find("pid")->number, 1.0);
  EXPECT_DOUBLE_EQ(first.find("tid")->number, 1.0);

  EXPECT_EQ(events->items[1].find("cat")->string, "mycat");  // explicit wins
  EXPECT_EQ(events->items[2].find("cat")->string, "app");    // dotless
}

TEST(TraceSink, ClearDropsEvents) {
  TraceSink sink;
  sink.record({"a.b", "", 0.0, 1.0});
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, EmptySinkExportsAValidEmptyTrace) {
  // An untouched sink must still serialize to a loadable document — CI
  // uploads whatever the run produced, including "nothing happened".
  const TraceSink sink;
  const auto doc = json::parse(sink.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_TRUE(events->items.empty());
  const json::Value* unit = doc->find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
}

TEST(TraceSink, RetainsSpansNestedFarDeeperThanAnyBuffer) {
  // The sink is unbounded by design (the bounded structure is the flight
  // recorder's ring); 1000-deep recursion must keep every span, ordered by
  // completion (innermost first, since TraceSpan records on destruction).
  MetricsRegistry reg;
  double t = 0.0;
  reg.set_clock([&t] { return t += 0.001; });
  TraceSink sink;
  reg.set_trace_sink(&sink);
  constexpr int kDepth = 1000;
  const std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) return;
    TraceSpan span(reg, "obs.test.nested_seconds");
    recurse(depth - 1);
  };
  recurse(kDepth);
  reg.set_trace_sink(nullptr);

  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kDepth));
  // Completion order: every later event is an enclosing span, so starts
  // decrease and durations increase strictly.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i].start_seconds, events[i - 1].start_seconds);
    EXPECT_GT(events[i].duration_seconds, events[i - 1].duration_seconds);
  }
  EXPECT_EQ(reg.histogram("obs.test.nested_seconds").count(),
            static_cast<std::uint64_t>(kDepth));
}

TEST(TraceSink, ConcurrentSpansFromPoolWorkersAllLand) {
  // tsan workload: spans closing simultaneously on exec-pool workers while
  // the owning thread polls events(). record() serializes behind the
  // sink's mutex, so every span must land exactly once.
  MetricsRegistry reg;
  reg.set_clock([] { return 1.0; });
  TraceSink sink;
  reg.set_trace_sink(&sink);
  exec::ThreadPool pool(4);
  exec::TaskGroup group(pool);
  constexpr int kTasks = 64;
  constexpr int kSpansPerTask = 25;
  for (int i = 0; i < kTasks; ++i) {
    group.run([&reg] {
      for (int n = 0; n < kSpansPerTask; ++n) {
        TraceSpan span(reg, "obs.test.pool_span_seconds");
      }
    });
  }
  (void)sink.events();  // racing snapshot while workers record
  group.wait();
  reg.set_trace_sink(nullptr);

  EXPECT_EQ(sink.events().size(),
            static_cast<std::size_t>(kTasks * kSpansPerTask));
  EXPECT_EQ(reg.histogram("obs.test.pool_span_seconds").count(),
            static_cast<std::uint64_t>(kTasks * kSpansPerTask));
}

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
