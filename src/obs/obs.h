// Instrumentation macros — the only obs API hot paths should use.
//
// All macros write to `obs::default_registry()` and cache the instrument
// reference in a function-local static, so the steady-state cost of a
// counter bump is one branch plus one add (no name lookup). `name` must
// therefore be a compile-time string constant: the instrument is resolved
// once per call site.
//
//   APPLE_OBS_COUNT(name)               — counter += 1
//   APPLE_OBS_COUNT_N(name, n)          — counter += n (saturating)
//   APPLE_OBS_GAUGE_SET(name, v)        — gauge = v
//   APPLE_OBS_GAUGE_MAX(name, v)        — gauge = max(gauge, v)  (high-water)
//   APPLE_OBS_OBSERVE(name, v)          — histogram.observe(v), default
//                                         time buckets
//
// Flight-recorder events (obs/event_log.h) write to
// `obs::default_event_log()` and cache the interned EventId the same way:
//
//   APPLE_OBS_EVENT(name)               — instant event, arg 0
//   APPLE_OBS_EVENT_N(name, a)          — instant event carrying one
//                                         integer payload word
//   APPLE_OBS_EVENT_EPOCH()             — RAII causal-epoch scope: events
//                                         below it carry a fresh epoch id
//
// Spans feed both sinks from one scope:
//
//   APPLE_OBS_SPAN(name)                — RAII obs::Span for the rest of
//                                         the scope: a begin/end event
//                                         pair named `name` nested via the
//                                         thread's causal context (while
//                                         the log is enabled), and the
//                                         elapsed registry-clock time into
//                                         histogram `name + "_seconds"`
//                                         (always)
//
// When the tree is configured with -DAPPLE_ENABLE_METRICS=OFF the macros
// compile to nothing: arguments are type-checked but evaluated zero times
// (the canary test in tests/obs/disabled_canary_test.cc holds this), so
// instrumented hot paths carry no overhead in perf builds.
#pragma once

#include <string>

#include "obs/event_log.h"
#include "obs/metrics.h"

#define APPLE_OBS_CONCAT_INNER(a, b) a##b
#define APPLE_OBS_CONCAT(a, b) APPLE_OBS_CONCAT_INNER(a, b)

#if defined(APPLE_ENABLE_METRICS) && APPLE_ENABLE_METRICS

#define APPLE_OBS_COUNT_N(name, n)                                     \
  do {                                                                 \
    static ::apple::obs::Counter& apple_obs_counter_ =                 \
        ::apple::obs::default_registry().counter(name);                \
    apple_obs_counter_.add(static_cast<std::uint64_t>(n));             \
  } while (false)

#define APPLE_OBS_COUNT(name) APPLE_OBS_COUNT_N(name, 1)

#define APPLE_OBS_GAUGE_SET(name, v)                                   \
  do {                                                                 \
    static ::apple::obs::Gauge& apple_obs_gauge_ =                     \
        ::apple::obs::default_registry().gauge(name);                  \
    apple_obs_gauge_.set(static_cast<double>(v));                      \
  } while (false)

#define APPLE_OBS_GAUGE_MAX(name, v)                                   \
  do {                                                                 \
    static ::apple::obs::Gauge& apple_obs_gauge_ =                     \
        ::apple::obs::default_registry().gauge(name);                  \
    apple_obs_gauge_.set_max(static_cast<double>(v));                  \
  } while (false)

#define APPLE_OBS_OBSERVE(name, v)                                     \
  do {                                                                 \
    static ::apple::obs::Histogram& apple_obs_hist_ =                  \
        ::apple::obs::default_registry().histogram(name);              \
    apple_obs_hist_.observe(static_cast<double>(v));                   \
  } while (false)

#define APPLE_OBS_OBSERVE_SIZE(name, v)                                \
  do {                                                                 \
    static ::apple::obs::Histogram& apple_obs_hist_ =                  \
        ::apple::obs::default_registry().histogram(                    \
            name, ::apple::obs::default_size_buckets());               \
    apple_obs_hist_.observe(static_cast<double>(v));                   \
  } while (false)

#define APPLE_OBS_EVENT_N(name, a)                                     \
  do {                                                                 \
    static const ::apple::obs::EventId apple_obs_event_id_ =           \
        ::apple::obs::default_event_log().intern(name);                \
    ::apple::obs::default_event_log().record(                          \
        apple_obs_event_id_, ::apple::obs::EventPhase::kInstant,       \
        static_cast<std::uint64_t>(a));                                \
  } while (false)

#define APPLE_OBS_EVENT(name) APPLE_OBS_EVENT_N(name, 0)

// Expands to three declarations (cached histogram, cached id, RAII span),
// so it is a statement for the rest of the enclosing block.
#define APPLE_OBS_SPAN(name)                                              \
  static ::apple::obs::Histogram& APPLE_OBS_CONCAT(apple_obs_span_hist_,  \
                                                   __LINE__) =            \
      ::apple::obs::default_registry().histogram(std::string(name) +      \
                                                 "_seconds");             \
  static const ::apple::obs::EventId APPLE_OBS_CONCAT(apple_obs_span_id_, \
                                                      __LINE__) =         \
      ::apple::obs::default_event_log().intern(name);                     \
  const ::apple::obs::Span APPLE_OBS_CONCAT(apple_obs_span_, __LINE__)(   \
      ::apple::obs::default_registry(),                                   \
      APPLE_OBS_CONCAT(apple_obs_span_hist_, __LINE__),                   \
      ::apple::obs::default_event_log(),                                  \
      APPLE_OBS_CONCAT(apple_obs_span_id_, __LINE__))

#define APPLE_OBS_EVENT_EPOCH()                                         \
  const ::apple::obs::EpochScope APPLE_OBS_CONCAT(apple_obs_epoch_,     \
                                                  __LINE__)(            \
      ::apple::obs::default_event_log())

#else  // APPLE_ENABLE_METRICS off: type-check, never evaluate.

// The arguments are folded into the body of a lambda that is never
// invoked, inside an `if (false)` that is never taken: they must still
// compile (names stay greppable, expressions stay type-correct) but can
// never execute — the disabled-side canary test proves side effects do
// not fire. Each argument is discarded through its own static_cast so
// the expansion stays warning-clean under -Wunused-value.
#define APPLE_OBS_UNEVALUATED_1(a)                                     \
  do {                                                                 \
    if (false) {                                                       \
      static_cast<void>([&]() { static_cast<void>(a); });              \
    }                                                                  \
  } while (false)

#define APPLE_OBS_UNEVALUATED_2(a, b)                                  \
  do {                                                                 \
    if (false) {                                                       \
      static_cast<void>([&]() {                                        \
        static_cast<void>(a);                                          \
        static_cast<void>(b);                                          \
      });                                                              \
    }                                                                  \
  } while (false)

#define APPLE_OBS_COUNT_N(name, n) APPLE_OBS_UNEVALUATED_2(name, n)
#define APPLE_OBS_COUNT(name) APPLE_OBS_UNEVALUATED_1(name)
#define APPLE_OBS_GAUGE_SET(name, v) APPLE_OBS_UNEVALUATED_2(name, v)
#define APPLE_OBS_GAUGE_MAX(name, v) APPLE_OBS_UNEVALUATED_2(name, v)
#define APPLE_OBS_OBSERVE(name, v) APPLE_OBS_UNEVALUATED_2(name, v)
#define APPLE_OBS_OBSERVE_SIZE(name, v) APPLE_OBS_UNEVALUATED_2(name, v)
#define APPLE_OBS_SPAN(name) APPLE_OBS_UNEVALUATED_1(name)
#define APPLE_OBS_EVENT_N(name, a) APPLE_OBS_UNEVALUATED_2(name, a)
#define APPLE_OBS_EVENT(name) APPLE_OBS_UNEVALUATED_1(name)
#define APPLE_OBS_EVENT_EPOCH() static_cast<void>(0)

#endif  // APPLE_ENABLE_METRICS
