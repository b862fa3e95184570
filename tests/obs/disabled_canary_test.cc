// Side-effect canary for the APPLE_ENABLE_METRICS=OFF macro path.
//
// This TU forces the disabled branch of obs/obs.h regardless of how the
// tree was configured, then passes side-effecting expressions to every
// APPLE_OBS_* macro. The contract is that disabled macros still
// type-check their arguments but evaluate them ZERO times — if any
// argument runs, the canary counters move and the test fails. This is
// what makes it safe to instrument hot paths.
//
// apple-analyze: allow-file(metric-name): the canary deliberately feeds
// runtime-built names to every macro to prove the disabled build evaluates
// them zero times; no interned id is ever created here.
#ifdef APPLE_ENABLE_METRICS
#undef APPLE_ENABLE_METRICS
#endif
#define APPLE_ENABLE_METRICS 0
#include "obs/obs.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace apple::obs {
namespace {

int g_name_evals = 0;
int g_value_evals = 0;

const char* canary_name() {
  ++g_name_evals;
  return "canary.should.never_resolve";
}

double canary_value() {
  ++g_value_evals;
  return 1.0;
}

TEST(DisabledMacros, EvaluateArgumentsZeroTimes) {
  g_name_evals = 0;
  g_value_evals = 0;

  APPLE_OBS_COUNT(canary_name());
  APPLE_OBS_COUNT_N(canary_name(), canary_value());
  APPLE_OBS_GAUGE_SET(canary_name(), canary_value());
  APPLE_OBS_GAUGE_MAX(canary_name(), canary_value());
  APPLE_OBS_OBSERVE(canary_name(), canary_value());
  APPLE_OBS_OBSERVE_SIZE(canary_name(), canary_value());
  APPLE_OBS_SPAN(canary_name());
  APPLE_OBS_EVENT(canary_name());
  APPLE_OBS_EVENT_N(canary_name(), canary_value());

  EXPECT_EQ(g_name_evals, 0);
  EXPECT_EQ(g_value_evals, 0);
}

TEST(DisabledMacros, LeaveTheDefaultRegistryUntouched) {
  // The macros must not create instruments either: a disabled build should
  // never grow the registry.
  bool found = false;
  default_registry().for_each_counter(
      [&found](const std::string& name, const Counter&) {
        if (name.rfind("canary.", 0) == 0) found = true;
      });
  default_registry().for_each_histogram(
      [&found](const std::string& name, const Histogram&) {
        if (name.rfind("canary.", 0) == 0) found = true;
      });
  EXPECT_FALSE(found);
}

TEST(DisabledMacros, ComposeInsideControlFlow) {
  // Macros must stay single-statement-safe (usable as an un-braced if
  // body) in the disabled build too; the loop body re-runs the
  // zero-evaluation check on every iteration.
  const bool flag = true;
  if (flag)
    APPLE_OBS_COUNT("canary.compose.taken");
  else
    APPLE_OBS_COUNT("canary.compose.not_taken");
  for (int i = 0; i < 3; ++i) APPLE_OBS_OBSERVE(canary_name(), canary_value());
  EXPECT_EQ(g_name_evals, 0);
  EXPECT_EQ(g_value_evals, 0);
}

}  // namespace
}  // namespace apple::obs
