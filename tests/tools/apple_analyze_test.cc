// Unit tests for the apple_analyze rule engine (tools/analysis/).
//
// Every rule is driven over in-memory fixtures in the four canonical
// states: violating, clean, suppressed-with-justification, and
// suppressed-without-justification (which must NOT suppress and must add a
// 'suppression' meta error). Engine behavior — severity overrides, stale /
// unknown / malformed directives, file-scope suppressions, JSON output —
// is covered at the bottom.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/engine.h"
#include "analysis/rules.h"
#include "analysis/source.h"
#include "obs/json.h"

namespace apple::analysis {
namespace {

using File = std::pair<std::string, std::string>;

Report run_analyzer(const std::vector<File>& files) {
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const File& f : files) {
    sources.push_back(SourceFile::from_string(f.first, f.second));
  }
  Corpus corpus(std::move(sources));
  Analyzer analyzer = make_default_analyzer();
  return analyzer.run(corpus);
}

std::vector<const Finding*> findings_of(const Report& report,
                                        std::string_view rule) {
  std::vector<const Finding*> out;
  for (const Finding& f : report.findings) {
    if (f.rule == rule) out.push_back(&f);
  }
  return out;
}

std::size_t count_unsuppressed(const Report& report, std::string_view rule) {
  std::size_t n = 0;
  for (const Finding& f : report.findings) {
    if (f.rule == rule && !f.suppressed) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

constexpr char kUnorderedViolating[] =
    "#include <unordered_map>\n"
    "std::unordered_map<int, double> table_;\n"
    "double sum() {\n"
    "  double s = 0.0;\n"
    "  for (const auto& [k, v] : table_) s += v;\n"
    "  return s;\n"
    "}\n";

TEST(UnorderedIterRule, FlagsRangeForOverUnorderedMember) {
  const Report r = run_analyzer({{"src/sim/table.cc", kUnorderedViolating}});
  const auto found = findings_of(r, "unordered-iter");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->line, 5u);
  EXPECT_FALSE(found[0]->suppressed);
  EXPECT_FALSE(r.clean());
}

TEST(UnorderedIterRule, SortedSnapshotIsClean) {
  const Report r = run_analyzer({{"src/sim/table.cc",
                                  "#include <unordered_map>\n"
                                  "std::unordered_map<int, double> table_;\n"
                                  "double sum() {\n"
                                  "  double s = 0.0;\n"
                                  "  for (const auto& [k, v] : "
                                  "common::sorted_items(table_)) s += *v;\n"
                                  "  return s;\n"
                                  "}\n"}});
  EXPECT_TRUE(findings_of(r, "unordered-iter").empty());
  EXPECT_TRUE(r.clean());
}

TEST(UnorderedIterRule, JustifiedSuppressionSuppresses) {
  const Report r = run_analyzer(
      {{"src/sim/table.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, double> table_;\n"
        "double sum() {\n"
        "  double s = 0.0;\n"
        "  // apple-analyze: allow(unordered-iter): sum is commutative\n"
        "  for (const auto& [k, v] : table_) s += v;\n"
        "  return s;\n"
        "}\n"}});
  const auto found = findings_of(r, "unordered-iter");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
  EXPECT_EQ(found[0]->justification, "sum is commutative");
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.suppressed, 1u);
}

TEST(UnorderedIterRule, EmptyJustificationDoesNotSuppress) {
  const Report r = run_analyzer(
      {{"src/sim/table.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, double> table_;\n"
        "double sum() {\n"
        "  double s = 0.0;\n"
        "  // apple-analyze: allow(unordered-iter):\n"
        "  for (const auto& [k, v] : table_) s += v;\n"
        "  return s;\n"
        "}\n"}});
  EXPECT_EQ(count_unsuppressed(r, "unordered-iter"), 1u);
  const auto meta = findings_of(r, "suppression");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_NE(meta[0]->message.find("empty justification"), std::string::npos);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.errors, 2u);  // the finding itself + the bad directive
}

TEST(UnorderedIterRule, SeesAliasedTypesAndClassicForLoops) {
  const Report r = run_analyzer(
      {{"src/sim/cache.cc",
        "#include <unordered_set>\n"
        "using Cache = std::unordered_set<int>;\n"
        "Cache cache_;\n"
        "void walk() {\n"
        "  for (auto it = cache_.begin(); it != cache_.end(); ++it) {}\n"
        "}\n"}});
  const auto found = findings_of(r, "unordered-iter");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->line, 5u);
}

TEST(UnorderedIterRule, ResolvesDeclarationsAcrossIncludes) {
  const Report r = run_analyzer(
      {{"src/sim/registry.h",
        "#pragma once\n"
        "#include <unordered_map>\n"
        "inline std::unordered_map<int, int> registry_;\n"},
       {"src/sim/user.cc",
        "#include \"sim/registry.h\"\n"
        "int count() {\n"
        "  int n = 0;\n"
        "  for (const auto& [k, v] : registry_) n += v;\n"
        "  return n;\n"
        "}\n"}});
  const auto found = findings_of(r, "unordered-iter");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->file, "src/sim/user.cc");
}

// ---------------------------------------------------------------------------
// ambient-time
// ---------------------------------------------------------------------------

constexpr char kAmbientTimeViolating[] =
    "#include <chrono>\n"
    "double stamp() {\n"
    "  const auto t = std::chrono::steady_clock::now();\n"
    "  return t.time_since_epoch().count();\n"
    "}\n";

TEST(AmbientTimeRule, FlagsClockNowInSrc) {
  const Report r = run_analyzer({{"src/sim/t.cc", kAmbientTimeViolating}});
  const auto found = findings_of(r, "ambient-time");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->line, 3u);
}

TEST(AmbientTimeRule, BenchAndObsAreExempt) {
  const Report r =
      run_analyzer({{"bench/bench_demo.cc", kAmbientTimeViolating},
                    {"src/obs/clock_impl.cc", kAmbientTimeViolating}});
  EXPECT_TRUE(findings_of(r, "ambient-time").empty());
  EXPECT_TRUE(r.clean());
}

TEST(AmbientTimeRule, JustifiedSuppressionSuppresses) {
  const Report r = run_analyzer(
      {{"src/sim/t.cc",
        "#include <chrono>\n"
        "double stamp() {\n"
        "  // apple-analyze: allow(ambient-time): opt-in deadline only\n"
        "  const auto t = std::chrono::steady_clock::now();\n"
        "  return t.time_since_epoch().count();\n"
        "}\n"}});
  const auto found = findings_of(r, "ambient-time");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
  EXPECT_TRUE(r.clean());
}

TEST(AmbientTimeRule, EmptyJustificationDoesNotSuppress) {
  const Report r = run_analyzer(
      {{"src/sim/t.cc",
        "#include <chrono>\n"
        "double stamp() {\n"
        "  // apple-analyze: allow(ambient-time):\n"
        "  const auto t = std::chrono::steady_clock::now();\n"
        "  return t.time_since_epoch().count();\n"
        "}\n"}});
  EXPECT_EQ(count_unsuppressed(r, "ambient-time"), 1u);
  ASSERT_EQ(findings_of(r, "suppression").size(), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(AmbientTimeRule, CatchesAliasedClocks) {
  const Report r = run_analyzer(
      {{"src/sim/t.cc",
        "#include <chrono>\n"
        "using Clock = std::chrono::steady_clock;\n"
        "double stamp() { return Clock::now().time_since_epoch().count(); }\n"}});
  const auto found = findings_of(r, "ambient-time");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->line, 3u);
}

// ---------------------------------------------------------------------------
// ambient-random
// ---------------------------------------------------------------------------

TEST(AmbientRandomRule, FlagsRandomDeviceAndUnseededEngines) {
  const Report r = run_analyzer(
      {{"src/sim/rng.cc",
        "#include <random>\n"
        "std::random_device rd;\n"
        "std::mt19937 unseeded;\n"
        "int roll() { return rand(); }\n"}});
  EXPECT_EQ(count_unsuppressed(r, "ambient-random"), 3u);
}

TEST(AmbientRandomRule, SeededEngineIsClean) {
  const Report r = run_analyzer(
      {{"src/sim/rng.cc",
        "#include <random>\n"
        "std::mt19937 rng(42);\n"
        "std::mt19937 rng2{config.seed};\n"}});
  EXPECT_TRUE(findings_of(r, "ambient-random").empty());
  EXPECT_TRUE(r.clean());
}

TEST(AmbientRandomRule, JustifiedSuppressionSuppresses) {
  const Report r = run_analyzer(
      {{"src/sim/rng.cc",
        "#include <random>\n"
        "// apple-analyze: allow(ambient-random): seeded in the ctor body\n"
        "std::mt19937 rng_;\n"}});
  const auto found = findings_of(r, "ambient-random");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
  EXPECT_TRUE(r.clean());
}

TEST(AmbientRandomRule, EmptyJustificationDoesNotSuppress) {
  const Report r = run_analyzer(
      {{"src/sim/rng.cc",
        "#include <random>\n"
        "std::mt19937 rng_;  // apple-analyze: allow(ambient-random):\n"}});
  EXPECT_EQ(count_unsuppressed(r, "ambient-random"), 1u);
  ASSERT_EQ(findings_of(r, "suppression").size(), 1u);
  EXPECT_FALSE(r.clean());
}

// ---------------------------------------------------------------------------
// pointer-order
// ---------------------------------------------------------------------------

TEST(PointerOrderRule, FlagsPointerKeyedContainers) {
  const Report r = run_analyzer(
      {{"src/sim/ptr.cc",
        "#include <map>\n"
        "#include <set>\n"
        "struct Foo {};\n"
        "std::map<Foo*, int> by_ptr;\n"
        "std::set<const Foo*> ptr_set;\n"}});
  EXPECT_EQ(count_unsuppressed(r, "pointer-order"), 2u);
}

TEST(PointerOrderRule, IdKeyedContainersAreClean) {
  const Report r = run_analyzer(
      {{"src/sim/ptr.cc",
        "#include <map>\n"
        "struct Foo {};\n"
        "std::map<int, Foo*> by_id;\n"  // pointer VALUES are fine
        "std::less<int> cmp;\n"}});
  EXPECT_TRUE(findings_of(r, "pointer-order").empty());
  EXPECT_TRUE(r.clean());
}

TEST(PointerOrderRule, JustifiedSuppressionSuppresses) {
  const Report r = run_analyzer(
      {{"src/sim/ptr.cc",
        "#include <map>\n"
        "struct Foo {};\n"
        "// apple-analyze: allow(pointer-order): arena-allocated, stable\n"
        "std::map<Foo*, int> by_ptr;\n"}});
  const auto found = findings_of(r, "pointer-order");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
  EXPECT_TRUE(r.clean());
}

TEST(PointerOrderRule, EmptyJustificationDoesNotSuppress) {
  const Report r = run_analyzer(
      {{"src/sim/ptr.cc",
        "#include <map>\n"
        "struct Foo {};\n"
        "std::map<Foo*, int> by_ptr;  "
        "// apple-analyze: allow(pointer-order):\n"}});
  EXPECT_EQ(count_unsuppressed(r, "pointer-order"), 1u);
  ASSERT_EQ(findings_of(r, "suppression").size(), 1u);
  EXPECT_FALSE(r.clean());
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

TEST(LayeringRule, FlagsInverseDependency) {
  const Report r = run_analyzer(
      {{"src/net/routing_extra.cc",
        "#include \"core/placement.h\"\n"  // net must not depend on core
        "#include \"net/topology.h\"\n"
        "void f() {}\n"}});
  const auto found = findings_of(r, "layering");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->line, 1u);
  EXPECT_NE(found[0]->message.find("layering violation"), std::string::npos);
}

TEST(LayeringRule, DocumentedDependencyIsClean) {
  const Report r = run_analyzer(
      {{"src/core/widget.cc",
        "#include \"core/placement.h\"\n"
        "#include \"lp/simplex.h\"\n"  // core -> lp is in the DAG
        "void f() {}\n"}});
  EXPECT_TRUE(findings_of(r, "layering").empty());
  EXPECT_TRUE(r.clean());
}

TEST(LayeringRule, HeaderHygieneAndRawNew) {
  const Report r = run_analyzer(
      {{"src/net/bad.h",
        "using namespace std;\n"  // banned in headers; also no pragma once
        "int* make() { return new int(7); }\n"}});
  const auto found = findings_of(r, "layering");
  ASSERT_EQ(found.size(), 3u);  // missing pragma, using-namespace, raw new
  EXPECT_FALSE(r.clean());
}

TEST(LayeringRule, FileScopeSuppressionCoversAllFindings) {
  const Report r = run_analyzer(
      {{"src/net/bad.h",
        "// apple-analyze: allow-file(layering): legacy shim, tracked in "
        "ROADMAP\n"
        "using namespace std;\n"
        "int* make() { return new int(7); }\n"}});
  const auto found = findings_of(r, "layering");
  ASSERT_EQ(found.size(), 3u);
  for (const Finding* f : found) EXPECT_TRUE(f->suppressed);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.suppressed, 3u);
}

TEST(LayeringRule, FileScopeSuppressionWithoutJustificationFails) {
  const Report r = run_analyzer(
      {{"src/net/bad.h",
        "// apple-analyze: allow-file(layering):\n"
        "using namespace std;\n"}});
  EXPECT_GE(count_unsuppressed(r, "layering"), 1u);
  ASSERT_EQ(findings_of(r, "suppression").size(), 1u);
  EXPECT_FALSE(r.clean());
}

// ---------------------------------------------------------------------------
// contract-config
// ---------------------------------------------------------------------------

constexpr char kConfigHeader[] =
    "#pragma once\n"
    "struct DemoConfig {\n"
    "  int x = 0;\n"
    "  void validate() const;\n"
    "};\n";

TEST(ContractConfigRule, FlagsUnconsumedValidate) {
  const Report r = run_analyzer({{"src/sim/config.h", kConfigHeader}});
  const auto found = findings_of(r, "contract-config");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0]->line, 2u);
  EXPECT_NE(found[0]->message.find("DemoConfig"), std::string::npos);
}

TEST(ContractConfigRule, ConsumerInvokingValidateIsClean) {
  const Report r = run_analyzer(
      {{"src/sim/config.h", kConfigHeader},
       {"src/sim/engine.cc",
        "#include \"sim/config.h\"\n"
        "void start(const DemoConfig& c) { c.validate(); }\n"}});
  EXPECT_TRUE(findings_of(r, "contract-config").empty());
  EXPECT_TRUE(r.clean());
}

TEST(ContractConfigRule, JustifiedSuppressionSuppresses) {
  const Report r = run_analyzer(
      {{"src/sim/config.h",
        "#pragma once\n"
        "// apple-analyze: allow(contract-config): validated by the CLI\n"
        "struct DemoConfig {\n"
        "  int x = 0;\n"
        "  void validate() const;\n"
        "};\n"}});
  const auto found = findings_of(r, "contract-config");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
  EXPECT_TRUE(r.clean());
}

TEST(ContractConfigRule, EmptyJustificationDoesNotSuppress) {
  const Report r = run_analyzer(
      {{"src/sim/config.h",
        "#pragma once\n"
        "// apple-analyze: allow(contract-config):\n"
        "struct DemoConfig {\n"
        "  int x = 0;\n"
        "  void validate() const;\n"
        "};\n"}});
  EXPECT_EQ(count_unsuppressed(r, "contract-config"), 1u);
  ASSERT_EQ(findings_of(r, "suppression").size(), 1u);
  EXPECT_FALSE(r.clean());
}

// ---------------------------------------------------------------------------
// metric-name
// ---------------------------------------------------------------------------

TEST(MetricNameRule, FlagsRuntimeBuiltAndMalformedNames) {
  const Report r = run_analyzer(
      {{"src/sim/stats.cc",
        "#include \"obs/obs.h\"\n"
        "void tick(const std::string& who) {\n"
        "  APPLE_OBS_COUNT(\"sim.queue.\" + who);\n"      // runtime-built
        "  APPLE_OBS_COUNT(make_name());\n"               // runtime-built
        "  APPLE_OBS_EVENT(\"Sim.Queue.Tick\");\n"        // uppercase
        "  APPLE_OBS_GAUGE_SET(\"nodots\", 1.0);\n"       // no dot
        "}\n"}});
  EXPECT_EQ(count_unsuppressed(r, "metric-name"), 4u);
  EXPECT_FALSE(r.clean());
}

TEST(MetricNameRule, LiteralLowercaseDottedNamesAreClean) {
  const Report r = run_analyzer(
      {{"src/sim/stats.cc",
        "#include \"obs/obs.h\"\n"
        "void tick() {\n"
        "  APPLE_OBS_COUNT(\"sim.queue.ticks\");\n"
        "  APPLE_OBS_COUNT_N(\"sim.queue.depth_total\", 3);\n"
        "  APPLE_OBS_EVENT_N(\"sim.queue.pop\", 7);\n"
        "  APPLE_OBS_SPAN(\"sim.queue.drain\");\n"
        "}\n"}});
  EXPECT_TRUE(findings_of(r, "metric-name").empty());
  EXPECT_TRUE(r.clean());
}

TEST(MetricNameRule, NameSpanningAContinuationLineIsStillChecked) {
  const Report r = run_analyzer(
      {{"src/sim/stats.cc",
        "#include \"obs/obs.h\"\n"
        "void tick() {\n"
        "  APPLE_OBS_COUNT_N(\n"
        "      \"sim.queue.depth_total\", 3);\n"
        "  APPLE_OBS_COUNT_N(\n"
        "      \"Sim.Queue.Bad\", 3);\n"
        "}\n"}});
  EXPECT_EQ(count_unsuppressed(r, "metric-name"), 1u);
}

TEST(MetricNameRule, JustifiedSuppressionSuppresses) {
  const Report r = run_analyzer(
      {{"src/sim/stats.cc",
        "#include \"obs/obs.h\"\n"
        "void tick(const char* who) {\n"
        "  // apple-analyze: allow(metric-name): bounded test-only cardinality\n"
        "  APPLE_OBS_COUNT(who);\n"
        "}\n"}});
  const auto found = findings_of(r, "metric-name");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
  EXPECT_TRUE(r.clean());
}

TEST(MetricNameRule, EmptyJustificationDoesNotSuppress) {
  const Report r = run_analyzer(
      {{"src/sim/stats.cc",
        "#include \"obs/obs.h\"\n"
        "void tick(const char* who) {\n"
        "  // apple-analyze: allow(metric-name):\n"
        "  APPLE_OBS_COUNT(who);\n"
        "}\n"}});
  EXPECT_EQ(count_unsuppressed(r, "metric-name"), 1u);
  ASSERT_EQ(findings_of(r, "suppression").size(), 1u);
  EXPECT_FALSE(r.clean());
}

TEST(MetricNameRule, ObsMacroLayerItselfIsExempt) {
  // src/obs/ defines the macros; the forwarding identifiers there are not
  // call sites.
  const Report r = run_analyzer(
      {{"src/obs/obs.h",
        "#pragma once\n"
        "#define APPLE_OBS_COUNT(name) apple::obs::count(name)\n"}});
  EXPECT_TRUE(findings_of(r, "metric-name").empty());
}

// ---------------------------------------------------------------------------
// suppression meta rule + engine behavior
// ---------------------------------------------------------------------------

TEST(SuppressionMeta, UnknownRuleIsAnError) {
  const Report r = run_analyzer(
      {{"src/sim/x.cc",
        "// apple-analyze: allow(no-such-rule): because reasons\n"
        "void f() {}\n"}});
  const auto meta = findings_of(r, "suppression");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_NE(meta[0]->message.find("unknown rule"), std::string::npos);
  EXPECT_FALSE(r.clean());
}

TEST(SuppressionMeta, StaleSuppressionIsAWarning) {
  const Report r = run_analyzer(
      {{"src/sim/x.cc",
        "// apple-analyze: allow(ambient-time): nothing here actually\n"
        "void f() {}\n"}});
  const auto meta = findings_of(r, "suppression");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_EQ(meta[0]->severity, Severity::kWarning);
  EXPECT_NE(meta[0]->message.find("stale"), std::string::npos);
  EXPECT_TRUE(r.clean());  // warnings don't fail the gate
  EXPECT_EQ(r.warnings, 1u);
}

TEST(SuppressionMeta, MalformedDirectiveIsAnError) {
  const Report r = run_analyzer(
      {{"src/sim/x.cc",
        "// apple-analyze: allowance for everything\n"
        "void f() {}\n"}});
  const auto meta = findings_of(r, "suppression");
  ASSERT_EQ(meta.size(), 1u);
  EXPECT_NE(meta[0]->message.find("malformed"), std::string::npos);
  EXPECT_FALSE(r.clean());
}

TEST(Engine, SeverityOverrideToWarningKeepsGateGreen) {
  std::vector<SourceFile> sources;
  sources.push_back(
      SourceFile::from_string("src/sim/t.cc", kAmbientTimeViolating));
  Corpus corpus(std::move(sources));
  Analyzer analyzer = make_default_analyzer();
  analyzer.set_severity("ambient-time", Severity::kWarning);
  const Report r = analyzer.run(corpus);
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.warnings, 1u);
}

TEST(Engine, SeverityOffDisablesRule) {
  std::vector<SourceFile> sources;
  sources.push_back(
      SourceFile::from_string("src/sim/t.cc", kAmbientTimeViolating));
  Corpus corpus(std::move(sources));
  Analyzer analyzer = make_default_analyzer();
  analyzer.set_severity("ambient-time", Severity::kOff);
  const Report r = analyzer.run(corpus);
  EXPECT_TRUE(findings_of(r, "ambient-time").empty());
  EXPECT_TRUE(r.clean());
}

TEST(Engine, FindingsAreSortedByFileLineRule) {
  const Report r = run_analyzer(
      {{"src/sim/b.cc", kAmbientTimeViolating},
       {"src/sim/a.cc", kAmbientTimeViolating}});
  ASSERT_EQ(r.findings.size(), 2u);
  EXPECT_EQ(r.findings[0].file, "src/sim/a.cc");
  EXPECT_EQ(r.findings[1].file, "src/sim/b.cc");
}

TEST(Engine, JsonReportRoundTrips) {
  const Report r = run_analyzer(
      {{"src/sim/table.cc", kUnorderedViolating},
       {"src/sim/t.cc",
        "#include <chrono>\n"
        "// apple-analyze: allow(ambient-time): fixture\n"
        "auto t = std::chrono::steady_clock::now();\n"}});
  const auto doc = obs::json::parse(r.to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("tool")->string, "apple_analyze");
  EXPECT_EQ(doc->find("files_scanned")->number, 2.0);
  const obs::json::Value* summary = doc->find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("errors")->number, 1.0);
  EXPECT_EQ(summary->find("suppressed")->number, 1.0);
  const obs::json::Value* by_rule = summary->find("by_rule");
  ASSERT_NE(by_rule, nullptr);
  ASSERT_NE(by_rule->find("ambient-time"), nullptr);
  EXPECT_EQ(by_rule->find("ambient-time")->find("suppressed")->number, 1.0);
  const obs::json::Value* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->items.size(), 2u);
  // Suppressed findings stay in the report with their justification.
  bool saw_justification = false;
  for (const obs::json::Value& f : findings->items) {
    if (f.find("suppressed")->boolean) {
      EXPECT_EQ(f.find("justification")->string, "fixture");
      saw_justification = true;
    }
  }
  EXPECT_TRUE(saw_justification);
}

TEST(Engine, InlineSuppressionCoversItsOwnLine) {
  const Report r = run_analyzer(
      {{"src/sim/t.cc",
        "#include <chrono>\n"
        "auto t = std::chrono::steady_clock::now();  "
        "// apple-analyze: allow(ambient-time): fixture\n"}});
  const auto found = findings_of(r, "ambient-time");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0]->suppressed);
}

TEST(Engine, SuppressionForOneRuleDoesNotHideAnother) {
  const Report r = run_analyzer(
      {{"src/sim/mix.cc",
        "#include <random>\n"
        "#include <chrono>\n"
        "// apple-analyze: allow(ambient-time): fixture\n"
        "auto t = std::chrono::steady_clock::now();\n"
        "std::random_device rd;\n"}});
  EXPECT_EQ(count_unsuppressed(r, "ambient-time"), 0u);
  EXPECT_EQ(count_unsuppressed(r, "ambient-random"), 1u);
  EXPECT_FALSE(r.clean());
}

}  // namespace
}  // namespace apple::analysis
