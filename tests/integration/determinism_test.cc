// End-to-end determinism regression: the properties apple_analyze guards
// statically, asserted dynamically. A small GEANT epoch is computed twice
// in the same process — same topology, same traffic matrix, same config —
// and every derived artifact must be byte-identical across the runs:
//
//   * the serialized placement plan (instance counts, distributions,
//     sub-class plans, id counters),
//   * the installed rule table (per-class plans and TCAM accounting as the
//     data plane holds them),
//   * the metrics snapshot (every counter and histogram, under an injected
//     constant clock so durations cannot leak wall time).
//
// If an unordered-container walk, ambient clock read, or unseeded RNG
// sneaks back into the pipeline, this test fails even when the static
// analyzer's heuristics miss the site.
#include <gtest/gtest.h>

#include <string>

#include "core/apple_controller.h"
#include "core/rule_generator.h"
#include "net/topologies.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace apple {
namespace {

void write_subclass_plans(obs::json::Writer& w,
                          const std::vector<dataplane::SubclassPlan>& plans) {
  w.begin_array();
  for (const dataplane::SubclassPlan& sub : plans) {
    w.begin_object();
    w.key("class_id");
    w.value(static_cast<std::uint64_t>(sub.class_id));
    w.key("subclass_id");
    w.value(static_cast<std::uint64_t>(sub.subclass_id));
    w.key("weight");
    w.value(sub.weight);
    w.key("prefix_rules");
    w.value(static_cast<std::uint64_t>(sub.classifier_prefix_rules));
    w.key("itinerary");
    w.begin_array();
    for (const dataplane::HostVisit& visit : sub.itinerary) {
      w.begin_object();
      w.key("at_switch");
      w.value(static_cast<std::uint64_t>(visit.at_switch));
      w.key("instances");
      w.begin_array();
      for (const vnf::InstanceId id : visit.instances) {
        w.value(static_cast<std::uint64_t>(id));
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

// Serializes the decision content of an epoch. Deliberately excludes
// plan.solve_seconds: wall-clock measurement metadata, not part of the
// deterministic plan contract.
std::string serialize_epoch(const core::Epoch& epoch) {
  obs::json::Writer w;
  w.begin_object();
  w.key("classes");
  w.begin_array();
  for (const traffic::TrafficClass& cls : epoch.classes) {
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::uint64_t>(cls.id));
    w.key("chain_id");
    w.value(static_cast<std::uint64_t>(cls.chain_id));
    w.key("rate_mbps");
    w.value(cls.rate_mbps);
    w.key("path");
    w.begin_array();
    for (const net::NodeId v : cls.path) {
      w.value(static_cast<std::uint64_t>(v));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("plan");
  w.begin_object();
  w.key("feasible");
  w.value(epoch.plan.feasible);
  w.key("strategy");
  w.value(epoch.plan.strategy);
  w.key("total_instances");
  w.value(epoch.plan.total_instances());
  w.key("instance_count");
  w.begin_array();
  for (const auto& per_node : epoch.plan.instance_count) {
    w.begin_array();
    for (const std::uint32_t q : per_node) {
      w.value(static_cast<std::uint64_t>(q));
    }
    w.end_array();
  }
  w.end_array();
  w.key("distribution");
  w.begin_array();
  for (const core::ClassDistribution& dist : epoch.plan.distribution) {
    w.begin_array();
    for (std::size_t i = 0; i < dist.positions(); ++i) {
      w.begin_array();
      for (std::size_t j = 0; j < dist.stages(); ++j) w.value(dist(i, j));
      w.end_array();
    }
    w.end_array();
  }
  w.end_array();
  w.end_object();

  w.key("inventory");
  w.begin_array();
  for (const auto& per_node : epoch.inventory.by_node_type) {
    w.begin_array();
    for (const auto& ids : per_node) {
      w.begin_array();
      for (const vnf::InstanceId id : ids) {
        w.value(static_cast<std::uint64_t>(id));
      }
      w.end_array();
    }
    w.end_array();
  }
  w.end_array();

  w.key("subclasses");
  w.begin_array();
  for (const auto& plans : epoch.subclasses) write_subclass_plans(w, plans);
  w.end_array();

  w.key("next_instance_id");
  w.value(static_cast<std::uint64_t>(epoch.next_instance_id));
  w.key("next_class_id");
  w.value(static_cast<std::uint64_t>(epoch.next_class_id));
  w.end_object();
  return w.take();
}

// Serializes the rule state as the data plane holds it after installation,
// plus the TCAM accounting of the rule generator.
std::string serialize_rule_table(const dataplane::DataPlane& dp,
                                 const core::RuleGenerationReport& report) {
  obs::json::Writer w;
  w.begin_object();
  w.key("tcam_with_tagging");
  w.value(static_cast<std::uint64_t>(report.tcam_with_tagging));
  w.key("tcam_without_tagging");
  w.value(static_cast<std::uint64_t>(report.tcam_without_tagging));
  w.key("vswitch_rules");
  w.value(static_cast<std::uint64_t>(report.vswitch_rules));
  w.key("classes");
  w.begin_array();
  for (const traffic::ClassId id : dp.class_ids()) {
    w.begin_object();
    w.key("id");
    w.value(static_cast<std::uint64_t>(id));
    w.key("path");
    w.begin_array();
    for (const net::NodeId v : dp.path_of(id)) {
      w.value(static_cast<std::uint64_t>(v));
    }
    w.end_array();
    w.key("plans");
    write_subclass_plans(w, dp.plans_of(id));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

struct EpochArtifacts {
  std::string plan;
  std::string rule_table;
  std::string metrics;
};

EpochArtifacts run_geant_epoch() {
  obs::MetricsRegistry& registry = obs::default_registry();
  registry.reset_values();
  // Constant injected clock: every span/timer duration becomes exactly 0.0
  // in both runs, so the metrics snapshot compares real instrumentation
  // counts without wall-clock noise.
  registry.set_clock([] { return 0.0; });

  const net::Topology topo = net::make_geant(net::kDefaultHostCores);
  core::ControllerConfig cfg;
  cfg.engine.strategy = core::PlacementStrategy::kGreedy;
  cfg.snapshot_duration = 0.3;
  cfg.tick = 0.05;
  cfg.poll_interval = 0.1;
  cfg.policied_fraction = 0.5;
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         cfg);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 6000.0});
  const core::Epoch epoch = controller.optimize(tm);

  core::PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = controller.chains();
  dataplane::DataPlane dp(topo);
  core::RuleGenerator().install(input, epoch.subclasses, epoch.inventory, dp);

  EpochArtifacts artifacts;
  artifacts.plan = serialize_epoch(epoch);
  artifacts.rule_table = serialize_rule_table(dp, epoch.rules);
  artifacts.metrics = registry.snapshot_json();

  // Leave the process-wide registry as other tests expect to find it.
  registry.set_clock(obs::Clock(&obs::steady_clock_seconds));
  registry.reset_values();
  return artifacts;
}

TEST(DeterminismRegression, GeantEpochFlightJournalIsByteIdentical) {
  // The flight recorder's determinism contract (DESIGN.md Sec. 13): a
  // serial workload under an injected clock journals identically across
  // runs — event order, interned ids, epoch/span ids and timestamps all
  // derive from program order. reset() restarts the id streams, so the
  // second run replays into the same journal bytes.
  obs::EventLog& log = obs::default_event_log();
  const auto run_journal = [&log] {
    log.reset();
    log.set_clock([] { return 0.0; });
    (void)run_geant_epoch();
    std::string journal = log.journal_json();
    log.set_clock(obs::Clock(&obs::steady_clock_seconds));
    return journal;
  };
  const std::string first = run_journal();
  const std::string second = run_journal();
  EXPECT_EQ(first, second);

  // Not vacuous: the epoch actually recorded pipeline, engine and rule
  // events (core.engine.place is an APPLE_OBS_SPAN: spans journal too).
  const auto doc = obs::json::parse(first);
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* journal = doc->find("journal");
  ASSERT_NE(journal, nullptr);
  bool saw_epoch = false;
  bool saw_engine = false;
  bool saw_rules = false;
  for (const auto& name : journal->find("names")->items) {
    if (name.string == "core.pipeline.epoch") saw_epoch = true;
    if (name.string == "core.engine.place") saw_engine = true;
    if (name.string == "dataplane.rules.install") saw_rules = true;
  }
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_rules);
  std::uint64_t events = 0;
  for (const auto& thread : journal->find("threads")->items) {
    events += thread.find("events")->items.size();
  }
  EXPECT_GT(events, 0u);
  log.reset();
}

TEST(DeterminismRegression, GeantEpochArtifactsAreByteIdentical) {
  const EpochArtifacts first = run_geant_epoch();
  const EpochArtifacts second = run_geant_epoch();

  EXPECT_EQ(first.plan, second.plan);
  EXPECT_EQ(first.rule_table, second.rule_table);
  EXPECT_EQ(first.metrics, second.metrics);

  // Guard against vacuous passes: the artifacts must be real documents
  // describing a non-empty epoch.
  const auto plan_doc = obs::json::parse(first.plan);
  ASSERT_TRUE(plan_doc.has_value());
  EXPECT_FALSE(plan_doc->find("classes")->items.empty());
  EXPECT_GT(plan_doc->find("plan")->find("total_instances")->number, 0.0);
  const auto rules_doc = obs::json::parse(first.rule_table);
  ASSERT_TRUE(rules_doc.has_value());
  EXPECT_FALSE(rules_doc->find("classes")->items.empty());
  EXPECT_GT(rules_doc->find("tcam_with_tagging")->number, 0.0);
  const auto metrics_doc = obs::json::parse(first.metrics);
  ASSERT_TRUE(metrics_doc.has_value());
  EXPECT_FALSE(metrics_doc->find("counters")->keys.empty());
}

}  // namespace
}  // namespace apple
