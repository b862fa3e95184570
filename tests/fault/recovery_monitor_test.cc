// RecoveryMonitor: fault lifecycle accounting, latency statistics, policy
// probing against a live data plane, and the determinism fingerprint.
#include "fault/recovery_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "net/topologies.h"
#include "obs/obs.h"

namespace apple::fault {
namespace {

using vnf::NfType;

FaultEvent crash_event(FaultId id) {
  FaultEvent e;
  e.fault_id = id;
  e.kind = FaultKind::kInstanceCrash;
  return e;
}

TEST(RecoveryMonitor, LifecycleTimestampsAndIdempotence) {
  RecoveryMonitor monitor;
  monitor.on_injected(crash_event(1), 2.0);
  monitor.on_injected(crash_event(1), 5.0);  // duplicate: ignored

  auto rec = monitor.record(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(rec->injected_at, 2.0);
  EXPECT_FALSE(rec->detected());
  EXPECT_FALSE(monitor.all_repaired());
  EXPECT_EQ(monitor.open_faults(), (std::vector<FaultId>{1}));

  monitor.on_detected(1, 2.5);
  monitor.on_detected(1, 9.0);  // first detection wins
  rec = monitor.record(1);
  EXPECT_DOUBLE_EQ(rec->detected_at, 2.5);
  EXPECT_DOUBLE_EQ(rec->time_to_detect(), 0.5);

  monitor.on_repaired(1, 4.0);
  monitor.on_repaired(1, 9.0);  // ignored
  rec = monitor.record(1);
  EXPECT_DOUBLE_EQ(rec->repaired_at, 4.0);
  EXPECT_DOUBLE_EQ(rec->time_to_repair(), 2.0);
  EXPECT_TRUE(monitor.all_repaired());
  EXPECT_TRUE(monitor.open_faults().empty());
}

TEST(RecoveryMonitor, RepairImpliesDetection) {
  // Self-clearing faults (link up) may never get an explicit on_detected.
  RecoveryMonitor monitor;
  monitor.on_injected(crash_event(3), 1.0);
  monitor.on_repaired(3, 2.5);
  const auto rec = monitor.record(3);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(rec->detected_at, 2.5);
  EXPECT_DOUBLE_EQ(rec->repaired_at, 2.5);
}

TEST(RecoveryMonitor, LossAttributionFallsBackToUnattributed) {
  RecoveryMonitor monitor;
  monitor.on_injected(crash_event(1), 1.0);
  monitor.account_loss(1, 10.0);
  monitor.account_loss(1, 5.0);
  monitor.account_loss(99, 7.0);  // unknown fault id
  monitor.account_unattributed(3.0);
  monitor.account_loss(1, -1.0);  // non-positive: ignored

  const RecoveryReport report = monitor.report();
  EXPECT_DOUBLE_EQ(report.traffic_lost_mbit, 15.0);
  EXPECT_DOUBLE_EQ(report.unattributed_lost_mbit, 10.0);
}

TEST(RecoveryMonitor, UnknownFaultQueriesAreHarmless) {
  RecoveryMonitor monitor;
  monitor.on_detected(5, 1.0);  // never injected: no record appears
  monitor.on_repaired(5, 2.0);
  EXPECT_FALSE(monitor.record(5).has_value());
  EXPECT_TRUE(monitor.all_repaired());  // vacuous
  EXPECT_EQ(monitor.report().injected, 0u);
}

TEST(LatencyStats, NearestRankPercentiles) {
  // 1..100 reversed: from_samples must sort first.
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const LatencyStats stats = LatencyStats::from_samples(std::move(samples));
  EXPECT_EQ(stats.count, 100u);
  EXPECT_DOUBLE_EQ(stats.mean, 50.5);
  EXPECT_DOUBLE_EQ(stats.p50, 50.0);  // nearest-rank: ceil(0.5*100) = 50th
  EXPECT_DOUBLE_EQ(stats.p99, 99.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
}

TEST(LatencyStats, SmallAndEmptySamples) {
  const LatencyStats empty = LatencyStats::from_samples({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.p99, 0.0);

  const LatencyStats one = LatencyStats::from_samples({7.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
  EXPECT_DOUBLE_EQ(one.max, 7.0);
}

class PolicyProbeTest : public ::testing::Test {
 protected:
  PolicyProbeTest() : topo_(net::make_line(4, 64.0)), dp_(topo_) {
    dp_.register_instance({/*id=*/1, NfType::kFirewall, /*host=*/1, 900.0});
    dp_.register_instance({/*id=*/2, NfType::kIds, /*host=*/2, 600.0});

    traffic::TrafficClass cls;
    cls.id = 0;
    cls.src = 0;
    cls.dst = 3;
    cls.path = {0, 1, 2, 3};
    dataplane::SubclassPlan plan;
    plan.class_id = 0;
    plan.subclass_id = 0;
    plan.weight = 1.0;
    plan.itinerary = {{1, {1}}, {2, {2}}};
    dp_.install_class(cls, {plan});
  }

  PolicyProbe probe(std::vector<NfType> expected) const {
    PolicyProbe p;
    p.class_id = 0;
    p.header.src_ip = 0x0a000001;
    p.header.dst_ip = 0x0a000002;
    p.header.src_port = 1024;
    p.header.dst_port = 443;
    p.header.proto = 6;
    p.expected_chain = std::move(expected);
    return p;
  }

  net::Topology topo_;
  dataplane::DataPlane dp_;
};

TEST_F(PolicyProbeTest, CorrectChainIsNoViolation) {
  RecoveryMonitor monitor;
  const std::vector<PolicyProbe> probes = {
      probe({NfType::kFirewall, NfType::kIds})};
  EXPECT_EQ(monitor.verify_policies(dp_, probes), 0u);
  const RecoveryReport report = monitor.report();
  EXPECT_EQ(report.policy_probes, 1u);
  EXPECT_EQ(report.policy_violations, 0u);
  EXPECT_EQ(report.blackholed_probes, 0u);
}

TEST_F(PolicyProbeTest, BlackholedProbeIsAllowed) {
  // A crashed (unregistered) instance makes the walk fail mid-chain: that
  // is availability loss during the repair window, not a violation.
  dp_.unregister_instance(2);
  RecoveryMonitor monitor;
  const std::vector<PolicyProbe> probes = {
      probe({NfType::kFirewall, NfType::kIds})};
  EXPECT_EQ(monitor.verify_policies(dp_, probes), 0u);
  const RecoveryReport report = monitor.report();
  EXPECT_EQ(report.policy_violations, 0u);
  EXPECT_EQ(report.blackholed_probes, 1u);
}

TEST_F(PolicyProbeTest, WrongChainIsAViolation) {
  RecoveryMonitor monitor;
  // The policy expected FW only; the data plane also ran IDS.
  const std::vector<PolicyProbe> probes = {probe({NfType::kFirewall})};
  EXPECT_EQ(monitor.verify_policies(dp_, probes), 1u);
  EXPECT_EQ(monitor.policy_violations(), 1u);
}

// One data plane for a sweep with every outcome: class 0 runs FW -> IDS,
// class 1's only instance is gone (blackholed), class 2 runs IDS alone.
class SweepReuseTest : public ::testing::Test {
 protected:
  SweepReuseTest() : topo_(net::make_line(4, 64.0)), dp_(topo_) {
    dp_.register_instance({/*id=*/1, NfType::kFirewall, /*host=*/1, 900.0});
    dp_.register_instance({/*id=*/2, NfType::kIds, /*host=*/2, 600.0});
    install(0, {{1, {1}}, {2, {2}}});
    install(1, {{1, {3}}});  // instance 3 never registered
    install(2, {{2, {2}}});

    // In probe order: delivered, violating (class 2), blackholed,
    // violating (class 0).
    probes_ = {probe(0, {NfType::kFirewall, NfType::kIds}),
               probe(2, {NfType::kFirewall}),
               probe(1, {NfType::kNat}),
               probe(0, {NfType::kFirewall})};
  }

  void install(traffic::ClassId id,
               std::initializer_list<dataplane::HostVisit> itinerary) {
    traffic::TrafficClass cls;
    cls.id = id;
    cls.src = 0;
    cls.dst = 3;
    cls.path = {0, 1, 2, 3};
    dataplane::SubclassPlan plan;
    plan.class_id = id;
    plan.weight = 1.0;
    plan.itinerary = itinerary;
    dp_.install_class(cls, {plan});
  }

  static PolicyProbe probe(traffic::ClassId id,
                           std::vector<NfType> expected) {
    PolicyProbe p;
    p.class_id = id;
    p.header.src_ip = 0x0a000001 + id;
    p.header.dst_ip = 0x0a000002;
    p.header.src_port = 1024;
    p.header.dst_port = 443;
    p.header.proto = 6;
    p.expected_chain = std::move(expected);
    return p;
  }

  // fault.* probe counters, read from the process-wide registry.
  static std::vector<std::uint64_t> counters() {
    std::vector<std::uint64_t> values;
    for (const char* name : {"fault.policy_probes", "fault.blackholed_probes",
                             "fault.policy_violations"}) {
      values.push_back(obs::default_registry().counter(name).value());
    }
    return values;
  }

  static std::vector<std::uint64_t> delta(const std::vector<std::uint64_t>& a,
                                          const std::vector<std::uint64_t>& b) {
    std::vector<std::uint64_t> d;
    for (std::size_t i = 0; i < a.size(); ++i) d.push_back(b[i] - a[i]);
    return d;
  }

  net::Topology topo_;
  dataplane::DataPlane dp_;
  std::vector<PolicyProbe> probes_;
};

TEST_F(SweepReuseTest, RepeatCountsWhatASecondWalkWould) {
  obs::EventLog& log = obs::default_event_log();
  log.set_clock([] { return 0.0; });

  // Reference: two walked sweeps.
  log.reset();
  RecoveryMonitor walked;
  EXPECT_EQ(walked.verify_policies(dp_, probes_), 2u);
  const auto before_second = counters();
  EXPECT_EQ(walked.verify_policies(dp_, probes_), 2u);
  const auto walked_delta = delta(before_second, counters());
  const std::string walked_journal = log.journal_json();

  // One walked sweep, then a repeat.
  log.reset();
  RecoveryMonitor reused;
  EXPECT_EQ(reused.verify_policies(dp_, probes_), 2u);
  const auto before_repeat = counters();
  EXPECT_EQ(reused.repeat_last_sweep(probes_), 2u);
  const auto reused_delta = delta(before_repeat, counters());
  const std::string reused_journal = log.journal_json();
  log.set_clock(obs::Clock(&obs::steady_clock_seconds));
  log.reset();

#if defined(APPLE_ENABLE_METRICS) && APPLE_ENABLE_METRICS
  EXPECT_EQ(walked_delta, (std::vector<std::uint64_t>{4, 1, 2}));
  EXPECT_NE(walked_journal.find("fault.policy_violation"), std::string::npos);
#endif
  EXPECT_EQ(reused_delta, walked_delta);
  // Same fault.policy_violation events (class 2, then class 0) in the
  // same order.
  EXPECT_EQ(reused_journal, walked_journal);

  const RecoveryReport a = walked.report();
  const RecoveryReport b = reused.report();
  EXPECT_EQ(b.fingerprint(), a.fingerprint());
  EXPECT_EQ(b.policy_probes, 8u);
  EXPECT_EQ(b.blackholed_probes, 2u);
  EXPECT_EQ(b.policy_violations, 4u);
  EXPECT_EQ(reused.policy_violations(), 4u);
}

TEST_F(SweepReuseTest, RepeatBeforeAnySweepCountsNothing) {
  RecoveryMonitor monitor;
  const auto before = counters();
  EXPECT_EQ(monitor.repeat_last_sweep(probes_), 0u);
  EXPECT_EQ(delta(before, counters()),
            (std::vector<std::uint64_t>{0, 0, 0}));
  const RecoveryReport report = monitor.report();
  EXPECT_EQ(report.policy_probes, 0u);
  EXPECT_EQ(report.blackholed_probes, 0u);
  EXPECT_EQ(report.policy_violations, 0u);
}

TEST(RecoveryReport, FingerprintIsDeterministicAndValueSensitive) {
  const auto build = [](double repair_time) {
    RecoveryMonitor monitor;
    monitor.on_injected(crash_event(1), 1.0);
    monitor.on_detected(1, 1.25);
    monitor.on_repaired(1, repair_time);
    monitor.account_loss(1, 12.5);
    FaultEvent link = crash_event(2);
    link.kind = FaultKind::kLinkDown;
    monitor.on_injected(link, 2.0);
    return monitor.report();
  };
  const RecoveryReport a = build(3.0);
  const RecoveryReport b = build(3.0);
  const RecoveryReport c = build(3.5);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // Human-auditable: names the fault kind and the lifecycle timestamps.
  EXPECT_NE(a.fingerprint().find("instance-crash"), std::string::npos);
  EXPECT_NE(a.fingerprint().find("link-down"), std::string::npos);
  EXPECT_NE(a.fingerprint().find("totals injected=2"), std::string::npos);
  EXPECT_FALSE(a.all_repaired());
}

}  // namespace
}  // namespace apple::fault
