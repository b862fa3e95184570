// Golden-output pin for the fault replay and the fast-failover replay.
// Each fault-replay run hashes (FNV-1a, 64-bit):
//
//   * the bytes of RecoveryReport::fingerprint() (every fault's lifecycle
//     timestamps and lost traffic, the probe / violation / blackholed-probe
//     totals);
//   * the bit pattern of every snapshot_loss and snapshot_blackholed
//     entry, of mean_loss and of end_time;
//   * boot_retries, rule_retries and faults_skipped.
//
// The fast-failover case hashes the bits of every snapshot_loss entry and
// every FailoverMetrics field of AppleController::replay(epoch, series,
// true).
//
// Runs: bench_fault_recovery's four scenarios on Internet2 and GEANT at
// seed 1, and a GEANT lp-round chaos segment shaped like perfbench's
// replay-lp step (4x bursts, drain_limit 150 s). Any change to what the
// probes see, to the fluid tick's floating-point order or to the recovery
// loop's timing changes a bit somewhere and fails the test, so an
// optimisation of those paths must reproduce these runs exactly. The
// constants pin x86-64 IEEE doubles and libstdc++.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/apple_controller.h"
#include "core/fault_replay.h"
#include "fault/fault_schedule.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"
#include "traffic/traffic_matrix.h"

namespace apple::core {
namespace {

class Fnv1a {
 public:
  void add_byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      add_byte(static_cast<unsigned char>((v >> (8 * byte)) & 0xffu));
    }
  }
  void add_double(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add_string(const std::string& s) {
    for (const char c : s) add_byte(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t hash_of(const FaultReplayResult& r) {
  Fnv1a h;
  h.add_string(r.recovery.fingerprint());
  for (const double loss : r.snapshot_loss) h.add_double(loss);
  for (const double bh : r.snapshot_blackholed) h.add_double(bh);
  h.add_double(r.mean_loss);
  h.add_double(r.end_time);
  h.add(r.boot_retries);
  h.add(r.rule_retries);
  h.add(r.faults_skipped);
  return h.value();
}

std::uint64_t hash_of(const ReplayReport& r) {
  Fnv1a h;
  for (const double loss : r.snapshot_loss) h.add_double(loss);
  const FailoverMetrics& f = r.failover;
  h.add(f.overload_events);
  h.add(f.clear_events);
  h.add(f.rebalances);
  h.add(f.instances_launched);
  h.add(f.instances_cancelled);
  h.add_double(f.extra_cores_in_use);
  h.add_double(f.peak_extra_cores);
  h.add_double(f.extra_core_sum);
  h.add_double(f.extra_core_samples);
  return h.value();
}

struct Scenario {
  const char* label;
  fault::ScheduleConfig config;
  std::uint64_t golden;
};

// bench_fault_recovery's scenario matrix at seed 1: greedy placement,
// half the traffic policied, a 6-snapshot diurnal series, faults in
// [1, 5) s.
void expect_bench_scenarios(const net::Topology& topo, double total_mbps,
                            const std::vector<Scenario>& scenarios) {
  ControllerConfig cfg;
  cfg.engine.strategy = PlacementStrategy::kGreedy;
  cfg.policied_fraction = 0.5;
  const AppleController controller(topo, vnf::default_policy_chains(), cfg);
  const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = total_mbps, .seed = 1});
  traffic::DiurnalConfig diurnal;
  diurnal.num_snapshots = 6;
  diurnal.seed = 2;
  const std::vector<traffic::TrafficMatrix> series =
      traffic::make_diurnal_series(base, diurnal);
  const Epoch epoch = controller.optimize(traffic::mean_matrix(series));

  FaultReplayOptions options;
  options.drain_limit = 150.0;
  for (const Scenario& s : scenarios) {
    fault::ScheduleConfig sched = s.config;
    sched.seed = 1;
    sched.start = 1.0;
    sched.horizon = 5.0;
    const FaultReplayResult result = replay_with_faults(
        controller, epoch, series, fault::make_schedule(topo, sched), options);
    EXPECT_EQ(result.recovery.policy_violations, 0u) << s.label;
    EXPECT_EQ(hash_of(result), s.golden)
        << s.label << ": 0x" << std::hex << hash_of(result);
  }
}

fault::ScheduleConfig crash() {
  fault::ScheduleConfig c;
  c.instance_crashes = 3;
  return c;
}

fault::ScheduleConfig node() {
  fault::ScheduleConfig c;
  c.node_failures = 1;
  return c;
}

fault::ScheduleConfig flap() {
  fault::ScheduleConfig c;
  c.link_flaps = 2;
  return c;
}

fault::ScheduleConfig chaos() {
  fault::ScheduleConfig c;
  c.instance_crashes = 2;
  c.link_flaps = 1;
  c.boot_failures = 1;
  c.slow_boots = 1;
  c.rule_install_failures = 1;
  c.correlated_bursts = 1;
  return c;
}

TEST(FaultReplayGolden, Internet2BenchScenarios) {
  expect_bench_scenarios(net::make_internet2(), 5000.0,
                         {{"crash", crash(), 0xe2e8b031e7cb2658ULL},
                          {"node", node(), 0xa9d6ea49d6581420ULL},
                          {"flap", flap(), 0xf6748b32397b5b9cULL},
                          {"chaos", chaos(), 0x0c24fc291fdc8516ULL}});
}

TEST(FaultReplayGolden, GeantBenchScenarios) {
  expect_bench_scenarios(net::make_geant(), 8000.0,
                         {{"crash", crash(), 0x87f280222faeda91ULL},
                          {"node", node(), 0x4b517d22ee7e92f7ULL},
                          {"flap", flap(), 0xb44a1159c35657e1ULL},
                          {"chaos", chaos(), 0x9466e4e6fe7e1508ULL}});
}

// One replay-lp-shaped segment: GEANT with 128-core hosts at 16 Gbps, an
// 8-snapshot diurnal series with 4x bursts, lp-round placement of its mean
// matrix, 40% of the traffic policied.
class FaultReplayGoldenLpRound : public ::testing::Test {
 protected:
  static ControllerConfig config() {
    ControllerConfig cfg;
    cfg.engine.strategy = PlacementStrategy::kLpRound;
    cfg.policied_fraction = 0.4;
    return cfg;
  }

  FaultReplayGoldenLpRound()
      : topo_(net::make_geant(128.0)),
        controller_(topo_, vnf::default_policy_chains(), config()) {
    const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
        topo_.num_nodes(), {.total_mbps = 16000.0, .seed = 30});
    traffic::DiurnalConfig diurnal;
    diurnal.num_snapshots = 8;
    diurnal.diurnal_amplitude = 0.15;
    diurnal.noise_sigma = 0.08;
    diurnal.seed = 7;
    series_ = traffic::make_diurnal_series(base, diurnal);
    traffic::BurstConfig bursts;
    bursts.probability = 0.2;
    bursts.magnitude = 4.0;
    bursts.duration = 3;
    bursts.seed = 8;
    traffic::inject_bursts(series_, bursts);
    epoch_ = controller_.optimize(traffic::mean_matrix(series_));
  }

  net::Topology topo_;
  AppleController controller_;
  std::vector<traffic::TrafficMatrix> series_;
  Epoch epoch_;
};

TEST_F(FaultReplayGoldenLpRound, ChaosFaultReplay) {
  fault::ScheduleConfig sched = chaos();
  sched.seed = 101;
  sched.start = 1.0;
  sched.horizon = 7.0;
  FaultReplayOptions options;
  options.drain_limit = 150.0;
  const FaultReplayResult result = replay_with_faults(
      controller_, epoch_, series_, fault::make_schedule(topo_, sched),
      options);
  EXPECT_EQ(result.recovery.policy_violations, 0u);
  EXPECT_GT(result.recovery.injected, 0u);
  EXPECT_EQ(hash_of(result), 0xe4aed43973e0658aULL)
      << "0x" << std::hex << hash_of(result);
}

TEST_F(FaultReplayGoldenLpRound, FastFailoverReplay) {
  const ReplayReport report = controller_.replay(epoch_, series_, true);
  EXPECT_EQ(report.snapshot_loss.size(), series_.size());
  EXPECT_EQ(hash_of(report), 0xc38509f13060e2c0ULL)
      << "0x" << std::hex << hash_of(report);
}

}  // namespace
}  // namespace apple::core
