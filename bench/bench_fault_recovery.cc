// Fault-injection recovery SLOs (DESIGN.md §10): replay a snapshot series
// on Internet2 and GEANT while seeded fault schedules fire against the
// live system, and gate the three properties the fault subsystem exists to
// prove:
//
//   1. every injected fault is detected and repaired (availability),
//   2. policy violations are EXACTLY zero — delivered packets traverse
//      their full NF chain, faults or not (APPLE's correctness claim:
//      faults cost availability, never correctness),
//   3. same-seed runs are byte-identical (fingerprint + per-snapshot loss
//      vectors + end time), so every SLO number here is reproducible.
//
// Matrix: {Internet2, GEANT} x seeds {1, 2, 3} x scenarios {crash, node,
// flap, chaos}; each cell runs twice for the determinism check. Reported
// per cell: faults injected/repaired, detect/repair p50-p99, blackholed
// traffic and whether the rerun reproduced it. The pooled repair-latency
// distribution is exported (with every fault.* counter, among them the
// probes verified at every poll and the sweeps actually walked) to
// BENCH_fault_recovery.json; bench-perf gates the deterministic counters
// against bench/baselines/BENCH_fault_recovery.baseline.json.
//
// Exit status: 0 only when every cell repaired every fault, saw zero
// policy violations, and reproduced itself bit-for-bit.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fault_replay.h"
#include "fault/fault_schedule.h"
#include "obs/obs.h"
#include "traffic/traffic_matrix.h"

namespace {

using namespace apple;

constexpr std::size_t kSnapshots = 6;  // series length per cell (1 s each)

struct Scenario {
  std::string label;
  fault::ScheduleConfig config;  // seed is overwritten per cell
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.label = "crash";
    s.config.instance_crashes = 3;
    out.push_back(s);
  }
  {
    Scenario s;
    s.label = "node";
    s.config.node_failures = 1;
    out.push_back(s);
  }
  {
    Scenario s;
    s.label = "flap";
    s.config.link_flaps = 2;
    out.push_back(s);
  }
  {
    Scenario s;  // a bit of everything, including ordinal faults
    s.label = "chaos";
    s.config.instance_crashes = 2;
    s.config.link_flaps = 1;
    s.config.boot_failures = 1;
    s.config.slow_boots = 1;
    s.config.rule_install_failures = 1;
    s.config.correlated_bursts = 1;
    out.push_back(s);
  }
  for (Scenario& s : out) {
    s.config.start = 1.0;
    s.config.horizon = 5.0;  // inside the 6 s series window
  }
  return out;
}

struct CellResult {
  std::string topology;
  std::string scenario;
  std::uint64_t seed = 0;
  fault::RecoveryReport report;
  std::size_t skipped = 0;
  bool deterministic = false;
};

bool identical(const core::FaultReplayResult& a,
               const core::FaultReplayResult& b) {
  return a.recovery.fingerprint() == b.recovery.fingerprint() &&
         a.snapshot_loss == b.snapshot_loss &&
         a.snapshot_blackholed == b.snapshot_blackholed &&
         a.end_time == b.end_time;
}

}  // namespace

int main() {
  // A crashing APPLE_CHECK mid-replay still leaves a flight journal for CI
  // to upload (DESIGN.md Sec. 13).
  obs::install_flight_crash_dump();
  bench::print_header(
      "Fault recovery: seeded schedules vs the control-plane repair loop");
  std::printf("%zu snapshots/cell, faults in [1, 5) s, every cell run twice "
              "for the determinism gate\n",
              kSnapshots);
  std::printf("\n%-10s %-8s %-5s %-9s %-17s %-17s %-12s %-6s\n", "Topology",
              "Scenario", "Seed", "Inj/Rep", "Detect p50/p99", "Repair p50/p99",
              "Lost Mbit", "Deter");
  bench::print_rule();

  struct TopoCase {
    std::string label;
    net::Topology topo;
    double total_mbps;
  };
  std::vector<TopoCase> topologies;
  topologies.push_back({"Internet2", net::make_internet2(), 5000.0});
  topologies.push_back({"GEANT", net::make_geant(), 8000.0});

  std::vector<CellResult> cells;
  std::vector<double> repair_samples;  // pooled across all cells

  for (const TopoCase& tc : topologies) {
    core::ControllerConfig cfg;
    cfg.engine.strategy = core::PlacementStrategy::kGreedy;
    cfg.policied_fraction = 0.5;
    const core::AppleController controller(tc.topo,
                                           vnf::default_policy_chains(), cfg);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto series =
          bench::snapshot_series(tc.topo, tc.total_mbps, kSnapshots, seed);
      const core::Epoch epoch =
          controller.optimize(traffic::mean_matrix(series));
      for (const Scenario& scenario : scenarios()) {
        fault::ScheduleConfig sched_cfg = scenario.config;
        sched_cfg.seed = seed;
        const fault::FaultSchedule schedule =
            fault::make_schedule(tc.topo, sched_cfg);

        // A slow-boot fault can stretch a 30 s full-VM replacement boot to
        // 4x; the drain window must outlast the worst such repair.
        core::FaultReplayOptions options;
        options.drain_limit = 150.0;
        const core::FaultReplayResult first = core::replay_with_faults(
            controller, epoch, series, schedule, options);
        const core::FaultReplayResult second = core::replay_with_faults(
            controller, epoch, series, schedule, options);

        CellResult cell;
        cell.topology = tc.label;
        cell.scenario = scenario.label;
        cell.seed = seed;
        cell.report = first.recovery;
        cell.skipped = first.faults_skipped;
        cell.deterministic = identical(first, second);
        for (const fault::FaultRecord& r : cell.report.records) {
          if (r.repaired()) repair_samples.push_back(r.time_to_repair());
        }

        const fault::RecoveryReport& rec = cell.report;
        std::printf(
            "%-10s %-8s %-5llu %zu/%-7zu %6.3f / %-8.3f %6.3f / %-8.3f "
            "%-12.1f %-6s\n",
            cell.topology.c_str(), cell.scenario.c_str(),
            static_cast<unsigned long long>(cell.seed), rec.injected,
            rec.repaired, rec.detect_latency.p50, rec.detect_latency.p99,
            rec.repair_latency.p50, rec.repair_latency.p99,
            rec.traffic_lost_mbit + rec.unattributed_lost_mbit,
            cell.deterministic ? "yes" : "NO");
        cells.push_back(std::move(cell));
      }
    }
  }

  const fault::LatencyStats pooled =
      fault::LatencyStats::from_samples(repair_samples);
  std::printf("\npooled repair latency over %zu repairs: mean %.3f s, "
              "p50 %.3f s, p99 %.3f s, max %.3f s\n",
              pooled.count, pooled.mean, pooled.p50, pooled.p99, pooled.max);

  // Export the SLO headline numbers alongside the fault.* counters the
  // run accumulated. The explicit zero keeps fault.policy_violations
  // present in the snapshot even on a clean run, so the baseline gate can
  // pin it at 0 (any violation fails the <= tolerance check).
  APPLE_OBS_COUNT_N("fault.policy_violations", 0);
  APPLE_OBS_GAUGE_SET("fault.recovery.repair_p50_seconds", pooled.p50);
  APPLE_OBS_GAUGE_SET("fault.recovery.repair_p99_seconds", pooled.p99);
  APPLE_OBS_GAUGE_SET("fault.recovery.detect_p50_seconds", [&] {
    std::vector<double> detect;
    for (const CellResult& c : cells) {
      for (const fault::FaultRecord& r : c.report.records) {
        if (r.detected()) detect.push_back(r.time_to_detect());
      }
    }
    return fault::LatencyStats::from_samples(std::move(detect)).p50;
  }());
  bench::export_metrics_json("fault_recovery");
  bench::export_flight_json("fault_recovery");

  // Acceptance gates.
  bool ok = true;
  for (const CellResult& c : cells) {
    const std::string where =
        c.topology + "/" + c.scenario + "/seed=" + std::to_string(c.seed);
    if (!c.report.all_repaired()) {
      std::fprintf(stderr, "error: %s repaired %zu of %zu faults\n",
                   where.c_str(), c.report.repaired, c.report.injected);
      ok = false;
    }
    if (c.report.policy_violations != 0) {
      std::fprintf(stderr, "error: %s saw %zu policy violations\n",
                   where.c_str(), c.report.policy_violations);
      ok = false;
    }
    if (!c.deterministic) {
      std::fprintf(stderr, "error: %s was not byte-identical across runs\n",
                   where.c_str());
      ok = false;
    }
  }
  if (ok) {
    std::printf("\nall %zu cells repaired every fault with zero policy "
                "violations, byte-identically\n",
                cells.size());
  }
  return ok ? 0 : 1;
}
