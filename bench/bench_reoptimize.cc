// Large-time-scale re-optimization (paper Sec. VI): full recompute vs the
// incremental epoch pipeline on a drifting snapshot series.
//
// Each topology starts from its gravity base matrix; every subsequent
// snapshot perturbs each OD entry by a deterministic factor in
// [1-kDrift, 1+kDrift]. With the default 5% pin threshold roughly half the
// classes stay pinned per step, so the incremental path re-solves a
// fraction of the commodities over residual capacity while the full path
// re-places everything from scratch.
//
// Reported per topology: wall-clock (full vs incremental, summed over the
// series), instance churn (full reinstall = retire the whole fleet and
// boot the next one each epoch; incremental = the PlanDelta ops actually
// emitted), rule churn, and the modeled control-plane makespan from
// Figs. 5/7 timings (ClickOS boot 4.25 s mean / reconfigure 30 ms /
// rule install 70 ms).
//
// Gate (exit 1 on violation), on the GEANT series — the acceptance case:
// the incremental path must beat the full path's wall-clock AND churn
// strictly fewer instances and rules than full reinstall. Churn counts are
// deterministic (greedy strategy, fixed seeds); wall-clock is averaged
// over the whole series to keep runner noise out of the comparison.
#include <chrono>
#include <cstdio>
#include <random>

#include "bench_common.h"
#include "core/epoch_pipeline.h"
#include "net/routing.h"
#include "traffic/class_store.h"
#include "vnf/nf_types.h"

namespace {

using namespace apple;

constexpr double kDrift = 0.10;        // per-entry perturbation bound
constexpr std::size_t kSnapshots = 8;  // perturbed snapshots per topology

double now_seconds(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Deterministic per-snapshot perturbation: entry (i, j) of snapshot t is
// the base entry scaled by U[1-kDrift, 1+kDrift] drawn from a seeded
// generator, so every run (and every machine) sees the same series.
traffic::TrafficMatrix perturb(const traffic::TrafficMatrix& base,
                               std::size_t snapshot_index) {
  std::mt19937_64 rng(1000 + snapshot_index);
  std::uniform_real_distribution<double> factor(1.0 - kDrift, 1.0 + kDrift);
  traffic::TrafficMatrix out(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = 0; j < base.size(); ++j) {
      out.set(i, j, base.at(i, j) * factor(rng));
    }
  }
  return out;
}

std::uint64_t total_rule_entries(const core::Epoch& epoch) {
  std::uint64_t total = 0;
  for (const auto& plans : epoch.subclasses) {
    total += core::rule_entries_for(plans);
  }
  return total;
}

struct SeriesResult {
  std::string label;
  std::size_t classes = 0;
  double full_s = 0.0, incremental_s = 0.0;
  std::uint64_t full_instance_churn = 0, incremental_instance_churn = 0;
  std::uint64_t full_rule_churn = 0, incremental_rule_churn = 0;
  double full_latency_s = 0.0, incremental_latency_s = 0.0;  // modeled, mean
  std::size_t pinned = 0, resolved = 0;                      // totals
  std::size_t fallbacks = 0;
};

SeriesResult run_series(const std::string& label, const net::Topology& topo,
                        double total_mbps) {
  const net::AllPairsPaths routing(topo);
  const auto chains = vnf::default_policy_chains();
  const auto assignment = bench::evaluation_chain_assignment(chains.size());
  const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = total_mbps});

  core::PipelineOptions options;
  options.engine.strategy = core::PlacementStrategy::kGreedy;
  const core::EpochPipeline pipeline(options);
  const orch::OrchestrationTimings& timings = pipeline.options().timings;

  // One-shard stores reproduce build_classes exactly: same classes, same
  // row-major order, same ids.
  const traffic::StoreBuildOptions one_shard{.num_shards = 1};
  core::Epoch seed = pipeline.run(
      topo, chains,
      traffic::build_class_store(topo, routing, base, assignment, one_shard));

  SeriesResult result;
  result.label = label;
  result.classes = seed.classes.size();

  // Full path: re-assemble every snapshot's epoch from scratch. Churn is a
  // complete reinstall — the previous fleet retires, the next one boots,
  // every rule is rewritten.
  {
    core::Epoch prev = seed;
    for (std::size_t t = 0; t < kSnapshots; ++t) {
      traffic::ClassStore store = traffic::build_class_store(
          topo, routing, perturb(base, t), assignment, one_shard);
      const auto t0 = std::chrono::steady_clock::now();
      core::Epoch next = pipeline.run(topo, chains, std::move(store));
      result.full_s += now_seconds(t0);
      result.full_instance_churn +=
          prev.plan.total_instances() + next.plan.total_instances();
      result.full_rule_churn +=
          total_rule_entries(prev) + total_rule_entries(next);
      result.full_latency_s += core::full_reinstall_latency(next, timings);
      prev = std::move(next);
    }
    result.full_latency_s /= static_cast<double>(kSnapshots);
  }

  // Incremental path: advance through the same series via the delta
  // stages; only dirty classes are re-solved and only churned instances
  // and rules are charged.
  {
    core::Epoch prev = std::move(seed);
    for (std::size_t t = 0; t < kSnapshots; ++t) {
      traffic::ClassStore store = traffic::build_class_store(
          topo, routing, perturb(base, t), assignment, one_shard);
      const auto t0 = std::chrono::steady_clock::now();
      core::IncrementalEpoch inc =
          pipeline.advance(prev, topo, chains, std::move(store));
      result.incremental_s += now_seconds(t0);
      result.incremental_instance_churn += inc.plan_delta.instances_launched +
                                           inc.plan_delta.instances_retired +
                                           inc.plan_delta.instances_reconfigured;
      result.incremental_rule_churn +=
          inc.rule_delta.rules_installed + inc.rule_delta.rules_removed;
      result.incremental_latency_s += inc.control_latency_s;
      result.pinned += inc.plan_delta.pinned_classes.size();
      result.resolved += inc.plan_delta.resolved_classes.size();
      if (inc.full_recompute) ++result.fallbacks;
      prev = std::move(inc.epoch);
    }
    result.incremental_latency_s /= static_cast<double>(kSnapshots);
  }
  return result;
}

}  // namespace

int main() {
  // A crashing APPLE_CHECK mid-series still leaves a flight journal for CI
  // to upload (DESIGN.md Sec. 13).
  obs::install_flight_crash_dump();
  bench::print_header(
      "Re-optimization: full recompute vs incremental pipeline (Sec. VI)");
  std::printf("%zu snapshots/topology, per-entry drift U[%.2f, %.2f], "
              "pin threshold %.0f%%, greedy strategy\n",
              kSnapshots, 1.0 - kDrift, 1.0 + kDrift,
              core::ClassDeltaOptions{}.rate_change_threshold * 100.0);
  std::printf("\n%-10s %-8s %-10s %-10s %-8s %-13s %-13s %-14s\n", "Topology",
              "Classes", "full (s)", "incr (s)", "Speedup", "Inst churn",
              "Rule churn", "Pinned/step");
  bench::print_rule();

  std::vector<SeriesResult> rows;
  rows.push_back(run_series("Internet2", net::make_internet2(), 1200.0));
  rows.push_back(run_series("GEANT", net::make_geant(), 4000.0));

  for (const SeriesResult& r : rows) {
    const double speedup =
        r.incremental_s > 0.0 ? r.full_s / r.incremental_s : 0.0;
    std::printf(
        "%-10s %-8zu %-10.4f %-10.4f %-8.2f %-13s %-13s %-14s\n",
        r.label.c_str(), r.classes, r.full_s, r.incremental_s, speedup,
        (std::to_string(r.full_instance_churn) + "/" +
         std::to_string(r.incremental_instance_churn))
            .c_str(),
        (std::to_string(r.full_rule_churn) + "/" +
         std::to_string(r.incremental_rule_churn))
            .c_str(),
        (std::to_string(r.pinned / kSnapshots) + " of " +
         std::to_string(r.classes))
            .c_str());
  }

  std::printf("\n%-10s %-22s %-22s %-10s\n", "Topology",
              "full makespan (s)", "incr makespan (s)", "Fallbacks");
  bench::print_rule();
  for (const SeriesResult& r : rows) {
    std::printf("%-10s %-22.3f %-22.3f %-10zu\n", r.label.c_str(),
                r.full_latency_s, r.incremental_latency_s, r.fallbacks);
  }
  std::printf(
      "\nChurn columns are full/incremental totals over the series: full\n"
      "reinstall retires and reboots the whole fleet (and rewrites every\n"
      "rule) each epoch, the incremental path only touches the PlanDelta/\n"
      "RuleDelta ops. Makespan is the modeled Figs. 5/7 control latency\n"
      "(parallel boots + serial rule installs), averaged per snapshot.\n");

  bench::export_metrics_json("reoptimize");
  bench::export_flight_json("reoptimize");

  // Acceptance gate (GEANT, <=10% drift): the incremental path must win
  // wall-clock and churn strictly fewer instances and rules than a full
  // reinstall.
  const SeriesResult& geant = rows.back();
  bool ok = true;
  if (geant.incremental_s >= geant.full_s) {
    std::fprintf(stderr,
                 "error: incremental wall-clock %.4fs did not beat full "
                 "recompute %.4fs on GEANT\n",
                 geant.incremental_s, geant.full_s);
    ok = false;
  }
  if (geant.incremental_instance_churn >= geant.full_instance_churn) {
    std::fprintf(stderr,
                 "error: incremental instance churn %llu not below full "
                 "reinstall %llu on GEANT\n",
                 static_cast<unsigned long long>(
                     geant.incremental_instance_churn),
                 static_cast<unsigned long long>(geant.full_instance_churn));
    ok = false;
  }
  if (geant.incremental_rule_churn >= geant.full_rule_churn) {
    std::fprintf(stderr,
                 "error: incremental rule churn %llu not below full "
                 "reinstall %llu on GEANT\n",
                 static_cast<unsigned long long>(geant.incremental_rule_churn),
                 static_cast<unsigned long long>(geant.full_rule_churn));
    ok = false;
  }
  return ok ? 0 : 1;
}
