#include "common.h"

#include "obs/metrics.h"

namespace perfbench {

// Generic names: every workload reports each of them (README.md maps them
// to the workload's own metrics).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"step_ms_p50", "ms"},
    {"replan_ms_mean", "ms"},
    {"loop_per_s", "1/s"},
    {"instances_mean", "count"},
};

// Per-step layer attributions are means per timed step of the workload
// (epoch, batch or segment), so they add up to the traced step time; a
// layer a workload bypasses reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"net.routing_ms", "ms"},
    {"traffic.store_build_ms", "ms/step"},
    {"traffic.materialize_ms", "ms/step"},
    {"core.diff_classes_ms", "ms/step"},
    {"core.replace_ms", "ms/step"},
    {"core.diff_plans_ms", "ms/step"},
    {"core.subclasses_ms", "ms/step"},
    {"core.rules_account_ms", "ms/step"},
    {"core.diff_rules_ms", "ms/step"},
    {"core.unattributed_ms", "ms/step"},
    {"core.place_ms", "ms/replan"},
    {"core.dirty_ratio", "fraction"},
    {"core.shards_clean_ratio", "fraction"},
    {"core.fallback_ratio", "fraction"},
    {"core.instances_launched", "count/step"},
    {"core.instances_retired", "count/step"},
    {"core.rules_installed", "count/step"},
    {"core.rules_removed", "count/step"},
    {"core.lp_gap", "fraction"},
    {"lp.relaxation_ms", "ms/replan"},
    {"lp.pivots_per_solve", "count"},
    {"lp.refactorizations_per_solve", "count"},
    {"dataplane.apply_delta_ms", "ms/step"},
    {"dataplane.install_ms", "ms/replan"},
    {"dataplane.walk_us", "us"},
    {"ctrl.submit_us", "us/request"},
    {"ctrl.drain_ms", "ms/step"},
    {"ctrl.propose_ms", "ms/step"},
    {"ctrl.reconcile_ms", "ms/step"},
    {"ctrl.commit_phase_ms", "ms/step"},
    {"ctrl.domains_dirty_ratio", "fraction"},
    {"ctrl.conflicts_per_batch", "count/step"},
    {"ctrl.rejected_ratio", "fraction"},
    {"ctrl.coalesced_ratio", "fraction"},
    {"ctrl.dropped_ratio", "fraction"},
    {"exec.pool.tasks_per_step", "count/step"},
    {"exec.pool.steals_per_step", "count/step"},
    {"sim.replay_ms_per_snapshot", "ms/snapshot"},
    {"sim.overload_events", "count/step"},
    {"sim.failover_launches", "count/step"},
    {"fault.replay_ms", "ms/step"},
    {"fault.probes", "count/step"},
    {"fault.boot_retries", "count/step"},
    {"fault.rule_retries", "count/step"},
    {"fault.repair_s_p50", "sim_s"},
    {"obs.trace_overhead_ratio", "ratio"},
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + purpose;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t run_passes(double seconds, std::size_t min_steps,
                       double cap_seconds, std::size_t min_passes,
                       const std::function<std::size_t(std::size_t)>& pass) {
  const Timer wall;
  std::size_t steps = 0;
  std::size_t passes = 0;
  do {
    steps += pass(passes++);
  } while ((wall.seconds() < seconds || steps < min_steps ||
            passes < min_passes) &&
           wall.seconds() < cap_seconds);
  return passes;
}

apple::fault::PolicyProbe make_probe(
    const apple::traffic::TrafficClass& cls,
    std::span<const apple::vnf::PolicyChain> chains, std::uint64_t salt) {
  apple::fault::PolicyProbe probe;
  probe.class_id = cls.id;
  const std::uint64_t h = derive_seed(cls.id, salt);
  probe.header.src_ip = 0x0A000000u + static_cast<std::uint32_t>(h & 0xffffff);
  probe.header.dst_ip = 0xC0A80000u + static_cast<std::uint32_t>((h >> 24) & 0xffff);
  probe.header.src_port = static_cast<std::uint16_t>(1024 + (h >> 40) % 60000);
  probe.header.dst_port = 443;
  probe.header.proto = 6;
  const apple::vnf::PolicyChain& chain = chains[cls.chain_id];
  probe.expected_chain.assign(chain.begin(), chain.end());
  return probe;
}

void sweep_probes(const apple::dataplane::DataPlane& dp,
                  std::span<const apple::fault::PolicyProbe> probes,
                  ProbeSweep& sweep) {
  for (const apple::fault::PolicyProbe& probe : probes) {
    const auto t0 = SteadyClock::now();
    const apple::dataplane::DataPlane::WalkResult walk =
        dp.walk(probe.class_id, probe.header);
    sweep.walk_seconds += seconds_between(t0, SteadyClock::now());
    ++sweep.walks;
    if (!walk.delivered) {
      ++sweep.dropped;
    } else if (dp.traversed_types(walk.packet) != probe.expected_chain) {
      ++sweep.violations;
    }
  }
}

std::uint64_t obs_counter(const char* name) {
  return apple::obs::default_registry().counter(name).value();
}

}  // namespace perfbench
