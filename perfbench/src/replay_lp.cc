// replay-lp: LP-relaxation re-placement, fluid replay and fault replay on
// GEANT.
//
// One pass: a diurnal series with 4x bursts cut into kSegmentsPerPass
// segments of kSegment snapshots. Per segment: an lp-round
// AppleController::optimize of the segment's mean matrix (the replan), a
// policy-probe sweep of the freshly installed epoch, a fast-failover
// replay (AppleController::replay) and a chaos fault replay
// (core::replay_with_faults, the timed step) whose schedule seed derives
// from the segment index. Traced passes split the optimize into its public
// calls and re-solve the LP relaxation outside the replan timer.
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "common.h"
#include "core/apple_controller.h"
#include "core/fault_replay.h"
#include "core/ilp_builder.h"
#include "core/placement.h"
#include "fault/fault_schedule.h"
#include "lp/simplex.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/synthesis.h"

namespace perfbench {

namespace {

using namespace apple;

constexpr double kTotalMbps = 16000.0;     // GEANT stress load (Fig. 12)
// With the default 64-core hosts about one seed in 30 runs a host out of
// cores for a same-host recovery launch, and the fault replay throws.
constexpr double kHostCores = 128.0;
constexpr std::uint64_t kGravitySeed = 30;  // the network's demand structure
constexpr std::size_t kSegment = 8;
constexpr std::size_t kSegmentsPerPass = 12;
constexpr std::size_t kProbesPerClass = 2;
constexpr double kDrainLimit_s = 150.0;  // outlasts a 4x slow 30 s VM boot

core::ControllerConfig controller_config() {
  core::ControllerConfig cfg;
  cfg.engine.strategy = core::PlacementStrategy::kLpRound;
  cfg.policied_fraction = 0.4;
  return cfg;
}

fault::ScheduleConfig chaos(std::uint64_t seed) {
  fault::ScheduleConfig c;
  c.seed = seed;
  c.start = 1.0;
  c.horizon = static_cast<double>(kSegment) - 1.0;
  c.instance_crashes = 2;
  c.link_flaps = 1;
  c.boot_failures = 1;
  c.slow_boots = 1;
  c.rule_install_failures = 1;
  c.correlated_bursts = 1;
  return c;
}

struct Layers {
  double replan = 0, store_build = 0, materialize = 0, place = 0;
  double relaxation = 0, pivots = 0, refactorizations = 0, gap = 0;
  double install = 0, replay = 0, fault = 0;
  double snapshots = 0, overloads = 0, launches = 0, fault_probes = 0,
         boot_retries = 0, rule_retries = 0;
  std::size_t segments = 0;
  std::vector<double> repair_s;
};

// One pass's inputs and controller. On the heap: the controller points to
// the topology.
struct Session {
  net::Topology topo;
  std::vector<traffic::TrafficMatrix> series;
  std::unique_ptr<core::AppleController> controller;
};

// Set-up of one pass: topology, routing, the bursty series, the controller,
// and a bring-up epoch with its first install.
std::unique_ptr<Session> bring_up(std::uint64_t seed, double& routing_ms) {
  auto s = std::make_unique<Session>();
  s->topo = net::make_geant(kHostCores);
  routing_ms = ms_of([&] { const net::AllPairsPaths routing(s->topo); });
  const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
      s->topo.num_nodes(), {.total_mbps = kTotalMbps, .seed = kGravitySeed});
  traffic::DiurnalConfig diurnal;
  diurnal.num_snapshots = kSegment * kSegmentsPerPass;
  diurnal.diurnal_amplitude = 0.15;
  diurnal.noise_sigma = 0.08;
  diurnal.seed = derive_seed(seed, 3);
  s->series = traffic::make_diurnal_series(base, diurnal);
  traffic::BurstConfig bursts;
  bursts.probability = 0.2;
  bursts.magnitude = 4.0;
  bursts.duration = 3;
  bursts.seed = derive_seed(seed, 4);
  traffic::inject_bursts(s->series, bursts);
  s->controller = std::make_unique<core::AppleController>(
      s->topo, vnf::default_policy_chains(), controller_config());
  // The bring-up epoch uses the noise- and burst-free base matrix, so
  // set-up does the same work for every seed.
  const core::Epoch epoch = s->controller->optimize(base);
  dataplane::DataPlane dp(s->topo);
  const core::PlacementInput input{&s->topo, epoch.classes,
                                   s->controller->chains()};
  core::RuleGenerator().install(input, epoch.subclasses, epoch.inventory, dp);
  return s;
}

}  // namespace

WorkloadResult run_replay_lp(const RunConfig& config) {
  WorkloadResult result;
  std::vector<double> setup_s, routing_ms, fault_ms, replan_ms,
      traced_replan_ms, instances, losses;
  double replay_s = 0.0;
  std::size_t replayed = 0;
  std::size_t segments = 0, infeasible = 0, injected = 0, unrepaired = 0;
  std::uint64_t reference = 0;
  Layers L;
  ProbeSweep probes;

  const auto pass = [&](std::size_t index) -> std::size_t {
    const bool traced = config.trace && index % 2 == 1;
    const bool first = index == 0;
    Fingerprint fp;

    // ---- set-up, timed kSetupReps times in pass 0 (setup_s is their median).
    std::unique_ptr<Session> session;
    for (std::size_t r = 0; r < (first ? kSetupReps : 1); ++r) {
      session.reset();
      double routing_time = 0.0;
      const Timer setup;
      session = bring_up(config.seed, routing_time);
      setup_s.push_back(setup.seconds());
      routing_ms.push_back(routing_time);
    }
    const net::Topology& topo = session->topo;
    const std::vector<traffic::TrafficMatrix>& series = session->series;
    const core::AppleController& controller = *session->controller;

    std::size_t steps = 0;
    for (std::size_t k = 0; k < kSegmentsPerPass; ++k) {
      const std::span<const traffic::TrafficMatrix> segment =
          std::span<const traffic::TrafficMatrix>(series).subspan(
              k * kSegment, kSegment);
      const traffic::TrafficMatrix mean = traffic::mean_matrix(segment);
      ++segments;

      // ---- replan: lp-round optimize of the segment's mean matrix.
      core::Epoch epoch;
      const Timer replan;
      try {
        if (traced) {
          traffic::ClassStore store = timed_ms(
              L.store_build, [&] { return controller.build_class_store(mean); });
          std::vector<traffic::TrafficClass> classes = timed_ms(
              L.materialize, [&] { return store.materialize_view(); });
          const core::PlacementInput input{&topo, classes, controller.chains()};
          core::PlacementPlan plan = timed_ms(L.place, [&] {
            return core::OptimizationEngine(controller_config().engine)
                .place(input);
          });
          epoch = controller.pipeline().assemble_epoch(
              topo, controller.chains(), std::move(classes), std::move(plan));
          epoch.store = std::move(store);
        } else {
          epoch = controller.optimize(mean);
        }
      } catch (const std::runtime_error& e) {
        ++infeasible;
        result.notes.push_back(std::string("optimize threw: ") + e.what());
        continue;
      }
      const double replan_time = replan.ms();
      const core::PlacementInput input{&topo, epoch.classes,
                                       controller.chains()};
      if (traced) {
        traced_replan_ms.push_back(replan_time);
        L.replan += replan_time;
        const std::uint64_t refac0 = obs_counter("lp.simplex.refactorizations");
        lp::LpSolution relax;
        timed_ms(L.relaxation, [&] {
          const core::IlpBuilder builder(input, /*integral_q=*/false);
          relax = lp::SimplexSolver(controller_config().engine.simplex)
                      .solve(builder.model());
        });
        L.pivots += static_cast<double>(relax.iterations);
        L.refactorizations += static_cast<double>(
            obs_counter("lp.simplex.refactorizations") - refac0);
        if (epoch.plan.lower_bound > 0.0) {
          L.gap += (static_cast<double>(epoch.plan.total_instances()) -
                    epoch.plan.lower_bound) /
                   epoch.plan.lower_bound;
        }
      } else {
        replan_ms.push_back(replan_time);
      }
      const std::string bad = core::check_plan(input, epoch.plan);
      if (!bad.empty()) {
        result.fail("replay-lp segment " + std::to_string(k) +
                    ": plan fails check_plan: " + bad);
      }
      if (first) {
        instances.push_back(static_cast<double>(epoch.plan.total_instances()));
      }

      // ---- bulk probe sweep of the freshly installed epoch.
      {
        dataplane::DataPlane dp(topo);
        double install = 0.0;
        timed_ms(install, [&] {
          core::RuleGenerator().install(input, epoch.subclasses,
                                        epoch.inventory, dp);
        });
        std::vector<fault::PolicyProbe> sweep;
        sweep.reserve(epoch.classes.size() * kProbesPerClass);
        for (const traffic::TrafficClass& cls : epoch.classes) {
          for (std::size_t p = 0; p < kProbesPerClass; ++p) {
            sweep.push_back(make_probe(cls, controller.chains(), k * 31 + p));
          }
        }
        sweep_probes(dp, sweep, probes);
        if (traced) L.install += install;
      }

      // ---- fast-failover fluid replay of the segment.
      const Timer replay;
      const core::ReplayReport rep = controller.replay(epoch, segment, true);
      const double replay_time = replay.seconds();
      if (traced) {
        L.replay += replay_time * 1e3;
        L.snapshots += static_cast<double>(segment.size());
        L.overloads += static_cast<double>(rep.failover.overload_events);
        L.launches += static_cast<double>(rep.failover.instances_launched);
      } else {
        replay_s += replay_time;
        replayed += segment.size();
      }
      if (first) {
        losses.insert(losses.end(), rep.snapshot_loss.begin(),
                      rep.snapshot_loss.end());
      }

      // ---- the step: chaos fault replay of the segment.
      core::FaultReplayOptions options;
      options.drain_limit = kDrainLimit_s;
      const fault::FaultSchedule schedule =
          fault::make_schedule(topo, chaos(derive_seed(config.seed, 100 + k)));
      const Timer step;
      core::FaultReplayResult fr;
      try {
        fr = core::replay_with_faults(controller, epoch, segment, schedule,
                                      options);
      } catch (const std::logic_error& e) {
        // A recovery the program could not carry out: every fault of the
        // schedule counts as injected and unrepaired.
        injected += schedule.num_faults();
        unrepaired += schedule.num_faults();
        result.notes.push_back(std::string("fault replay threw: ") + e.what());
        continue;
      }
      const double ms = step.ms();
      const fault::RecoveryReport& rec = fr.recovery;
      if (rec.policy_violations != 0) {
        result.fail("replay-lp segment " + std::to_string(k) + ": " +
                    std::to_string(rec.policy_violations) +
                    " policy violations under faults");
      }
      injected += rec.injected;
      unrepaired += rec.injected - rec.repaired;
      ++steps;
      if (traced) {
        L.fault += ms;
        L.fault_probes += static_cast<double>(rec.policy_probes);
        L.boot_retries += static_cast<double>(fr.boot_retries);
        L.rule_retries += static_cast<double>(fr.rule_retries);
        for (const fault::FaultRecord& r : rec.records) {
          if (r.repaired()) L.repair_s.push_back(r.time_to_repair());
        }
        ++L.segments;
      } else {
        fault_ms.push_back(ms);
      }

      for (const auto& counts : epoch.plan.instance_count) {
        for (const std::uint32_t c : counts) fp.add(c);
      }
      for (const double loss : rep.snapshot_loss) fp.add_double(loss);
      for (const char c : rec.fingerprint()) fp.add(static_cast<unsigned char>(c));
      fp.add_double(fr.end_time);
    }

    if (first) {
      reference = fp.value();
    } else if (fp.value() != reference) {
      result.fail("replay-lp pass " + std::to_string(index) +
                  (traced ? " (traced)" : "") +
                  " did not reproduce pass 0's fingerprint");
    }
    return steps;
  };

  result.passes = run_passes(config.seconds, min_samples_for(kTailPercentile),
                             /*cap_seconds=*/120.0, config.trace ? 2 : 1, pass);
  result.fingerprint = reference;
  result.failures =
      replay_lp_failures(segments, infeasible, injected, unrepaired);
  if (probes.violations != 0 || probes.dropped != 0) {
    result.fail("replay-lp: " + std::to_string(probes.violations) +
                " policy violations and " + std::to_string(probes.dropped) +
                " dropped probes on fresh installs");
  }

  const double p50 = median(fault_ms);
  const double tail = quantile(fault_ms, kTailPercentile / 100.0);
  const double snaps_per_s = static_cast<double>(replayed) / replay_s;
  const double mean_loss = mean(losses);
  result.end_to_end = {
      {"setup_s", median(setup_s)},
      {"step_ms_p50", p50},
      {"replan_ms_mean", mean(replan_ms)},
      {"loop_per_s", snaps_per_s},
      {"instances_mean", mean(instances)},
  };
  result.report = {
      {"setup_s", "s", median(setup_s)},
      {"replan_ms_p50", "ms", median(replan_ms)},
      {"replan_ms_mean", "ms", mean(replan_ms)},
      {"replan_ms_p90", "ms", quantile(replan_ms, kTailPercentile / 100.0)},
      {"replay_snapshots_per_s", "snap/s", snaps_per_s},
      {"fault_replay_ms_p50", "ms", p50},
      {"fault_replay_ms_p90", "ms", tail},
      {"segment_samples", "count", static_cast<double>(fault_ms.size())},
      {"tail_supported", "percentile", tail_percentile(fault_ms.size())},
      {"instances_mean", "count", mean(instances)},
      {"mean_loss", "fraction", mean_loss},
      {"policy_violations", "count", static_cast<double>(probes.violations)},
      {"probe_walks", "count", static_cast<double>(probes.walks)},
      {"failed_ratio", "fraction", result.failures.ratio()},
  };

  if (config.trace) {
    const double n = static_cast<double>(L.segments);
    const auto per_segment = [&](double sum) { return n > 0 ? sum / n : 0.0; };
    const double attributed = L.store_build + L.materialize + L.place;
    const double unattributed = per_segment(L.replan - attributed);
    if (unattributed < 0.0) {
      result.fail("replay-lp trace: stage timers exceed the replan time");
    }
    result.per_layer = {
        {"net.routing_ms", median(routing_ms)},
        {"traffic.store_build_ms", per_segment(L.store_build)},
        {"traffic.materialize_ms", per_segment(L.materialize)},
        {"core.unattributed_ms", unattributed},
        {"core.place_ms", per_segment(L.place)},
        {"core.lp_gap", per_segment(L.gap)},
        {"lp.relaxation_ms", per_segment(L.relaxation)},
        {"lp.pivots_per_solve", per_segment(L.pivots)},
        {"lp.refactorizations_per_solve", per_segment(L.refactorizations)},
        {"dataplane.install_ms", per_segment(L.install)},
        {"dataplane.walk_us",
         probes.walks == 0 ? 0.0
                           : probes.walk_seconds * 1e6 /
                                 static_cast<double>(probes.walks)},
        {"sim.replay_ms_per_snapshot",
         L.snapshots > 0 ? L.replay / L.snapshots : 0.0},
        {"sim.overload_events", per_segment(L.overloads)},
        {"sim.failover_launches", per_segment(L.launches)},
        {"fault.replay_ms", per_segment(L.fault)},
        {"fault.probes", per_segment(L.fault_probes)},
        {"fault.boot_retries", per_segment(L.boot_retries)},
        {"fault.rule_retries", per_segment(L.rule_retries)},
        {"fault.repair_s_p50", median(L.repair_s)},
        {"obs.trace_overhead_ratio",
         median(replan_ms) > 0 ? median(traced_replan_ms) / median(replan_ms)
                               : 0.0},
    };
  }
  return result;
}

}  // namespace perfbench
