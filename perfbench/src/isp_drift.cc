// isp-drift: the 100k-class incremental control loop on AS-3679.
//
// One pass: bring up an epoch from snapshot 0 of a diurnal series, then
// track snapshots 1..71. Every kReplanEvery-th snapshot is a full
// consolidation replan (greedy EpochPipeline::run plus a fresh
// RuleGenerator::install); every other one is an incremental epoch
// (build_class_store -> EpochPipeline::advance -> apply_rule_delta on the
// live DataPlane). Traced passes perform advance()'s stages one public call
// at a time so each gets its own timer, and must reproduce the untraced
// pass's per-epoch fingerprints exactly.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.h"
#include "core/epoch_pipeline.h"
#include "exec/thread_pool.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "traffic/class_store.h"
#include "traffic/synthesis.h"

namespace perfbench {

namespace {

using namespace apple;

constexpr std::size_t kShards = 64;
constexpr std::size_t kCatalogChains = 32;
constexpr std::size_t kChainsPerPair = 18;
constexpr double kTotalMbps = 20000.0;
// Hosts big enough that the residual water-filling rarely runs dry between
// replans (with 64 cores a few epochs per pass fall back to a full place).
constexpr double kHostCores = 128.0;
constexpr std::uint64_t kGravitySeed = 1;  // the network's demand structure
constexpr double kDiurnalAmplitude = 0.5;
constexpr double kNoiseSigma = 0.05;
constexpr std::size_t kSnapshotsPerPass = 72;
constexpr std::size_t kReplanEvery = 12;
constexpr std::size_t kProbesPerEpoch = 256;
constexpr std::size_t kPoolWorkers = 3;  // plus the calling thread
constexpr double kWeightTol = 1e-9;

// Per-layer sums over traced epochs (ms) and replans.
struct Layers {
  double store_build = 0, materialize = 0, diff_classes = 0, replace = 0,
         diff_plans = 0, subclasses = 0, rules_account = 0, diff_rules = 0,
         apply_delta = 0;
  std::size_t epochs = 0;
  double place = 0, install = 0;
  std::size_t replans = 0;
  std::uint64_t pool_tasks = 0, pool_steals = 0;
};

// Work counters over every committed incremental epoch.
struct Churn {
  double dirty = 0, considered = 0;
  double shards_clean = 0, shards = 0;
  std::size_t epochs = 0, fallbacks = 0;
  double launched = 0, retired = 0, rules_installed = 0, rules_removed = 0;
};

std::uint64_t epoch_fingerprint(const core::Epoch& epoch,
                                const core::RuleDelta* rules) {
  Fingerprint fp;
  for (const auto& counts : epoch.plan.instance_count) {
    for (const std::uint32_t c : counts) fp.add(c);
  }
  for (const traffic::TrafficClass& cls : epoch.classes) fp.add(cls.id);
  if (rules != nullptr) {
    for (const std::size_t h : rules->reinstall) fp.add(h);
    fp.add(0xffffffffULL);
    for (const traffic::ClassId id : rules->remove) fp.add(id);
    fp.add(rules->rules_installed);
    fp.add(rules->rules_removed);
  }
  return fp.value();
}

bool same_plans(const std::vector<dataplane::SubclassPlan>& a,
                const std::vector<dataplane::SubclassPlan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (a[s].subclass_id != b[s].subclass_id ||
        a[s].classifier_prefix_rules != b[s].classifier_prefix_rules ||
        std::abs(a[s].weight - b[s].weight) > kWeightTol ||
        a[s].itinerary.size() != b[s].itinerary.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a[s].itinerary.size(); ++i) {
      if (a[s].itinerary[i].at_switch != b[s].itinerary[i].at_switch ||
          a[s].itinerary[i].instances != b[s].itinerary[i].instances) {
        return false;
      }
    }
  }
  return true;
}

// Empty when the live-patched data plane serves exactly what a fresh
// install of `epoch` would: class ids, paths, sub-class plans, instances.
std::string dataplane_mismatch(const dataplane::DataPlane& live,
                               const dataplane::DataPlane& fresh,
                               const core::Epoch& epoch) {
  const std::vector<traffic::ClassId> ids = fresh.class_ids();
  if (live.class_ids() != ids) return "installed class ids differ";
  for (const traffic::ClassId id : ids) {
    if (live.path_of(id) != fresh.path_of(id)) {
      return "path of class " + std::to_string(id) + " differs";
    }
    if (!same_plans(live.plans_of(id), fresh.plans_of(id))) {
      return "sub-class plans of class " + std::to_string(id) + " differ";
    }
  }
  if (live.num_instances() != fresh.num_instances()) {
    return "instance count differs";
  }
  for (const auto& per_type : epoch.inventory.by_node_type) {
    for (const auto& bucket : per_type) {
      for (const vnf::InstanceId id : bucket) {
        const auto a = live.instance(id);
        const auto b = fresh.instance(id);
        if (!a || !b || a->type != b->type ||
            a->host_switch != b->host_switch ||
            a->capacity_mbps != b->capacity_mbps) {
          return "instance " + std::to_string(id) + " differs";
        }
      }
    }
  }
  return {};
}

// One session: the network, its inputs, and the live control-plane state.
struct Session {
  net::Topology topo;
  std::unique_ptr<net::AllPairsPaths> routing;
  std::vector<vnf::PolicyChain> chains;
  traffic::ChainAssignment assignment;
  std::vector<traffic::TrafficMatrix> series;
  core::EpochPipeline pipeline;
  core::Epoch epoch;
  std::unique_ptr<dataplane::DataPlane> dp;
};

traffic::ClassStore build_store(const Session& s, std::size_t snapshot,
                                exec::ThreadPool& pool) {
  traffic::StoreBuildOptions opt;
  opt.num_shards = kShards;
  opt.pool = &pool;
  return traffic::build_class_store(s.topo, *s.routing, s.series[snapshot],
                                    s.assignment, opt);
}

core::PipelineOptions pipeline_options() {
  core::PipelineOptions opt;
  opt.engine.strategy = core::PlacementStrategy::kGreedy;
  return opt;
}

// advance() followed by apply_rule_delta, one public call per stage.
core::IncrementalEpoch traced_advance(Session& s, traffic::ClassStore next,
                                      Layers& L) {
  const core::Epoch& prev = s.epoch;
  const core::PipelineOptions& opt = s.pipeline.options();
  core::IncrementalEpoch out;
  out.class_delta = timed_ms(L.diff_classes, [&] {
    return core::diff_classes(prev.store, next, opt.delta);
  });
  // Id carry-over (unattributed glue).
  traffic::ClassId next_class_id = prev.next_class_id;
  std::size_t h = 0;
  for (std::size_t sh = 0; sh < next.num_shards(); ++sh) {
    const std::size_t count = next.shard(sh).size();
    for (std::size_t i = 0; i < count; ++i, ++h) {
      const std::size_t p = out.class_delta.prev_of[h];
      next.set_id(sh, i,
                  p != core::kNoClass ? prev.classes[p].id : next_class_id++);
    }
  }
  std::vector<traffic::TrafficClass> classes =
      timed_ms(L.materialize, [&] { return next.materialize_view(); });
  core::PlacementInput input{&s.topo, classes, s.chains};
  const core::OptimizationEngine engine(opt.engine);
  core::PlacementPlan plan = timed_ms(L.replace, [&] {
    core::PlacementPlan p = engine.replace(input, prev.plan, out.class_delta);
    if (!p.feasible) {
      out.full_recompute = true;
      p = engine.place(input);
      if (!p.feasible) {
        throw std::runtime_error("placement infeasible: " +
                                 p.infeasibility_reason);
      }
    }
    return p;
  });
  core::Epoch& epoch = out.epoch;
  timed_ms(L.diff_plans, [&] {
    out.plan_delta = core::diff_plans(prev.plan, prev.inventory, plan,
                                      out.class_delta, prev.next_instance_id);
    epoch.inventory = core::advance_inventory(prev.inventory, out.plan_delta);
  });
  epoch.classes = std::move(classes);
  epoch.plan = std::move(plan);
  epoch.next_instance_id = static_cast<vnf::InstanceId>(
      prev.next_instance_id + out.plan_delta.instances_launched);
  epoch.next_class_id = next_class_id;
  input.classes = epoch.classes;
  epoch.subclasses = timed_ms(L.subclasses, [&] {
    return core::assign_subclasses(input, epoch.plan, epoch.inventory,
                                   opt.assigner);
  });
  epoch.rules = timed_ms(L.rules_account, [&] {
    return core::RuleGenerator().account(input, epoch.subclasses);
  });
  out.rule_delta = timed_ms(L.diff_rules, [&] {
    return core::diff_rules(prev.classes, prev.subclasses, epoch.classes,
                            epoch.subclasses, out.class_delta);
  });
  epoch.store = std::move(next);
  timed_ms(L.apply_delta, [&] {
    core::apply_rule_delta(input, epoch.subclasses, out.plan_delta,
                           out.rule_delta, *s.dp);
  });
  return out;
}

// Full replan: run() plus a fresh install into a new data plane.
void replan(Session& s, traffic::ClassStore store, bool traced, Layers& L) {
  auto dp = std::make_unique<dataplane::DataPlane>(s.topo);
  if (traced) {
    std::vector<traffic::TrafficClass> classes = store.materialize_view();
    core::PlacementInput input{&s.topo, classes, s.chains};
    core::PlacementPlan plan = timed_ms(L.place, [&] {
      return core::OptimizationEngine(s.pipeline.options().engine).place(input);
    });
    s.epoch = s.pipeline.assemble_epoch(s.topo, s.chains, std::move(classes),
                                        std::move(plan));
    s.epoch.store = std::move(store);
    const core::PlacementInput installed{&s.topo, s.epoch.classes, s.chains};
    timed_ms(L.install, [&] {
      core::RuleGenerator().install(installed, s.epoch.subclasses,
                                    s.epoch.inventory, *dp);
    });
    ++L.replans;
  } else {
    s.epoch = s.pipeline.run(s.topo, s.chains, std::move(store));
    const core::PlacementInput installed{&s.topo, s.epoch.classes, s.chains};
    core::RuleGenerator().install(installed, s.epoch.subclasses,
                                  s.epoch.inventory, *dp);
  }
  s.dp = std::move(dp);
}

// Set-up of one pass: topology, routing, inputs, the bring-up epoch and its
// first install. On the heap because the routing and the data plane point
// into the session.
std::unique_ptr<Session> bring_up(std::uint64_t seed, exec::ThreadPool& pool,
                                  double& routing_ms) {
  auto s = std::make_unique<Session>(
      Session{net::make_as3679(kHostCores), nullptr, {}, {}, {},
              core::EpochPipeline(pipeline_options()), {}, nullptr});
  routing_ms = ms_of(
      [&] { s->routing = std::make_unique<net::AllPairsPaths>(s->topo); });
  s->chains = vnf::scaled_policy_chains(kCatalogChains);
  s->assignment = traffic::scaled_chain_assignment(
      kCatalogChains, kChainsPerPair, /*seed=*/0, /*policied_fraction=*/1.0);
  const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
      s->topo.num_nodes(), {.total_mbps = kTotalMbps, .seed = kGravitySeed});
  traffic::DiurnalConfig diurnal;
  diurnal.num_snapshots = kSnapshotsPerPass;
  diurnal.diurnal_amplitude = kDiurnalAmplitude;
  diurnal.noise_sigma = kNoiseSigma;
  diurnal.seed = derive_seed(seed, 1);
  s->series = traffic::make_diurnal_series(base, diurnal);
  // Bring up on the noise-free midnight matrix, so set-up does the same
  // work for every seed; the seeded noise starts with snapshot 1.
  s->series[0] = base;
  s->series[0].scale(1.0 - kDiurnalAmplitude);
  Layers unused;
  replan(*s, build_store(*s, 0, pool), false, unused);
  return s;
}

}  // namespace

WorkloadResult run_isp_drift(const RunConfig& config) {
  WorkloadResult result;
  exec::ThreadPool pool(kPoolWorkers);

  std::vector<double> setup_s, routing_ms, epoch_ms, traced_epoch_ms,
      replan_ms;
  double loop_s = 0.0;
  std::size_t loop_snapshots = 0;
  std::vector<std::uint64_t> reference;  // pass 0's per-epoch fingerprints
  std::vector<double> instances;         // pass 0's committed epochs
  std::size_t epochs_attempted = 0, epochs_threw = 0;
  Layers L;
  Churn churn;
  ProbeSweep probes;

  const auto pass = [&](std::size_t index) -> std::size_t {
    const bool traced = config.trace && index % 2 == 1;
    const bool first = index == 0;
    std::vector<std::uint64_t> fps;
    std::size_t steps = 0;

    // ---- set-up, timed kSetupReps times in pass 0 (setup_s is their median).
    std::unique_ptr<Session> session;
    for (std::size_t r = 0; r < (first ? kSetupReps : 1); ++r) {
      session.reset();
      double routing = 0.0;
      const Timer setup;
      session = bring_up(config.seed, pool, routing);
      setup_s.push_back(setup.seconds());
      routing_ms.push_back(routing);
    }
    Session& s = *session;
    fps.push_back(epoch_fingerprint(s.epoch, nullptr));
    if (first) instances.push_back(static_cast<double>(s.epoch.plan.total_instances()));

    for (std::size_t t = 1; t < kSnapshotsPerPass; ++t) {
      const exec::ThreadPool::Stats pool_before = pool.stats();
      if (t % kReplanEvery == 0) {
        // Gate: the live-patched data plane equals a fresh install of the
        // epoch it claims to serve.
        if (first || traced) {
          dataplane::DataPlane fresh(s.topo);
          const core::PlacementInput input{&s.topo, s.epoch.classes, s.chains};
          core::RuleGenerator().install(input, s.epoch.subclasses,
                                        s.epoch.inventory, fresh);
          const std::string diff = dataplane_mismatch(*s.dp, fresh, s.epoch);
          if (!diff.empty()) {
            result.fail("isp-drift snapshot " + std::to_string(t) +
                        ": live data plane differs from a fresh install: " +
                        diff);
          }
        }
        ++epochs_attempted;
        const Timer step;
        try {
          replan(s, build_store(s, t, pool), traced, L);
        } catch (const std::runtime_error& e) {
          ++epochs_threw;
          result.notes.push_back(std::string("replan threw: ") + e.what());
          continue;
        }
        const double ms = step.ms();
        if (!traced) {
          replan_ms.push_back(ms);
          loop_s += ms / 1e3;
          ++loop_snapshots;
        }
        fps.push_back(epoch_fingerprint(s.epoch, nullptr));
      } else {
        ++epochs_attempted;
        const Timer step;
        core::IncrementalEpoch inc;
        try {
          if (traced) {
            traffic::ClassStore store = timed_ms(L.store_build, [&] {
              return build_store(s, t, pool);
            });
            inc = traced_advance(s, std::move(store), L);
          } else {
            inc = s.pipeline.advance(s.epoch, s.topo, s.chains,
                                     build_store(s, t, pool));
            const core::PlacementInput input{&s.topo, inc.epoch.classes,
                                             s.chains};
            core::apply_rule_delta(input, inc.epoch.subclasses,
                                   inc.plan_delta, inc.rule_delta, *s.dp);
          }
        } catch (const std::runtime_error& e) {
          ++epochs_threw;
          result.notes.push_back(std::string("advance threw: ") + e.what());
          continue;
        }
        const double ms = step.ms();
        s.epoch = std::move(inc.epoch);
        ++steps;
        if (traced) {
          traced_epoch_ms.push_back(ms);
          ++L.epochs;
          const exec::ThreadPool::Stats pool_after = pool.stats();
          L.pool_tasks += pool_after.tasks_executed - pool_before.tasks_executed;
          L.pool_steals += pool_after.steals - pool_before.steals;
        } else {
          epoch_ms.push_back(ms);
          loop_s += ms / 1e3;
          ++loop_snapshots;
        }
        if (first) {
          const core::ClassDelta& d = inc.class_delta;
          churn.dirty += static_cast<double>(d.dirty_count());
          churn.considered +=
              static_cast<double>(d.dirty_count() + d.unchanged.size());
          churn.shards_clean += static_cast<double>(d.shards_clean);
          churn.shards += static_cast<double>(d.shards_clean + d.shards_dirty);
          ++churn.epochs;
          churn.fallbacks += inc.full_recompute ? 1 : 0;
          churn.launched += static_cast<double>(inc.plan_delta.instances_launched);
          churn.retired += static_cast<double>(inc.plan_delta.instances_retired);
          churn.rules_installed += static_cast<double>(inc.rule_delta.rules_installed);
          churn.rules_removed += static_cast<double>(inc.rule_delta.rules_removed);
        }
        fps.push_back(epoch_fingerprint(s.epoch, &inc.rule_delta));
      }

      // Gates on every committed epoch: a feasible plan (pass 0; later
      // passes reproduce its plans), and a seeded probe sample served
      // through the right chain.
      if (first) {
        const core::PlacementInput input{&s.topo, s.epoch.classes, s.chains};
        const std::string bad = core::check_plan(input, s.epoch.plan);
        if (!bad.empty()) {
          result.fail("isp-drift snapshot " + std::to_string(t) +
                      ": committed plan fails check_plan: " + bad);
        }
      }
      std::vector<fault::PolicyProbe> sample;
      sample.reserve(kProbesPerEpoch);
      for (std::size_t k = 0; k < kProbesPerEpoch; ++k) {
        const std::uint64_t pick = derive_seed(config.seed, t * 1000003 + k);
        sample.push_back(make_probe(
            s.epoch.classes[pick % s.epoch.classes.size()], s.chains, t));
      }
      sweep_probes(*s.dp, sample, probes);
      if (first) {
        instances.push_back(static_cast<double>(s.epoch.plan.total_instances()));
      }
    }

    if (first) {
      reference = fps;
    } else if (fps != reference) {
      result.fail(std::string("isp-drift pass ") + std::to_string(index) +
                  (traced ? " (traced)" : "") +
                  " did not reproduce pass 0's per-epoch fingerprints");
    }
    return steps;
  };

  const std::size_t min_steps = min_samples_for(kTailPercentile);
  result.passes = run_passes(config.seconds, min_steps, /*cap_seconds=*/120.0,
                             config.trace ? 2 : 1, pass);

  Fingerprint fp;
  for (const std::uint64_t v : reference) fp.add(v);
  result.fingerprint = fp.value();
  if (probes.violations != 0 || probes.dropped != 0) {
    result.fail("isp-drift: " + std::to_string(probes.violations) +
                " policy violations and " + std::to_string(probes.dropped) +
                " dropped probes");
  }
  result.failures = isp_drift_failures(epochs_attempted, epochs_threw);

  const double epoch_p50 = median(epoch_ms);
  const double epoch_tail = quantile(epoch_ms, kTailPercentile / 100.0);
  const double instances_mean = mean(instances);
  result.end_to_end = {
      {"setup_s", median(setup_s)},
      {"step_ms_p50", epoch_p50},
      {"replan_ms_mean", mean(replan_ms)},
      {"loop_per_s", static_cast<double>(loop_snapshots) / loop_s},
      {"instances_mean", instances_mean},
  };
  result.report = {
      {"setup_s", "s", median(setup_s)},
      {"epoch_ms_p50", "ms", epoch_p50},
      {"epoch_ms_p90", "ms", epoch_tail},
      {"epoch_samples", "count", static_cast<double>(epoch_ms.size())},
      {"tail_supported", "percentile", tail_percentile(epoch_ms.size())},
      {"replan_ms_p50", "ms", median(replan_ms)},
      {"replan_ms_mean", "ms", mean(replan_ms)},
      {"replan_samples", "count", static_cast<double>(replan_ms.size())},
      {"snapshots_per_s", "1/s", result.end_to_end["loop_per_s"]},
      {"instances_mean", "count", instances_mean},
      {"fallbacks", "count", static_cast<double>(churn.fallbacks)},
      {"policy_violations", "count", static_cast<double>(probes.violations)},
      {"probe_walks", "count", static_cast<double>(probes.walks)},
      {"failed_ratio", "fraction", result.failures.ratio()},
  };

  if (config.trace) {
    const auto per_epoch = [&](double sum) {
      return L.epochs == 0 ? 0.0 : sum / static_cast<double>(L.epochs);
    };
    const auto per_replan = [&](double sum) {
      return L.replans == 0 ? 0.0 : sum / static_cast<double>(L.replans);
    };
    const double traced_total = mean(traced_epoch_ms);
    const double attributed =
        per_epoch(L.store_build + L.materialize + L.diff_classes + L.replace +
                  L.diff_plans + L.subclasses + L.rules_account +
                  L.diff_rules + L.apply_delta);
    const double unattributed = traced_total - attributed;
    if (unattributed < 0.0) {
      result.fail("isp-drift trace: stage timers exceed the epoch time");
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    result.per_layer = {
        {"net.routing_ms", median(routing_ms)},
        {"traffic.store_build_ms", per_epoch(L.store_build)},
        {"traffic.materialize_ms", per_epoch(L.materialize)},
        {"core.diff_classes_ms", per_epoch(L.diff_classes)},
        {"core.replace_ms", per_epoch(L.replace)},
        {"core.diff_plans_ms", per_epoch(L.diff_plans)},
        {"core.subclasses_ms", per_epoch(L.subclasses)},
        {"core.rules_account_ms", per_epoch(L.rules_account)},
        {"core.diff_rules_ms", per_epoch(L.diff_rules)},
        {"core.unattributed_ms", unattributed},
        {"core.place_ms", per_replan(L.place)},
        {"core.dirty_ratio", ratio(churn.dirty, churn.considered)},
        {"core.shards_clean_ratio", ratio(churn.shards_clean, churn.shards)},
        {"core.fallback_ratio",
         ratio(static_cast<double>(churn.fallbacks),
               static_cast<double>(churn.epochs))},
        {"core.instances_launched",
         ratio(churn.launched, static_cast<double>(churn.epochs))},
        {"core.instances_retired",
         ratio(churn.retired, static_cast<double>(churn.epochs))},
        {"core.rules_installed",
         ratio(churn.rules_installed, static_cast<double>(churn.epochs))},
        {"core.rules_removed",
         ratio(churn.rules_removed, static_cast<double>(churn.epochs))},
        {"dataplane.apply_delta_ms", per_epoch(L.apply_delta)},
        {"dataplane.install_ms", per_replan(L.install)},
        {"dataplane.walk_us",
         probes.walks == 0 ? 0.0
                           : probes.walk_seconds * 1e6 /
                                 static_cast<double>(probes.walks)},
        {"exec.pool.tasks_per_step",
         per_epoch(static_cast<double>(L.pool_tasks))},
        {"exec.pool.steals_per_step",
         per_epoch(static_cast<double>(L.pool_steals))},
        {"obs.trace_overhead_ratio", ratio(median(traced_epoch_ms), epoch_p50)},
    };
  }
  return result;
}

}  // namespace perfbench
