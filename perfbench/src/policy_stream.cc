// policy-stream: many small commits through the multi-domain control plane.
//
// One pass: bring up AS-3679 split into kDomains domains, then run a closed
// loop with one client: submit kBatch requests, drain, apply, repeat for
// kBatchesPerPass batches. Every kReplanEvery batches the live population
// is re-placed from scratch by a fresh controller's initialize() (the
// benchmark's full re-placement of this workload); every kSweepEvery
// batches and at the end every domain is swept with its policy probes.
#include <memory>
#include <string>
#include <string_view>

#include "common.h"
#include "core/placement.h"
#include "ctrl/admission.h"
#include "ctrl/multi_domain.h"
#include "exec/thread_pool.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "policy_stream_gen.h"
#include "traffic/synthesis.h"

namespace perfbench {

namespace {

using namespace apple;

constexpr std::size_t kCatalogChains = 32;
constexpr std::size_t kChainsPerPair = 4;
constexpr double kPoliciedFraction = 0.4;
constexpr double kTotalMbps = 8000.0;
constexpr double kHostCores = 128.0;
constexpr std::uint64_t kGravitySeed = 1;    // the network's demand structure
constexpr std::uint64_t kPartitionSeed = 17;  // the operator's domain split
constexpr std::size_t kDomains = 4;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kBatchesPerPass = 600;
constexpr std::size_t kSweepEvery = 50;
constexpr std::size_t kReplanEvery = 100;
constexpr double kSubmitGap_s = 1e-4;  // simulated clock step per submit
constexpr std::size_t kPoolWorkers = 2;  // plus the calling thread

struct Layers {
  double submit = 0, drain = 0, propose = 0, reconcile = 0, commit = 0;
  std::size_t requests = 0, batches = 0;
  double domains_dirty = 0, conflicts = 0, rejected = 0, accepted = 0,
         coalesced = 0, dropped = 0;
  double dirty = 0, considered = 0, fallbacks = 0, advances = 0;
  double launched = 0, retired = 0, rules_installed = 0, rules_removed = 0;
  std::uint64_t pool_tasks = 0, pool_steals = 0;
};

std::uint64_t report_fingerprint(const ctrl::ApplyReport& r) {
  Fingerprint fp;
  fp.add(r.domains_dirty);
  fp.add(r.domains_clean);
  fp.add(r.conflicts);
  fp.add(r.rejected_domains);
  fp.add(r.requests_applied);
  fp.add(r.requests_dropped);
  fp.add(r.instances_launched);
  fp.add(r.instances_retired);
  fp.add(r.instances_reconfigured);
  fp.add(r.rules_installed);
  fp.add(r.rules_removed);
  return fp.value();
}

ctrl::DomainConfig domain_config() {
  ctrl::DomainConfig domains;
  domains.num_domains = kDomains;
  domains.seed = kPartitionSeed;
  return domains;
}

// One pass's control plane. On the heap: the controller and the queue hold
// pointers to the topology, chains and partition.
struct Session {
  net::Topology topo;
  std::unique_ptr<net::AllPairsPaths> routing;
  std::vector<vnf::PolicyChain> chains;
  std::unique_ptr<PolicyStreamGenerator> client;
  std::unique_ptr<ctrl::MultiDomainController> controller;
  std::unique_ptr<ctrl::AdmissionQueue> queue;
};

// Set-up of one pass: topology, routing, bring-up classes, the client and
// the controller's initialize.
std::unique_ptr<Session> bring_up(std::uint64_t seed, exec::ThreadPool& pool,
                                  double& routing_ms) {
  auto s = std::make_unique<Session>();
  s->topo = net::make_as3679(kHostCores);
  routing_ms = ms_of(
      [&] { s->routing = std::make_unique<net::AllPairsPaths>(s->topo); });
  s->chains = vnf::scaled_policy_chains(kCatalogChains);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      s->topo.num_nodes(), {.total_mbps = kTotalMbps, .seed = kGravitySeed});
  std::vector<traffic::TrafficClass> classes = traffic::build_classes(
      s->topo, *s->routing, tm,
      traffic::scaled_chain_assignment(kCatalogChains, kChainsPerPair,
                                       /*seed=*/0, kPoliciedFraction));
  s->client = std::make_unique<PolicyStreamGenerator>(
      derive_seed(seed, 2), classes, s->topo.num_nodes(), kCatalogChains);
  s->controller = std::make_unique<ctrl::MultiDomainController>(
      s->topo, s->chains, domain_config(), core::PipelineOptions{}, &pool);
  s->controller->initialize(std::move(classes));
  ctrl::AdmissionConfig admission;
  admission.batching_window_s = 1.0;  // batches are cut by max_batch
  admission.max_batch = kBatch;
  s->queue = std::make_unique<ctrl::AdmissionQueue>(
      s->topo, s->controller->partition(), kCatalogChains, admission);
  return s;
}

}  // namespace

WorkloadResult run_policy_stream(const RunConfig& config) {
  WorkloadResult result;
  exec::ThreadPool pool(kPoolWorkers);

  std::vector<double> setup_s, routing_ms, commit_ms, traced_commit_ms,
      replan_ms, instances;
  double loop_s = 0.0;
  std::size_t committed = 0;
  std::size_t submitted = 0, refused = 0, failed = 0;
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
      session = bring_up(config.seed, pool, routing_time);
      setup_s.push_back(setup.seconds());
      routing_ms.push_back(routing_time);
    }
    const net::Topology& topo = session->topo;
    const net::AllPairsPaths& routing = *session->routing;
    const std::vector<vnf::PolicyChain>& chains = session->chains;
    PolicyStreamGenerator& client = *session->client;
    ctrl::MultiDomainController& controller = *session->controller;
    ctrl::AdmissionQueue& queue = *session->queue;

    const auto routable = [&](net::NodeId s, net::NodeId d) {
      return routing.path(s, d).has_value();
    };
    // Traced: apply() split at its "proposed" and "reconciled" callbacks;
    // the commit phase runs from "reconciled" until apply() returns.
    SteadyClock::time_point phase_start;
    double phase_ms[2] = {0, 0};  // propose, reconcile
    if (traced) {
      controller.set_phase_observer([&](std::string_view phase) {
        if (phase == "committed") return;
        const auto now = SteadyClock::now();
        phase_ms[phase == "proposed" ? 0 : 1] =
            seconds_between(phase_start, now) * 1e3;
        phase_start = now;
      });
    }

    const auto sweep = [&](const char* when) {
      ProbeSweep here;
      for (std::size_t d = 0; d < controller.num_domains(); ++d) {
        sweep_probes(controller.domain_dataplane(d),
                     controller.probes_for_domain(d), here);
      }
      if (here.violations != 0 || here.dropped != 0) {
        result.fail(std::string("policy-stream ") + when + ": " +
                    std::to_string(here.violations) + " violations, " +
                    std::to_string(here.dropped) + " dropped probes");
      }
      probes.walks += here.walks;
      probes.violations += here.violations;
      probes.dropped += here.dropped;
      probes.walk_seconds += here.walk_seconds;
    };

    double clock = 0.0;
    std::size_t steps = 0;
    for (std::size_t b = 0; b < kBatchesPerPass; ++b) {
      double submit_ms = 0.0;
      for (std::size_t k = 0; k < kBatch; ++k) {
        const ctrl::PolicyRequest r = client.next();
        const bool ok =
            timed_ms(submit_ms, [&] { return queue.submit(r, clock); });
        ++submitted;
        if (!ok) ++refused;
        clock += kSubmitGap_s;
      }
      if (!queue.batch_ready(clock)) {
        result.fail("policy-stream: admission queue did not cut a batch");
        break;
      }
      double drain_ms = 0.0;
      const ctrl::PolicyBatch batch =
          timed_ms(drain_ms, [&] { return queue.drain(clock); });

      // The benchmark's own view of the batch: which domains it dirties
      // and which of them commit a new epoch.
      std::vector<DomainBatchOutcome> outcomes(kDomains);
      std::vector<std::size_t> applied(kDomains, 0);
      std::size_t fold_applied = 0, fold_dropped = 0;
      for (std::size_t d = 0; d < kDomains; ++d) {
        outcomes[d].requests = batch.per_domain[d].size();
        if (batch.per_domain[d].empty()) continue;
        const FoldCount fold = fold_outcome(
            controller.domain_epoch(d).classes, batch.per_domain[d], routable);
        applied[d] = fold.applied;
        fold_applied += fold.applied;
        fold_dropped += fold.dropped;
        outcomes[d].dirty = fold.applied > 0;
      }
      std::vector<std::size_t> epochs_before(kDomains);
      for (std::size_t d = 0; d < kDomains; ++d) {
        epochs_before[d] = controller.domain_status(d).epochs;
      }
      const std::uint64_t added0 = obs_counter("core.pipeline.classes_added");
      const std::uint64_t changed0 =
          obs_counter("core.pipeline.classes_rate_changed");
      const std::uint64_t pinned0 = obs_counter("core.pipeline.classes_pinned");
      const std::uint64_t fallback0 = obs_counter("core.pipeline.fallback_full");
      const std::uint64_t advance0 =
          obs_counter("core.pipeline.epochs_incremental");
      const exec::ThreadPool::Stats pool0 = pool.stats();

      phase_start = SteadyClock::now();
      const Timer apply;
      const ctrl::ApplyReport report = controller.apply(batch);
      const double ms = apply.ms();

      for (std::size_t d = 0; d < kDomains; ++d) {
        outcomes[d].advanced =
            controller.domain_status(d).epochs != epochs_before[d];
        if (!traced && outcomes[d].dirty && outcomes[d].advanced) {
          committed += applied[d];
        }
      }
      failed += failed_requests(outcomes);
      if (fold_applied != report.requests_applied ||
          fold_dropped != report.requests_dropped) {
        result.fail("policy-stream batch " + std::to_string(b) +
                    ": the benchmark's fold disagrees with the report");
      }
      if (first || traced) {
        for (std::size_t d = 0; d < kDomains; ++d) {
          if (!outcomes[d].advanced) continue;
          const core::Epoch& epoch = controller.domain_epoch(d);
          const core::PlacementInput input{&topo, epoch.classes, chains};
          const std::string bad = core::check_plan(input, epoch.plan);
          if (!bad.empty()) {
            result.fail("policy-stream batch " + std::to_string(b) +
                        ": domain " + std::to_string(d) +
                        " committed a plan failing check_plan: " + bad);
          }
        }
      }
      fp.add(report_fingerprint(report));
      ++steps;
      if (first) {
        instances.push_back(static_cast<double>(controller.total_instances()));
      }
      if (traced) {
        traced_commit_ms.push_back(ms);
        L.submit += submit_ms;
        L.drain += drain_ms;
        L.propose += phase_ms[0];
        L.reconcile += phase_ms[1];
        L.commit += ms - (phase_ms[0] + phase_ms[1]);
        L.requests += kBatch;
        ++L.batches;
        L.domains_dirty += static_cast<double>(report.domains_dirty);
        L.conflicts += static_cast<double>(report.conflicts);
        L.rejected += static_cast<double>(report.rejected_domains);
        L.accepted += static_cast<double>(batch.accepted);
        L.coalesced += static_cast<double>(batch.coalesced);
        L.dropped += static_cast<double>(report.requests_dropped);
        L.dirty += static_cast<double>(
            obs_counter("core.pipeline.classes_added") - added0 +
            obs_counter("core.pipeline.classes_rate_changed") - changed0);
        L.considered += static_cast<double>(
            obs_counter("core.pipeline.classes_added") - added0 +
            obs_counter("core.pipeline.classes_rate_changed") - changed0 +
            obs_counter("core.pipeline.classes_pinned") - pinned0);
        L.fallbacks += static_cast<double>(
            obs_counter("core.pipeline.fallback_full") - fallback0);
        L.advances += static_cast<double>(
            obs_counter("core.pipeline.epochs_incremental") - advance0);
        L.launched += static_cast<double>(report.instances_launched);
        L.retired += static_cast<double>(report.instances_retired);
        L.rules_installed += static_cast<double>(report.rules_installed);
        L.rules_removed += static_cast<double>(report.rules_removed);
        const exec::ThreadPool::Stats pool1 = pool.stats();
        L.pool_tasks += pool1.tasks_executed - pool0.tasks_executed;
        L.pool_steals += pool1.steals - pool0.steals;
      } else {
        commit_ms.push_back(ms);
        loop_s += (submit_ms + drain_ms + ms) / 1e3;
      }

      if ((b + 1) % kSweepEvery == 0) sweep("probe sweep");
      if ((b + 1) % kReplanEvery == 0) {
        std::vector<traffic::TrafficClass> live;
        for (std::size_t d = 0; d < kDomains; ++d) {
          const auto& cls = controller.domain_epoch(d).classes;
          live.insert(live.end(), cls.begin(), cls.end());
        }
        ctrl::MultiDomainController fresh(topo, chains, domain_config(), {},
                                          &pool);
        const double replan = ms_of([&] { fresh.initialize(std::move(live)); });
        if (!traced) replan_ms.push_back(replan);
      }
    }
    sweep("final sweep");
    fp.add(controller.fingerprint());
    if (first) {
      reference = fp.value();
      result.notes.push_back(
          "population " + std::to_string(client.live_size()) +
          " client-side keys, " + std::to_string(controller.total_classes()) +
          " installed classes at the end of pass 0");
    } else if (fp.value() != reference) {
      result.fail("policy-stream pass " + std::to_string(index) +
                  " did not reproduce pass 0's fingerprint");
    }
    return steps;
  };

  result.passes = run_passes(config.seconds, min_samples_for(kTailPercentile),
                             /*cap_seconds=*/120.0, config.trace ? 2 : 1, pass);
  result.fingerprint = reference;
  result.failures = policy_stream_failures(submitted, refused, failed);

  const double p50 = median(commit_ms);
  const double tail = quantile(commit_ms, kTailPercentile / 100.0);
  const double rate = static_cast<double>(committed) / loop_s;
  result.end_to_end = {
      {"setup_s", median(setup_s)},
      {"step_ms_p50", p50},
      {"replan_ms_mean", mean(replan_ms)},
      {"loop_per_s", rate},
      {"instances_mean", mean(instances)},
  };
  result.report = {
      {"setup_s", "s", median(setup_s)},
      {"commit_ms_p50", "ms", p50},
      {"commit_ms_p90", "ms", tail},
      {"commit_samples", "count", static_cast<double>(commit_ms.size())},
      {"tail_supported", "percentile", tail_percentile(commit_ms.size())},
      {"commit_ms_mean", "ms", mean(commit_ms)},
      {"policy_req_per_s", "req/s", rate},
      {"replan_ms_p50", "ms", median(replan_ms)},
      {"replan_ms_mean", "ms", mean(replan_ms)},
      {"instances_mean", "count", mean(instances)},
      {"policy_violations", "count", static_cast<double>(probes.violations)},
      {"probe_walks", "count", static_cast<double>(probes.walks)},
      {"failed_ratio", "fraction", result.failures.ratio()},
  };

  if (config.trace) {
    const auto per_batch = [&](double sum) {
      return L.batches == 0 ? 0.0 : sum / static_cast<double>(L.batches);
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    result.per_layer = {
        {"net.routing_ms", median(routing_ms)},
        {"core.dirty_ratio", ratio(L.dirty, L.considered)},
        {"core.fallback_ratio", ratio(L.fallbacks, L.advances)},
        {"core.instances_launched", per_batch(L.launched)},
        {"core.instances_retired", per_batch(L.retired)},
        {"core.rules_installed", per_batch(L.rules_installed)},
        {"core.rules_removed", per_batch(L.rules_removed)},
        {"dataplane.walk_us",
         probes.walks == 0 ? 0.0
                           : probes.walk_seconds * 1e6 /
                                 static_cast<double>(probes.walks)},
        {"ctrl.submit_us",
         L.requests == 0 ? 0.0
                         : L.submit * 1e3 / static_cast<double>(L.requests)},
        {"ctrl.drain_ms", per_batch(L.drain)},
        {"ctrl.propose_ms", per_batch(L.propose)},
        {"ctrl.reconcile_ms", per_batch(L.reconcile)},
        {"ctrl.commit_phase_ms", per_batch(L.commit)},
        {"ctrl.domains_dirty_ratio",
         per_batch(L.domains_dirty) / static_cast<double>(kDomains)},
        {"ctrl.conflicts_per_batch", per_batch(L.conflicts)},
        {"ctrl.rejected_ratio", ratio(L.rejected, L.domains_dirty)},
        {"ctrl.coalesced_ratio", ratio(L.coalesced, L.accepted + L.coalesced)},
        {"ctrl.dropped_ratio", ratio(L.dropped, L.accepted)},
        {"exec.pool.tasks_per_step", per_batch(static_cast<double>(L.pool_tasks))},
        {"exec.pool.steals_per_step",
         per_batch(static_cast<double>(L.pool_steals))},
        {"obs.trace_overhead_ratio", ratio(median(traced_commit_ms), p50)},
    };
  }
  return result;
}

}  // namespace perfbench
