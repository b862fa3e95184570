#include "core/apple_controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/live_system.h"
#include "obs/obs.h"
#include "orch/resource_orchestrator.h"

namespace apple::core {

AppleController::AppleController(const net::Topology& topo,
                                 std::span<const vnf::PolicyChain> chains,
                                 ControllerConfig config)
    : topo_(&topo),
      chains_(chains.begin(), chains.end()),
      config_(config),
      pipeline_(PipelineOptions{config_.engine, config_.assigner,
                                config_.delta, orch::OrchestrationTimings{}}),
      routing_(topo) {
  if (chains_.empty()) {
    throw std::invalid_argument("controller needs at least one policy chain");
  }
  const std::size_t usable =
      config_.num_chains == 0
          ? chains_.size()
          : std::min<std::size_t>(config_.num_chains, chains_.size());
  assign_ =
      config_.chains_per_pair <= 1
          ? traffic::uniform_chain_assignment(usable, config_.chain_seed,
                                              config_.policied_fraction)
          : traffic::scaled_chain_assignment(usable, config_.chains_per_pair,
                                             config_.chain_seed,
                                             config_.policied_fraction);
}

traffic::ClassStore AppleController::build_class_store(
    const traffic::TrafficMatrix& tm) const {
  traffic::StoreBuildOptions options;
  options.num_shards = config_.class_shards;
  options.min_rate_mbps = config_.min_class_rate_mbps;
  return traffic::build_class_store(*topo_, routing_, tm, assign_, options);
}

Epoch AppleController::optimize(const traffic::TrafficMatrix& tm) const {
  APPLE_OBS_SPAN("core.controller.optimize");
  APPLE_OBS_COUNT("core.controller.epochs_optimized");
  return pipeline_.run(*topo_, chains_, build_class_store(tm));
}

Epoch AppleController::optimize_excluding_hosts(
    const traffic::TrafficMatrix& tm,
    std::span<const net::NodeId> hosts) const {
  // Clone the topology with the failed hosts' resources zeroed; switching
  // capacity is unaffected, so the classes keep their original paths.
  net::Topology degraded = *topo_;
  std::string listed;
  for (const net::NodeId v : hosts) {
    if (v >= topo_->num_nodes()) {
      throw std::invalid_argument("unknown host switch");
    }
    degraded.node(v).host_cores = 0.0;
    if (!listed.empty()) listed += ", ";
    listed += std::to_string(v);
  }
  try {
    return pipeline_.run(degraded, chains_, build_class_store(tm));
  } catch (const std::runtime_error& e) {
    std::string reason = e.what();
    static constexpr char kPrefix[] = "placement infeasible: ";
    if (reason.rfind(kPrefix, 0) == 0) reason.erase(0, sizeof(kPrefix) - 1);
    throw std::runtime_error("no feasible placement without hosts " +
                             listed + ": " + reason);
  }
}

double AppleController::apply_plan_delta(orch::ResourceOrchestrator& control,
                                         const PlanDelta& delta,
                                         double now) const {
  double makespan = 0.0;
  for (const InstanceOp& op : delta.ops) {
    switch (op.kind) {
      case InstanceOp::Kind::kRetire:
        if (!control.cancel(op.id)) {
          throw std::logic_error(
              "orchestrator inventory diverged from placement");
        }
        break;
      case InstanceOp::Kind::kReconfigure: {
        const auto r = control.reconfigure(op.id, op.type, now);
        if (!r.ok()) {
          throw std::logic_error(
              "orchestrator inventory diverged from placement");
        }
        makespan = std::max(makespan, r.ready_at - now);
        break;
      }
      case InstanceOp::Kind::kLaunch: {
        const auto r = control.launch(op.type, op.node, now,
                                      orch::LaunchPath::kOpenStack);
        if (!r.ok() || r.instance.id != op.id) {
          throw std::logic_error(
              "orchestrator inventory diverged from placement");
        }
        makespan = std::max(makespan, r.ready_at - now);
        break;
      }
    }
  }
  return makespan;
}

ReplayReport AppleController::replay(
    const Epoch& epoch, std::span<const traffic::TrafficMatrix> series,
    bool fast_failover) const {
  ReplayReport report;
  if (series.empty()) return report;

  const std::size_t segment_len =
      config_.reoptimize_every == 0 ? series.size() : config_.reoptimize_every;

  // Persistent control-plane orchestrator: carries the live fleet across
  // re-optimizations so each segment's churn ops replay against the real
  // inventory and only churned instances pay boot latency (Sec. VI).
  orch::ResourceOrchestrator control(*topo_);
  adopt_fleet(control, epoch.inventory, 0.0);

  const Epoch* current = &epoch;
  Epoch owned;  // storage for re-optimized epochs
  report.epochs = 0;
  for (std::size_t begin = 0; begin < series.size(); begin += segment_len) {
    const std::size_t count = std::min(segment_len, series.size() - begin);
    if (begin > 0) {
      // Large-time-scale adjustment (Sec. VI): re-run the Optimization
      // Engine for the segment's mean matrix. Daily patterns are
      // predictable and planned changes are pre-installed, so the segment
      // forecast is available when the segment starts; fast failover
      // absorbs the unpredicted remainder. An infeasible re-optimization
      // keeps the previous placement.
      const traffic::TrafficMatrix mean =
          traffic::mean_matrix(series.subspan(begin, count));
      const double now =
          static_cast<double>(begin) * config_.snapshot_duration;
      try {
        // Every epoch the controller hands out is store-backed, so the
        // class diff only touches dirty shards.
        IncrementalEpoch inc = pipeline_.advance(*current, *topo_, chains_,
                                                 build_class_store(mean));
        const double makespan = apply_plan_delta(control, inc.plan_delta, now);
        const double latency =
            makespan + control.timings().rule_install *
                           static_cast<double>(inc.rule_delta.reinstall.size() +
                                               inc.rule_delta.remove.size());
        report.churn.instances_launched += inc.plan_delta.instances_launched;
        report.churn.instances_retired += inc.plan_delta.instances_retired;
        report.churn.instances_reconfigured +=
            inc.plan_delta.instances_reconfigured;
        report.churn.rules_installed += inc.rule_delta.rules_installed;
        report.churn.rules_removed += inc.rule_delta.rules_removed;
        ++report.churn.reoptimizations;
        if (inc.full_recompute) ++report.churn.full_recomputes;
        report.churn.control_latency_sum_s += latency;
        report.churn.control_latency_max_s =
            std::max(report.churn.control_latency_max_s, latency);
        APPLE_OBS_OBSERVE("core.controller.reoptimize_latency_seconds",
                          latency);
        owned = std::move(inc.epoch);
        current = &owned;
      } catch (const std::runtime_error&) {
        // keep the previous epoch
      }
    }
    ++report.epochs;
    replay_segment(*current, series.subspan(begin, count), fast_failover,
                   report);
  }

  double loss_sum = 0.0;
  for (const double loss : report.snapshot_loss) {
    loss_sum += loss;
    report.max_loss = std::max(report.max_loss, loss);
  }
  report.mean_loss = loss_sum / static_cast<double>(series.size());
  return report;
}

void AppleController::replay_segment(
    const Epoch& epoch, std::span<const traffic::TrafficMatrix> series,
    bool fast_failover, ReplayReport& report) const {
  APPLE_OBS_SPAN("core.controller.replay_segment");
  APPLE_OBS_COUNT_N("core.controller.snapshots_replayed", series.size());
  const std::size_t ticks_per_snapshot =
      ticks_per(config_.snapshot_duration, config_.tick);
  const std::size_t ticks_per_poll =
      ticks_per(config_.poll_interval, config_.tick);
  // A fresh system at t = 0 under the pipeline's ids; the Dynamic
  // Handler's own launches continue from non-colliding ids.
  LiveSystem live(*topo_, epoch, config_.tick);

  DynamicHandlerConfig handler_config = config_.handler;
  handler_config.detector.poll_interval = config_.poll_interval;
  // Detector thresholds are expressed against measured capacity; the sim
  // instances carry the (higher) loss knee.
  handler_config.detector.overload_threshold *= vnf::kMeasuredCapacityMargin;
  handler_config.detector.clear_threshold *= vnf::kMeasuredCapacityMargin;
  handler_config.headroom *= vnf::kMeasuredCapacityMargin;
  DynamicHandler handler(live.flow, live.orchestrator, handler_config);
  for (const traffic::TrafficClass& cls : epoch.classes) {
    handler.register_class(cls.id, chains_[cls.chain_id], cls.path);
  }

  // Replay every snapshot in time order (Sec. IX-A).
  std::size_t tick_count = 0;
  for (const traffic::TrafficMatrix& tm : series) {
    live.rerate(tm, assign_);
    double offered = 0.0, delivered = 0.0;
    for (std::size_t t = 0; t < ticks_per_snapshot; ++t, ++tick_count) {
      const sim::TickStats stats = live.flow.step();
      offered += stats.offered_mbps;
      delivered += stats.delivered_mbps;
      if (fast_failover && tick_count % ticks_per_poll == 0) {
        handler.poll(live.flow.now());
      }
    }
    report.snapshot_loss.push_back(
        offered > 0.0 ? std::max(0.0, 1.0 - delivered / offered) : 0.0);
  }

  const FailoverMetrics& m = handler.metrics();
  report.failover.overload_events += m.overload_events;
  report.failover.clear_events += m.clear_events;
  report.failover.rebalances += m.rebalances;
  report.failover.instances_launched += m.instances_launched;
  report.failover.instances_cancelled += m.instances_cancelled;
  report.failover.peak_extra_cores =
      std::max(report.failover.peak_extra_cores, m.peak_extra_cores);
  report.failover.extra_core_sum += m.extra_core_sum;
  report.failover.extra_core_samples += m.extra_core_samples;
}

}  // namespace apple::core
