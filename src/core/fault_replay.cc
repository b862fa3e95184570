#include "core/fault_replay.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "core/live_system.h"
#include "core/rule_generator.h"
#include "fault/injector.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "traffic/traffic_matrix.h"

namespace apple::core {

namespace {

// A crashed instance awaiting its replacement: launched at the next poll
// after detection, rules swapped once the replacement is serving.
struct ReplacementJob {
  fault::FaultId fault = fault::kNoFault;
  vnf::InstanceId dead = 0;
  net::NodeId host = net::kInvalidNode;
  vnf::NfType type = vnf::NfType::kFirewall;
  vnf::InstanceId replacement = 0;  // 0 = not launched yet
  double ready_at = 0.0;
  bool registered = false;  // replacement registered with the data plane
  std::optional<fault::FaultId> boot_fault;       // awaiting successful retry
  std::optional<fault::FaultId> slow_boot_fault;  // repaired at rule swap
  std::optional<fault::FaultId> rule_fault;       // awaiting successful swap
};

// A down APPLE host awaiting a full re-placement around it
// (optimize_excluding_hosts; the switch keeps forwarding).
struct NodeRepairJob {
  fault::FaultId fault = fault::kNoFault;
  net::NodeId node = net::kInvalidNode;
  bool computed = false;
  Epoch next;                    // ids remapped at swap time
  std::set<net::NodeId> covers;  // hosts excluded when `next` was computed
  double swap_at = 0.0;
  std::optional<fault::FaultId> rule_fault;
};

// A throwaway boot / rule refresh issued only to give an armed ordinal
// fault an operation to fire on, so no scheduled fault is left dangling in
// scenarios without organic control-plane activity.
struct CanaryState {
  std::optional<fault::FaultId> boot_fault;  // fired failure awaiting retry
  std::optional<fault::FaultId> slow_fault;  // fired slow boot, VM booting
  vnf::InstanceId instance = 0;
  double ready_at = 0.0;
  std::optional<fault::FaultId> rule_fault;  // fired install failure

  bool idle() const {
    return !boot_fault && !slow_fault && !rule_fault && instance == 0;
  }
};

// Rewrites the epoch's instance ids to start at `first_free` so adopting
// it cannot collide with ids the live orchestrator already consumed.
void remap_instance_ids(Epoch& epoch, vnf::InstanceId first_free) {
  std::unordered_map<vnf::InstanceId, vnf::InstanceId> remap;
  vnf::InstanceId next = first_free;
  for (auto& per_type : epoch.inventory.by_node_type) {
    for (auto& ids : per_type) {
      for (vnf::InstanceId& id : ids) {
        remap[id] = next;
        id = next++;
      }
    }
  }
  for (auto& plans : epoch.subclasses) {
    for (dataplane::SubclassPlan& plan : plans) {
      for (dataplane::HostVisit& visit : plan.itinerary) {
        for (vnf::InstanceId& id : visit.instances) id = remap.at(id);
      }
    }
  }
  epoch.next_instance_id = next;
}

bool plans_reference(const std::vector<dataplane::SubclassPlan>& plans,
                     vnf::InstanceId id) {
  for (const dataplane::SubclassPlan& plan : plans) {
    for (const dataplane::HostVisit& visit : plan.itinerary) {
      for (const vnf::InstanceId inst : visit.instances) {
        if (inst == id) return true;
      }
    }
  }
  return false;
}

std::vector<dataplane::SubclassPlan> plans_with_replacement(
    const std::vector<dataplane::SubclassPlan>& plans, vnf::InstanceId dead,
    vnf::InstanceId replacement) {
  std::vector<dataplane::SubclassPlan> out = plans;
  for (dataplane::SubclassPlan& plan : out) {
    for (dataplane::HostVisit& visit : plan.itinerary) {
      for (vnf::InstanceId& inst : visit.instances) {
        if (inst == dead) inst = replacement;
      }
    }
  }
  return out;
}

}  // namespace

FaultReplayResult replay_with_faults(const AppleController& controller,
                                     const Epoch& epoch,
                                     std::span<const traffic::TrafficMatrix> series,
                                     const fault::FaultSchedule& schedule,
                                     const FaultReplayOptions& options) {
  APPLE_OBS_SPAN("core.fault_replay.run");
  FaultReplayResult result;
  if (series.empty()) return result;
  const ControllerConfig& config = controller.config();
  const std::size_t ticks_per_snapshot =
      ticks_per(config.snapshot_duration, config.tick);
  const std::size_t ticks_per_poll =
      ticks_per(config.poll_interval, config.tick);

  // --- live system: a mutable topology shared by every injection target ----
  net::Topology topo = controller.topology();
  LiveSystem live(topo, epoch, config.tick);
  orch::ResourceOrchestrator& orchestrator = live.orchestrator;
  sim::FlowSimulation& flow = live.flow;
  dataplane::DataPlane dp(topo);
  RuleGenerator().install(
      PlacementInput{&topo, epoch.classes, controller.chains()},
      epoch.subclasses, epoch.inventory, dp);

  // --- fault machinery -----------------------------------------------------
  fault::RecoveryMonitor monitor;
  fault::InjectorHooks hooks;
  hooks.on_injected = [&monitor](const fault::FaultEvent& e, double now) {
    monitor.on_injected(e, now);
  };
  hooks.on_cleared = [&monitor](const fault::FaultEvent& e, double now) {
    // Self-clearing faults (link up) repair without controller action.
    monitor.on_repaired(e.fault_id, now);
  };
  fault::FaultInjector injector(
      fault::InjectorTargets{&topo, &flow, &orchestrator, &dp}, hooks);
  for (const traffic::TrafficClass& cls : epoch.classes) {
    injector.register_class(cls.id, cls.path);
  }
  sim::EventQueue queue;
  injector.arm(queue, schedule);

  // Policy probes: fixed headers per class; the expected chain is the
  // class's policy, and a delivered probe must have traversed exactly it.
  // The vector never changes after this, so the data plane's version fixes
  // the outcome of every walk: a poll walks the probes only when
  // dp.version() moved since the last walked sweep, and otherwise counts
  // that sweep again.
  std::vector<fault::PolicyProbe> probes;
  std::optional<std::uint64_t> swept_version;
  for (const traffic::TrafficClass& cls : epoch.classes) {
    for (std::size_t p = 0; p < options.probes_per_class; ++p) {
      fault::PolicyProbe probe;
      probe.class_id = cls.id;
      probe.header.src_ip = 0x0A000000u + cls.id;
      probe.header.dst_ip = 0xC0A80000u + cls.id;
      probe.header.src_port = static_cast<std::uint16_t>(1024 + 7919 * p);
      probe.header.dst_port = 443;
      probe.header.proto = 6;
      probe.expected_chain = std::vector<vnf::NfType>(
          controller.chains()[cls.chain_id].begin(),
          controller.chains()[cls.chain_id].end());
      probes.push_back(std::move(probe));
    }
  }

  // --- recovery state ------------------------------------------------------
  std::set<fault::FaultId> processed;
  std::map<fault::FaultId, std::set<traffic::ClassId>> affected;
  std::map<vnf::InstanceId, ReplacementJob> repl_jobs;  // keyed by dead id
  std::map<fault::FaultId, NodeRepairJob> node_jobs;
  std::set<net::NodeId> down_hosts;
  CanaryState canary;

  const auto classes_through = [&](const std::vector<fault::KilledInstance>&
                                       killed) {
    std::set<traffic::ClassId> hit;
    for (const traffic::TrafficClass& cls : epoch.classes) {
      for (const fault::KilledInstance& k : killed) {
        if (plans_reference(flow.plans_of(cls.id), k.id)) {
          hit.insert(cls.id);
          break;
        }
      }
    }
    return hit;
  };

  // Classifies faults the instant they open: builds the loss-attribution
  // set and spawns the matching repair job. Runs every tick (attribution
  // cannot wait for a poll); detection itself still waits for the poll.
  const auto process_new_faults = [&] {
    for (const fault::FaultId id : monitor.open_faults()) {
      if (!processed.insert(id).second) continue;
      const fault::FaultRecord rec = *monitor.record(id);
      switch (rec.kind) {
        case fault::FaultKind::kLinkDown: {
          const auto& severed = injector.classes_severed(id);
          affected[id] = {severed.begin(), severed.end()};
          break;
        }
        case fault::FaultKind::kNodeDown: {
          NodeRepairJob job;
          job.fault = id;
          for (const fault::FaultEvent& e : schedule.events()) {
            if (e.fault_id == id) job.node = e.node;
          }
          APPLE_CHECK(job.node != net::kInvalidNode);
          down_hosts.insert(job.node);
          affected[id] = classes_through(injector.instances_killed(id));
          node_jobs.emplace(id, std::move(job));
          break;
        }
        case fault::FaultKind::kInstanceCrash: {
          affected[id] = classes_through(injector.instances_killed(id));
          for (const fault::KilledInstance& k :
               injector.instances_killed(id)) {
            ReplacementJob job;
            job.fault = id;
            job.dead = k.id;
            job.host = k.host;
            job.type = k.type;
            repl_jobs.emplace(k.id, std::move(job));
          }
          break;
        }
        case fault::FaultKind::kLinkUp:
        case fault::FaultKind::kBootFailure:
        case fault::FaultKind::kSlowBoot:
        case fault::FaultKind::kRuleInstallFailure:
          break;  // handled at their fire sites
      }
    }
  };

  // Each class's position in epoch.classes, by id: a tick's blackholed
  // classes are accounted in epoch.classes order, because the monitor's
  // loss sums are floating-point and their order is part of the report.
  std::vector<std::pair<traffic::ClassId, std::size_t>> position;
  position.reserve(epoch.classes.size());
  for (std::size_t h = 0; h < epoch.classes.size(); ++h) {
    position.emplace_back(epoch.classes[h].id, h);
  }
  std::sort(position.begin(), position.end());
  APPLE_CHECK(std::adjacent_find(position.begin(), position.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.first == b.first;
                                 }) == position.end());
  std::vector<std::size_t> blackholed_at;  // this tick's, as positions

  // Blackholed demand of this tick, attributed to the earliest open fault
  // whose blast radius contains the class. Only the classes the tick
  // listed as blackholed carry any; every other class adds nothing.
  const auto attribute_loss = [&] {
    blackholed_at.clear();
    for (const traffic::ClassId id : flow.blackholed_classes()) {
      const auto it = std::lower_bound(position.begin(), position.end(),
                                       std::pair{id, std::size_t{0}});
      if (it != position.end() && it->first == id) {
        blackholed_at.push_back(it->second);
      }
    }
    std::sort(blackholed_at.begin(), blackholed_at.end());
    for (const std::size_t h : blackholed_at) {
      const traffic::TrafficClass& cls = epoch.classes[h];
      const double mbit = flow.class_blackholed_mbps(cls.id) * config.tick;
      fault::FaultId owner = fault::kNoFault;
      for (const auto& [id, hit] : affected) {
        const auto rec = monitor.record(id);
        if (rec && !rec->repaired() && hit.count(cls.id) > 0) {
          owner = id;
          break;
        }
      }
      if (owner == fault::kNoFault) {
        monitor.account_unattributed(mbit);
      } else {
        monitor.account_loss(owner, mbit);
      }
    }
  };

  // Correlates an ordinal fault the injector just fired against the
  // operation we issued; returns it (detection is immediate — the failed
  // call IS the signal).
  const auto correlate_fired = [&](double now) -> std::optional<fault::FaultEvent> {
    const auto fired = injector.take_fired_ordinal();
    if (fired) monitor.on_detected(fired->fault_id, now);
    return fired;
  };

  // --- repair processing (runs at every counter poll) ----------------------
  const auto process_node_jobs = [&](double now) {
    for (auto& [id, job] : node_jobs) {
      if (!job.computed) {
        job.next = controller.optimize_excluding_hosts(
            traffic::mean_matrix(series),
            std::vector<net::NodeId>(down_hosts.begin(), down_hosts.end()));
        job.covers = down_hosts;
        job.swap_at =
            now + full_reinstall_latency(job.next, orchestrator.timings());
        job.computed = true;
        APPLE_OBS_COUNT("fault.replay.node_reoptimizations");
        continue;
      }
      if (now + 1e-9 < job.swap_at) continue;

      // Swap the whole placement: rules first (can be rejected by an
      // injected install fault — retried next poll; the install registers
      // the next fleet with the data plane), then instances. Ids are taken
      // only now: a crash replacement launched since the placement was
      // computed owns the ids that were free then.
      remap_instance_ids(job.next, orchestrator.peek_next_id());
      try {
        RuleGenerator().install(
            PlacementInput{&topo, job.next.classes, controller.chains()},
            job.next.subclasses, job.next.inventory, dp);
      } catch (const dataplane::RuleInstallError&) {
        const auto fired = correlate_fired(now);
        if (fired) job.rule_fault = fired->fault_id;
        ++result.rule_retries;
        continue;
      }
      for (const vnf::InstanceId old_id : live.adopt(job.next, now)) {
        dp.unregister_instance(old_id);
      }

      // The re-placement supersedes every in-flight crash repair: the dead
      // ids (and any half-booted replacements) are gone from the system.
      for (auto& [dead, rjob] : repl_jobs) {
        if (rjob.boot_fault) monitor.on_repaired(*rjob.boot_fault, now);
        if (rjob.slow_boot_fault) monitor.on_repaired(*rjob.slow_boot_fault, now);
        if (rjob.rule_fault) monitor.on_repaired(*rjob.rule_fault, now);
        monitor.on_repaired(rjob.fault, now);
      }
      repl_jobs.clear();
      if (job.rule_fault) monitor.on_repaired(*job.rule_fault, now);
      // One swap repairs every node fault whose host it placed around.
      for (auto& [other_id, other] : node_jobs) {
        if (job.covers.count(other.node) > 0) {
          monitor.on_repaired(other_id, now);
        }
      }
      APPLE_OBS_COUNT("fault.replay.node_swaps");
      break;  // node_jobs mutated below; re-enter at the next poll
    }
    // Drop completed jobs (repaired either by their own swap or a
    // covering one).
    for (auto it = node_jobs.begin(); it != node_jobs.end();) {
      const auto rec = monitor.record(it->first);
      it = (rec && rec->repaired()) ? node_jobs.erase(it) : std::next(it);
    }
  };

  const auto process_repl_jobs = [&](double now) {
    for (auto it = repl_jobs.begin(); it != repl_jobs.end();) {
      ReplacementJob& job = it->second;
      // A node fault may have taken the host (and any booting replacement)
      // down since; the node repair will supersede this job.
      if (orchestrator.host_down(job.host)) {
        ++it;
        continue;
      }
      if (job.replacement != 0 && !orchestrator.is_alive(job.replacement)) {
        if (flow.has_instance(job.replacement)) {
          flow.remove_instance(job.replacement);
        }
        job.replacement = 0;  // relaunch below
      }
      if (job.replacement == 0) {
        const orch::LaunchPath path = vnf::spec_of(job.type).clickos
                                          ? orch::LaunchPath::kBareXen
                                          : orch::LaunchPath::kOpenStack;
        const orch::LaunchResult r =
            orchestrator.launch(job.type, job.host, now, path);
        const auto fired = correlate_fired(now);
        if (r.status == orch::LaunchStatus::kBootFailure) {
          if (fired) job.boot_fault = fired->fault_id;
          ++result.boot_retries;
          APPLE_OBS_COUNT("fault.replay.boot_retries");
          ++it;
          continue;  // retry at the next poll under a fresh id
        }
        if (r.status == orch::LaunchStatus::kInsufficientResources) {
          // The host has no cores free for the replacement: retry at the
          // next poll. The fault stays open until a launch succeeds and
          // counts as unrepaired if the drain ends first.
          ++it;
          continue;
        }
        if (!r.ok()) {
          throw std::logic_error(std::string("recovery launch failed: ") +
                                 orch::to_string(r.status));
        }
        if (fired && fired->kind == fault::FaultKind::kSlowBoot) {
          job.slow_boot_fault = fired->fault_id;
        }
        if (job.boot_fault) {  // the retry succeeded
          monitor.on_repaired(*job.boot_fault, now);
          job.boot_fault.reset();
        }
        job.replacement = r.instance.id;
        job.ready_at = r.ready_at;
        vnf::VnfInstance inst = r.instance;
        inst.capacity_mbps = vnf::spec_of(inst.type).loss_knee_mbps();
        flow.add_instance(inst, r.ready_at);
        APPLE_OBS_COUNT("fault.replay.replacements_launched");
        ++it;
        continue;
      }
      if (now + 1e-9 < job.ready_at) {
        ++it;
        continue;  // still booting
      }
      // Replacement is serving: point the rules at it, class by class.
      if (!job.registered) {
        const auto inst = orchestrator.instance(job.replacement);
        APPLE_CHECK(inst.has_value());
        dp.register_instance(*inst);
        job.registered = true;
      }
      bool blocked = false;
      for (const traffic::TrafficClass& cls : epoch.classes) {
        const auto& plans = flow.plans_of(cls.id);
        if (!plans_reference(plans, job.dead)) continue;
        auto next_plans =
            plans_with_replacement(plans, job.dead, job.replacement);
        try {
          dp.update_class(cls.id, next_plans);
        } catch (const dataplane::RuleInstallError&) {
          const auto fired = correlate_fired(now);
          if (fired) job.rule_fault = fired->fault_id;
          ++result.rule_retries;
          APPLE_OBS_COUNT("fault.replay.rule_retries");
          blocked = true;
          break;  // classes already swapped stay swapped; retry the rest
        }
        flow.install_class_plans(cls.id, std::move(next_plans));
      }
      if (blocked) {
        ++it;
        continue;
      }
      flow.remove_instance(job.dead);
      if (job.rule_fault) monitor.on_repaired(*job.rule_fault, now);
      if (job.slow_boot_fault) monitor.on_repaired(*job.slow_boot_fault, now);
      monitor.on_repaired(job.fault, now);
      APPLE_OBS_COUNT("fault.replay.replacements_swapped");
      it = repl_jobs.erase(it);
    }
  };

  // Gives stranded ordinal faults an operation to fire on (a scenario of
  // pure boot/rule faults has no organic launch or rule churn to hit).
  const auto process_canaries = [&](double now) {
    // Boot canary: a throwaway ClickOS boot at the first up host.
    if (canary.slow_fault && canary.instance != 0 &&
        now + 1e-9 >= canary.ready_at) {
      monitor.on_repaired(*canary.slow_fault, now);
      canary.slow_fault.reset();
      orchestrator.cancel(canary.instance);
      canary.instance = 0;
    }
    if ((injector.pending_boot_faults() > 0 || canary.boot_fault) &&
        canary.instance == 0) {
      net::NodeId host = net::kInvalidNode;
      for (const net::NodeId v : topo.host_nodes()) {
        if (!orchestrator.host_down(v) &&
            orchestrator.available_cores(v) >=
                vnf::spec_of(vnf::NfType::kFirewall).cores_required) {
          host = v;
          break;
        }
      }
      if (host != net::kInvalidNode) {
        const orch::LaunchResult r = orchestrator.launch(
            vnf::NfType::kFirewall, host, now, orch::LaunchPath::kBareXen);
        const auto fired = correlate_fired(now);
        if (r.status == orch::LaunchStatus::kBootFailure) {
          if (fired) canary.boot_fault = fired->fault_id;
          ++result.boot_retries;
        } else if (r.ok()) {
          if (canary.boot_fault) {  // retry succeeded
            monitor.on_repaired(*canary.boot_fault, now);
            canary.boot_fault.reset();
          }
          if (fired && fired->kind == fault::FaultKind::kSlowBoot) {
            // Keep the canary VM until its (stretched) boot completes so
            // the slow boot's cost window is real, then tear it down.
            canary.slow_fault = fired->fault_id;
            canary.instance = r.instance.id;
            canary.ready_at = r.ready_at;
          } else {
            orchestrator.cancel(r.instance.id);
          }
        }
      }
    }
    // Rule canary: refresh the first class's (unchanged) rules.
    if ((injector.pending_rule_faults() > 0 || canary.rule_fault) &&
        !epoch.classes.empty()) {
      const traffic::ClassId cls = epoch.classes.front().id;
      try {
        dp.update_class(cls, flow.plans_of(cls));
        if (canary.rule_fault) {
          monitor.on_repaired(*canary.rule_fault, now);
          canary.rule_fault.reset();
        }
      } catch (const dataplane::RuleInstallError&) {
        const auto fired = correlate_fired(now);
        if (fired) canary.rule_fault = fired->fault_id;
        ++result.rule_retries;
      }
    }
  };

  const auto poll = [&](double now) {
    // Counter-poll detection: every open fault the system can observe is
    // noticed at the first poll after injection (first call wins).
    for (const fault::FaultId id : monitor.open_faults()) {
      monitor.on_detected(id, now);
    }
    process_node_jobs(now);
    process_repl_jobs(now);
    process_canaries(now);
    if (swept_version == dp.version()) {
      monitor.repeat_last_sweep(probes);
    } else {
      monitor.verify_policies(dp, probes);
      swept_version = dp.version();
      APPLE_OBS_COUNT("fault.replay.sweeps_walked");
    }
  };

  // --- main loop: snapshot series, then a drain window ---------------------
  std::size_t tick_count = 0;

  const auto run_tick = [&](double* offered, double* delivered,
                            double* blackholed) {
    queue.run_until(flow.now());
    process_new_faults();
    if (tick_count % ticks_per_poll == 0) poll(flow.now());
    const sim::TickStats stats = flow.step();
    attribute_loss();
    ++tick_count;
    if (offered != nullptr) {
      *offered += stats.offered_mbps;
      *delivered += stats.delivered_mbps;
      *blackholed += stats.blackholed_mbps;
    }
  };

  for (const traffic::TrafficMatrix& tm : series) {
    live.rerate(tm, controller.chain_assignment());
    double offered = 0.0, delivered = 0.0, blackholed = 0.0;
    for (std::size_t t = 0; t < ticks_per_snapshot; ++t) {
      run_tick(&offered, &delivered, &blackholed);
    }
    result.snapshot_loss.push_back(
        offered > 0.0 ? std::max(0.0, 1.0 - delivered / offered) : 0.0);
    result.snapshot_blackholed.push_back(
        offered > 0.0 ? blackholed / offered : 0.0);
  }
  double loss_sum = 0.0;
  for (const double loss : result.snapshot_loss) loss_sum += loss;
  result.mean_loss = loss_sum / static_cast<double>(series.size());

  // Drain: late link-up events, 30 s VM boots and retried operations need
  // simulated time past the series to land.
  const double deadline = flow.now() + options.drain_limit;
  const auto settled = [&] {
    return monitor.all_repaired() && node_jobs.empty() && repl_jobs.empty() &&
           canary.idle() && queue.empty() &&
           injector.pending_boot_faults() == 0 &&
           injector.pending_rule_faults() == 0;
  };
  while (!settled() && flow.now() + 1e-9 < deadline) {
    run_tick(nullptr, nullptr, nullptr);
  }
  // One final poll so repairs completing exactly at the deadline are seen.
  queue.run_until(flow.now());
  process_new_faults();
  poll(flow.now());

  result.recovery = monitor.report();
  result.faults_skipped = injector.faults_skipped();
  result.end_time = flow.now();
  APPLE_OBS_COUNT("fault.replay.runs");
  return result;
}

}  // namespace apple::core
