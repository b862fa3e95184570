#include "core/epoch_pipeline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace apple::core {

namespace {

// Sub-class plans compare equal when they would install the same rules:
// identical sub-class ids, classifier footprints and instance itineraries,
// with weights equal up to float noise (the assigner's water-filling is
// deterministic, but pinned classes sit downstream of re-solved ones in its
// global capacity ledger, so bit-identical weights cannot be assumed).
bool same_subclass_plans(const std::vector<dataplane::SubclassPlan>& a,
                         const std::vector<dataplane::SubclassPlan>& b) {
  constexpr double kWeightTol = 1e-9;
  if (a.size() != b.size()) return false;
  for (std::size_t s = 0; s < a.size(); ++s) {
    const dataplane::SubclassPlan& pa = a[s];
    const dataplane::SubclassPlan& pb = b[s];
    if (pa.subclass_id != pb.subclass_id ||
        pa.classifier_prefix_rules != pb.classifier_prefix_rules ||
        std::abs(pa.weight - pb.weight) > kWeightTol ||
        pa.itinerary.size() != pb.itinerary.size()) {
      return false;
    }
    for (std::size_t i = 0; i < pa.itinerary.size(); ++i) {
      if (pa.itinerary[i].at_switch != pb.itinerary[i].at_switch ||
          pa.itinerary[i].instances != pb.itinerary[i].instances) {
        return false;
      }
    }
  }
  return true;
}

// A class store shard's (src, dst) pair as one ascending-comparable key.
std::uint64_t od_key(const traffic::ClassStore::Shard& shard, std::size_t i) {
  return (static_cast<std::uint64_t>(shard.srcs[i]) << 32) | shard.dsts[i];
}

// The store diff's merge precondition: a shard's classes are in ascending
// (src, dst) order.
void check_od_order(const traffic::ClassStore::Shard& shard) {
  for (std::size_t i = 1; i < shard.size(); ++i) {
    APPLE_CHECK_LE(od_key(shard, i - 1), od_key(shard, i));
  }
}

double boot_latency_of(const InstanceOp& op,
                       const orch::OrchestrationTimings& timings) {
  switch (op.kind) {
    case InstanceOp::Kind::kLaunch:
      return vnf::spec_of(op.type).clickos
                 ? timings.clickos_boot_openstack_mean()
                 : timings.normal_vm_boot;
    case InstanceOp::Kind::kReconfigure:
      return timings.clickos_reconfigure;
    case InstanceOp::Kind::kRetire:
      return 0.0;  // teardown is off the critical path
  }
  return 0.0;
}

}  // namespace

ClassDelta diff_classes(const traffic::ClassStore& prev,
                        const traffic::ClassStore& next,
                        const ClassDeltaOptions& options) {
  APPLE_OBS_SPAN("core.pipeline.stage.diff_classes");
  // The (src, dst) shard partition is a pure hash, so matching classes can
  // only ever sit in the shard of the same index — diffing shard-against-
  // shard yields exactly the buckets of a keyed match over the two whole
  // views, in the same (global stable-iteration-order) index order.
  APPLE_CHECK_EQ(prev.num_shards(), next.num_shards());

  ClassDelta delta;
  delta.prev_of.assign(next.size(), kNoClass);
  std::vector<bool> matched;
  for (std::size_t s = 0; s < next.num_shards(); ++s) {
    const traffic::ClassStore::Shard& ps = prev.shard(s);
    const traffic::ClassStore::Shard& ns = next.shard(s);
    const std::size_t poff = prev.shard_offset(s);
    const std::size_t noff = next.shard_offset(s);
    // Clean-shard fast path: identical content (ids excluded — survivors
    // may carry ids from older epochs) means every class is an exact
    // survivor with zero drift, i.e. pinned.
    if (ps.size() == ns.size() &&
        prev.shard_fingerprint(s) == next.shard_fingerprint(s)) {
      ++delta.shards_clean;
      for (std::size_t i = 0; i < ns.size(); ++i) {
        delta.prev_of[noff + i] = poff + i;
        delta.unchanged.push_back(noff + i);
      }
      continue;
    }
    ++delta.shards_dirty;
    // Both shards list their classes in ascending (src, dst) order — the
    // build appends each shard's OD pairs in row-major scan order and
    // re-rating compacts in place — so one pair's classes form a run and
    // the two shards merge run against run. Within a run a next class
    // matches the first prev class with its chain, the entry an index
    // keyed by (src, dst, chain) would keep when a mix names a chain twice.
    check_od_order(ps);
    check_od_order(ns);
    matched.assign(ps.size(), false);
    std::size_t run = 0;  // first prev class of the current pair's run
    std::size_t run_end = 0;
    for (std::size_t h = 0; h < ns.size(); ++h) {
      const std::uint64_t key = od_key(ns, h);
      if (h == 0 || key != od_key(ns, h - 1)) {
        run = run_end;
        while (run < ps.size() && od_key(ps, run) < key) ++run;
        run_end = run;
        while (run_end < ps.size() && od_key(ps, run_end) == key) ++run_end;
      }
      std::size_t p = run;
      while (p < run_end && ps.chains[p] != ns.chains[h]) ++p;
      bool rerouted = true;
      if (p < run_end) {
        const std::span<const net::NodeId> prev_path =
            prev.paths().nodes(ps.paths[p]);
        const std::span<const net::NodeId> next_path =
            next.paths().nodes(ns.paths[h]);
        rerouted = !std::equal(prev_path.begin(), prev_path.end(),
                               next_path.begin(), next_path.end());
      }
      if (rerouted) {
        delta.added.push_back(noff + h);
        continue;
      }
      matched[p] = true;
      delta.prev_of[noff + h] = poff + p;
      const double prev_rate = ps.rates[p];
      const double next_rate = ns.rates[h];
      const double base =
          std::max(std::abs(prev_rate), options.zero_rate_mbps);
      if (std::abs(next_rate - prev_rate) / base >
          options.rate_change_threshold) {
        delta.rate_changed.push_back(noff + h);
      } else {
        delta.unchanged.push_back(noff + h);
      }
    }
    for (std::size_t p = 0; p < ps.size(); ++p) {
      if (!matched[p]) delta.removed.push_back(poff + p);
    }
  }

  APPLE_OBS_COUNT_N("core.pipeline.classes_added", delta.added.size());
  APPLE_OBS_COUNT_N("core.pipeline.classes_removed", delta.removed.size());
  APPLE_OBS_COUNT_N("core.pipeline.classes_rate_changed",
                    delta.rate_changed.size());
  APPLE_OBS_COUNT_N("core.pipeline.classes_pinned", delta.unchanged.size());
  APPLE_OBS_COUNT_N("core.pipeline.shards_clean", delta.shards_clean);
  APPLE_OBS_COUNT_N("core.pipeline.shards_dirty", delta.shards_dirty);
  return delta;
}

PlanDelta diff_plans(const PlacementPlan& prev,
                     const InstanceInventory& prev_inventory,
                     const PlacementPlan& next, const ClassDelta& delta,
                     vnf::InstanceId next_free_id) {
  APPLE_OBS_SPAN("core.pipeline.stage.diff_plans");
  APPLE_CHECK_EQ(prev.instance_count.size(), next.instance_count.size());
  APPLE_CHECK_EQ(prev_inventory.by_node_type.size(),
                 prev.instance_count.size());

  PlanDelta out;
  out.pinned_classes = delta.unchanged;
  out.resolved_classes = delta.added;
  out.resolved_classes.insert(out.resolved_classes.end(),
                              delta.rate_changed.begin(),
                              delta.rate_changed.end());
  std::sort(out.resolved_classes.begin(), out.resolved_classes.end());

  const std::size_t num_nodes = prev.instance_count.size();
  for (net::NodeId v = 0; v < num_nodes; ++v) {
    // Surplus ids per type: the back segment of the previous bucket (the
    // first next-count ids survive untouched, so sub-class plans that only
    // use the front of the bucket stay valid).
    std::array<std::vector<vnf::InstanceId>, vnf::kNumNfTypes> surplus;
    std::array<std::int64_t, vnf::kNumNfTypes> deficit{};
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const std::int64_t p =
          static_cast<std::int64_t>(prev.instance_count[v][n]);
      const std::int64_t q =
          static_cast<std::int64_t>(next.instance_count[v][n]);
      APPLE_CHECK_EQ(prev_inventory.by_node_type[v][n].size(),
                     static_cast<std::size_t>(p));
      if (p > q) {
        const auto& bucket = prev_inventory.by_node_type[v][n];
        surplus[n].assign(bucket.begin() + q, bucket.end());
      } else if (q > p) {
        deficit[n] = q - p;
      }
    }

    // Pair ClickOS deficits with ClickOS surpluses into reconfigures
    // (~30 ms, Sec. VIII-D) instead of an OpenStack boot plus a teardown.
    // Reconfigures consume surplus ids from the back; what is left of each
    // segment retires.
    std::vector<InstanceOp> reconfigures;
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfType to = static_cast<vnf::NfType>(n);
      if (!vnf::spec_of(to).clickos) continue;
      for (std::size_t m = 0; m < vnf::kNumNfTypes && deficit[n] > 0; ++m) {
        const vnf::NfType from = static_cast<vnf::NfType>(m);
        if (m == n || !vnf::spec_of(from).clickos) continue;
        while (deficit[n] > 0 && !surplus[m].empty()) {
          InstanceOp op;
          op.kind = InstanceOp::Kind::kReconfigure;
          op.id = surplus[m].back();
          surplus[m].pop_back();
          op.node = v;
          op.type = to;
          op.old_type = from;
          reconfigures.push_back(op);
          --deficit[n];
        }
      }
    }
    // Core-safe ordering within the node: retires free cores first, then
    // reconfigures that shrink or keep their core footprint, then growing
    // ones, then launches — the usage trajectory first only falls, then
    // rises monotonically to the (feasible) next plan's usage, so no prefix
    // of the sequence can overshoot the host budget.
    std::stable_sort(reconfigures.begin(), reconfigures.end(),
                     [](const InstanceOp& a, const InstanceOp& b) {
                       const auto grows = [](const InstanceOp& op) {
                         return vnf::spec_of(op.type).cores_required >
                                vnf::spec_of(op.old_type).cores_required;
                       };
                       return grows(a) < grows(b);
                     });

    for (std::size_t m = 0; m < vnf::kNumNfTypes; ++m) {
      for (const vnf::InstanceId id : surplus[m]) {
        InstanceOp op;
        op.kind = InstanceOp::Kind::kRetire;
        op.id = id;
        op.node = v;
        op.type = static_cast<vnf::NfType>(m);
        op.old_type = op.type;
        out.ops.push_back(op);
        ++out.instances_retired;
      }
    }
    for (InstanceOp& op : reconfigures) {
      out.ops.push_back(op);
      ++out.instances_reconfigured;
    }
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      for (std::int64_t k = 0; k < deficit[n]; ++k) {
        InstanceOp op;
        op.kind = InstanceOp::Kind::kLaunch;
        op.id = next_free_id++;
        op.node = v;
        op.type = static_cast<vnf::NfType>(n);
        op.old_type = op.type;
        out.ops.push_back(op);
        ++out.instances_launched;
      }
    }
  }

  APPLE_OBS_COUNT_N("core.pipeline.instances_launched", out.instances_launched);
  APPLE_OBS_COUNT_N("core.pipeline.instances_retired", out.instances_retired);
  APPLE_OBS_COUNT_N("core.pipeline.instances_reconfigured",
                    out.instances_reconfigured);
  return out;
}

InstanceInventory advance_inventory(const InstanceInventory& prev,
                                    const PlanDelta& delta) {
  InstanceInventory inv = prev;
  const auto erase_id = [](std::vector<vnf::InstanceId>& bucket,
                           vnf::InstanceId id) {
    const auto it = std::find(bucket.begin(), bucket.end(), id);
    APPLE_CHECK(it != bucket.end());
    bucket.erase(it);
  };
  for (const InstanceOp& op : delta.ops) {
    auto& per_type = inv.by_node_type.at(op.node);
    switch (op.kind) {
      case InstanceOp::Kind::kRetire:
        erase_id(per_type[static_cast<std::size_t>(op.old_type)], op.id);
        break;
      case InstanceOp::Kind::kReconfigure:
        erase_id(per_type[static_cast<std::size_t>(op.old_type)], op.id);
        per_type[static_cast<std::size_t>(op.type)].push_back(op.id);
        break;
      case InstanceOp::Kind::kLaunch:
        per_type[static_cast<std::size_t>(op.type)].push_back(op.id);
        break;
    }
  }
  return inv;
}

double modeled_control_latency(const PlanDelta& plan_delta,
                               std::size_t classes_reinstalled,
                               const orch::OrchestrationTimings& timings) {
  // Churned instances boot concurrently (the orchestrator drives OpenStack
  // asynchronously, Fig. 5), so the placement converges at the slowest
  // boot; rule updates follow serially from the controller.
  double makespan = 0.0;
  for (const InstanceOp& op : plan_delta.ops) {
    makespan = std::max(makespan, boot_latency_of(op, timings));
  }
  return makespan +
         timings.rule_install * static_cast<double>(classes_reinstalled);
}

double full_reinstall_latency(const Epoch& epoch,
                              const orch::OrchestrationTimings& timings) {
  double makespan = 0.0;
  for (const auto& per_type : epoch.inventory.by_node_type) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (per_type[n].empty()) continue;
      const InstanceOp launch{.type = static_cast<vnf::NfType>(n)};
      makespan = std::max(makespan, boot_latency_of(launch, timings));
    }
  }
  return makespan +
         timings.rule_install * static_cast<double>(epoch.classes.size());
}

std::uint64_t rule_entries_for(std::span<const dataplane::SubclassPlan> plans) {
  std::uint64_t entries = 0;
  for (const dataplane::SubclassPlan& plan : plans) {
    // Ingress classifier prefixes + one host-match entry per visit (Table
    // III), plus the vSwitch pipeline inside each visited host.
    entries += plan.classifier_prefix_rules + plan.itinerary.size();
    entries += dataplane::vswitch_rules_for(plan);
  }
  return entries;
}

RuleDelta diff_rules(
    std::span<const traffic::TrafficClass> prev_classes,
    const std::vector<std::vector<dataplane::SubclassPlan>>& prev_subclasses,
    std::span<const traffic::TrafficClass> next_classes,
    const std::vector<std::vector<dataplane::SubclassPlan>>& next_subclasses,
    const ClassDelta& delta) {
  APPLE_OBS_SPAN("core.pipeline.stage.diff_rules");
  APPLE_CHECK_EQ(prev_subclasses.size(), prev_classes.size());
  APPLE_CHECK_EQ(next_subclasses.size(), next_classes.size());
  APPLE_CHECK_EQ(delta.prev_of.size(), next_classes.size());

  RuleDelta out;
  for (const std::size_t p : delta.removed) {
    out.remove.push_back(prev_classes[p].id);
    out.rules_removed += rule_entries_for(prev_subclasses[p]);
  }
  for (std::size_t h = 0; h < next_classes.size(); ++h) {
    const std::size_t p = delta.prev_of[h];
    if (p != kNoClass && same_subclass_plans(prev_subclasses[p],
                                             next_subclasses[h])) {
      continue;  // rules identical: leave them installed
    }
    out.reinstall.push_back(h);
    out.rules_installed += rule_entries_for(next_subclasses[h]);
    if (p != kNoClass) {
      out.rules_removed += rule_entries_for(prev_subclasses[p]);
    }
  }

  APPLE_OBS_COUNT_N("core.pipeline.rules_installed", out.rules_installed);
  APPLE_OBS_COUNT_N("core.pipeline.rules_removed", out.rules_removed);
  return out;
}

void apply_rule_delta(
    const PlacementInput& next_input,
    const std::vector<std::vector<dataplane::SubclassPlan>>& next_subclasses,
    const PlanDelta& plan_delta, const RuleDelta& rule_delta,
    dataplane::DataPlane& dp) {
  APPLE_OBS_SPAN("core.pipeline.stage.apply_rules");
  for (const InstanceOp& op : plan_delta.ops) {
    switch (op.kind) {
      case InstanceOp::Kind::kRetire:
        dp.unregister_instance(op.id);
        break;
      case InstanceOp::Kind::kReconfigure:
      case InstanceOp::Kind::kLaunch:
        dp.register_instance(vnf::VnfInstance{
            op.id, op.type, op.node, vnf::spec_of(op.type).capacity_mbps});
        break;
    }
  }
  for (const traffic::ClassId id : rule_delta.remove) {
    dp.remove_class(id);
  }
  for (const std::size_t h : rule_delta.reinstall) {
    dp.install_class(next_input.classes[h], next_subclasses[h]);
  }
}

EpochPipeline::EpochPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

Epoch EpochPipeline::assemble_epoch(const net::Topology& topo,
                                    std::span<const vnf::PolicyChain> chains,
                                    std::vector<traffic::TrafficClass> classes,
                                    PlacementPlan plan) const {
  APPLE_OBS_SPAN("core.pipeline.assemble");
  if (!plan.feasible) {
    throw std::runtime_error("placement infeasible: " +
                             plan.infeasibility_reason);
  }
  Epoch epoch;
  epoch.classes = std::move(classes);
  epoch.plan = std::move(plan);
  PlacementInput input;
  input.topology = &topo;
  input.classes = epoch.classes;
  input.chains = chains;
  {
    APPLE_OBS_SPAN("core.pipeline.stage.inventory");
    epoch.inventory = materialize_inventory(input, epoch.plan);
  }
  {
    APPLE_OBS_SPAN("core.pipeline.stage.subclasses");
    epoch.subclasses = assign_subclasses(input, epoch.plan, epoch.inventory,
                                         options_.assigner);
  }
  {
    APPLE_OBS_SPAN("core.pipeline.stage.rules_account");
    epoch.rules = RuleGenerator().account(input, epoch.subclasses);
  }
  epoch.next_instance_id =
      static_cast<vnf::InstanceId>(epoch.plan.total_instances()) + 1;
  for (const traffic::TrafficClass& cls : epoch.classes) {
    epoch.next_class_id = std::max(epoch.next_class_id, cls.id + 1);
  }
  return epoch;
}

Epoch EpochPipeline::run(const net::Topology& topo,
                         std::span<const vnf::PolicyChain> chains,
                         traffic::ClassStore store) const {
  // The view is materialized before the epoch span opens: it is the
  // class store's cost, not the pipeline's.
  std::vector<traffic::TrafficClass> classes = store.materialize_view();
  APPLE_OBS_COUNT("core.pipeline.epochs_full");
  APPLE_OBS_EVENT_EPOCH();
  APPLE_OBS_SPAN("core.pipeline.epoch");
  PlacementInput input;
  input.topology = &topo;
  input.classes = classes;
  input.chains = chains;
  PlacementPlan plan;
  {
    APPLE_OBS_SPAN("core.pipeline.stage.place");
    plan = OptimizationEngine(options_.engine).place(input);
  }
  Epoch epoch =
      assemble_epoch(topo, chains, std::move(classes), std::move(plan));
  epoch.store = std::move(store);
  return epoch;
}

IncrementalEpoch EpochPipeline::advance(const Epoch& prev,
                                        const net::Topology& topo,
                                        std::span<const vnf::PolicyChain> chains,
                                        traffic::ClassStore next_store) const {
  APPLE_OBS_COUNT("core.pipeline.epochs_incremental");
  APPLE_OBS_EVENT_EPOCH();
  APPLE_OBS_SPAN("core.pipeline.advance");

  // The previous epoch must be store-backed: prev_of indices of the store
  // diff address prev.classes through the store's stable iteration order.
  APPLE_CHECK_EQ(prev.store.size(), prev.classes.size());

  // Stage 1: per-shard class delta (clean shards skip matching). Surviving
  // classes keep their previous ids (the installed TCAM tags stay valid);
  // added classes take fresh ids so a retired id is never reused while its
  // rules may still be draining. The ids go straight into the sharded id
  // arrays before the view is materialized.
  IncrementalEpoch out;
  out.class_delta = diff_classes(prev.store, next_store, options_.delta);
  traffic::ClassId next_class_id = prev.next_class_id;
  std::size_t h = 0;
  for (std::size_t s = 0; s < next_store.num_shards(); ++s) {
    const std::size_t count = next_store.shard(s).size();
    for (std::size_t i = 0; i < count; ++i, ++h) {
      const std::size_t p = out.class_delta.prev_of[h];
      next_store.set_id(s, i,
                        p != kNoClass ? prev.classes[p].id : next_class_id++);
    }
  }
  std::vector<traffic::TrafficClass> next_classes =
      next_store.materialize_view();

  // Stage 2: incremental placement — pin unchanged classes, water-fill the
  // dirty ones over residual capacity (kExact re-proves optimality with the
  // incremental plan seeding the branch-and-bound incumbent).
  PlacementInput input;
  input.topology = &topo;
  input.classes = next_classes;
  input.chains = chains;
  const OptimizationEngine engine(options_.engine);
  PlacementPlan plan;
  {
    APPLE_OBS_SPAN("core.pipeline.stage.place_incremental");
    plan = engine.replace(input, prev.plan, out.class_delta);
  }
  if (!plan.feasible) {
    APPLE_OBS_COUNT("core.pipeline.fallback_full");
    APPLE_OBS_EVENT("core.pipeline.fallback_full");
    out.full_recompute = true;
    APPLE_OBS_SPAN("core.pipeline.stage.place");
    plan = engine.place(input);
    if (!plan.feasible) {
      throw std::runtime_error("placement infeasible: " +
                               plan.infeasibility_reason);
    }
  }

  // Stage 3: instance churn with concrete ids, then the patched inventory.
  out.plan_delta =
      diff_plans(prev.plan, prev.inventory, plan, out.class_delta,
                 prev.next_instance_id);

  Epoch& epoch = out.epoch;
  epoch.classes = std::move(next_classes);
  epoch.plan = std::move(plan);
  epoch.inventory = advance_inventory(prev.inventory, out.plan_delta);
  epoch.next_instance_id = static_cast<vnf::InstanceId>(
      prev.next_instance_id + out.plan_delta.instances_launched);
  epoch.next_class_id = next_class_id;
  input.classes = epoch.classes;

  // Stage 4: sub-class decomposition over the patched inventory.
  {
    APPLE_OBS_SPAN("core.pipeline.stage.subclasses");
    epoch.subclasses = assign_subclasses(input, epoch.plan, epoch.inventory,
                                         options_.assigner);
  }
  {
    APPLE_OBS_SPAN("core.pipeline.stage.rules_account");
    epoch.rules = RuleGenerator().account(input, epoch.subclasses);
  }

  // Stage 5: rule churn.
  out.rule_delta = diff_rules(prev.classes, prev.subclasses, epoch.classes,
                              epoch.subclasses, out.class_delta);

  out.control_latency_s = modeled_control_latency(
      out.plan_delta,
      out.rule_delta.reinstall.size() + out.rule_delta.remove.size(),
      options_.timings);
  APPLE_OBS_OBSERVE("core.pipeline.reoptimize_latency_seconds",
                    out.control_latency_s);
  APPLE_OBS_COUNT_N("core.pipeline.classes_resolved",
                    out.plan_delta.resolved_classes.size());
  epoch.store = std::move(next_store);
  return out;
}

}  // namespace apple::core
