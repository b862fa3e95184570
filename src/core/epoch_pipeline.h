// Incremental epoch pipeline (paper Sec. VI, large time scale): the staged,
// delta-driven control loop that re-runs the Optimization Engine as traffic
// drifts without paying full-recompute cost for unchanged state.
//
// The monolithic epoch assembly (classes -> placement -> inventory ->
// sub-classes -> rules) is decomposed into stages with typed artifacts
// flowing between them:
//
//   ClassDelta  — classes added / removed / rate-changed between two
//                 traffic snapshots (stage 1, diff_classes). Surviving
//                 classes whose rate drifted less than a configurable
//                 threshold are *pinned*: their placement assignment is
//                 carried over verbatim.
//   PlanDelta   — concrete instance churn between two placements (stage 3,
//                 diff_plans): ordered launch / retire / reconfigure ops
//                 with exact instance ids, so the Resource Orchestrator can
//                 replay them and charge Fig. 5/7 boot latencies only to
//                 the churned instances. Retired and launched ClickOS
//                 instances at the same host are paired into kReconfigure
//                 ops (~30 ms, Sec. VIII-D) instead of a multi-second
//                 OpenStack boot plus a teardown.
//   RuleDelta   — per-class TCAM/vSwitch rule churn (stage 5, diff_rules):
//                 which classes need their rules (re)installed or removed,
//                 with entry counts, so the data plane is patched instead
//                 of rebuilt.
//
// Determinism contract: for a fixed rate-change threshold (and a fixed
// MipOptions::num_workers under kExact), the incremental path is
// deterministic — diffing, op ordering, id assignment and the residual
// water-filling all iterate in fixed (node, type, class) order, so two runs
// over the same snapshot series produce identical epochs and identical
// churn. See DESIGN.md "Incremental epoch pipeline".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/optimization_engine.h"
#include "core/rule_generator.h"
#include "core/subclass_assigner.h"
#include "orch/timings.h"
#include "traffic/class_store.h"

namespace apple::core {

// ---------------------------------------------------------------------------
// Stage 1: class delta.

struct ClassDeltaOptions {
  // Relative rate drift below which a surviving class counts as unchanged
  // and its assignment is pinned. 0 re-solves every surviving class whose
  // rate moved at all.
  double rate_change_threshold = 0.05;
  // Rates at or below this are treated as zero when computing drift.
  double zero_rate_mbps = 1e-9;
};

inline constexpr std::size_t kNoClass = static_cast<std::size_t>(-1);

// Diff between a previous and a next class store. Classes match on their
// (src, dst, chain_id) identity and their forwarding path; a path change
// (rerouting) is treated as remove + add since the pinned assignment would
// be meaningless on the new path.
struct ClassDelta {
  std::vector<std::size_t> added;         // next indices with no prev match
  std::vector<std::size_t> rate_changed;  // next indices, drift > threshold
  std::vector<std::size_t> unchanged;     // next indices, pinned
  std::vector<std::size_t> removed;       // prev indices with no next match
  // prev_of[next index] = matching prev index, or kNoClass for added.
  std::vector<std::size_t> prev_of;
  // Shard accounting: how many shards were diffed class by class vs
  // skipped via fingerprint equality (shards_dirty + shards_clean is the
  // stores' shard count).
  std::size_t shards_dirty = 0;
  std::size_t shards_clean = 0;

  // Classes whose assignment must be re-solved.
  std::size_t dirty_count() const { return added.size() + rate_changed.size(); }
  bool empty() const {
    return added.empty() && rate_changed.empty() && removed.empty();
  }
};

// Sharded diff over two ClassStores with the same shard count. Shards whose
// content fingerprints match short-circuit to "all pinned" without any
// per-class matching — an incremental epoch only pays for dirty shards.
// Indices in the delta are global stable-iteration-order indices (matching
// the stores' materialized views), and the delta buckets are identical to
// those of a (src, dst, chain)-keyed match over the two views that keeps
// each key's first prev class (the reference matcher of
// tests/core/epoch_pipeline_test.cc).
ClassDelta diff_classes(const traffic::ClassStore& prev,
                        const traffic::ClassStore& next,
                        const ClassDeltaOptions& options = {});

// ---------------------------------------------------------------------------
// Stage 3: plan delta.

// One instance lifecycle operation, with the concrete instance id the
// Resource Orchestrator must end up using (launch ids are pre-assigned so
// the pipeline's inventory and the orchestrator's id counter stay in
// lockstep; see AppleController::replay).
struct InstanceOp {
  enum class Kind { kLaunch, kRetire, kReconfigure };
  Kind kind = Kind::kLaunch;
  vnf::InstanceId id = 0;
  net::NodeId node = net::kInvalidNode;
  vnf::NfType type = vnf::NfType::kFirewall;      // resulting type
  vnf::NfType old_type = vnf::NfType::kFirewall;  // source type (reconfigure)
};

struct PlanDelta {
  // Apply in order: per node, retires first (frees cores), then
  // reconfigures, then launches.
  std::vector<InstanceOp> ops;
  std::vector<std::size_t> pinned_classes;    // next indices, assignment kept
  std::vector<std::size_t> resolved_classes;  // next indices, re-solved

  std::uint64_t instances_launched = 0;
  std::uint64_t instances_retired = 0;
  std::uint64_t instances_reconfigured = 0;

  bool empty() const { return ops.empty(); }
};

// Instance-level churn between two placements on the same topology.
// `next_free_id` is the first unused instance id (the persistent
// orchestrator's counter position); launch ops consume ids from it in
// (node, type) order. Surviving instances keep their ids.
PlanDelta diff_plans(const PlacementPlan& prev,
                     const InstanceInventory& prev_inventory,
                     const PlacementPlan& next, const ClassDelta& delta,
                     vnf::InstanceId next_free_id);

// Applies a PlanDelta's ops to the previous inventory: retired ids drop
// (from the back of their bucket), reconfigured ids move between type
// buckets, launched ids append. The result is aligned with the next plan's
// instance counts.
InstanceInventory advance_inventory(const InstanceInventory& prev,
                                    const PlanDelta& delta);

// Modeled control-plane makespan of applying the delta (Secs. VII-VIII):
// churned instances boot in parallel (OpenStack pipeline for launches —
// mean Fig. 7 latency for ClickOS images, full VM boot otherwise; ~30 ms
// for reconfigures), then the affected classes' forwarding rules are
// installed at `rule_install` each.
double modeled_control_latency(const PlanDelta& plan_delta,
                               std::size_t classes_reinstalled,
                               const orch::OrchestrationTimings& timings);

struct Epoch;

// Modeled control-plane makespan of a full reinstall of `epoch`, the cost
// the incremental path avoids: its whole fleet boots in parallel through
// the same pipeline, then every class's rules are installed.
double full_reinstall_latency(const Epoch& epoch,
                              const orch::OrchestrationTimings& timings);

// ---------------------------------------------------------------------------
// Stage 5: rule delta.

struct RuleDelta {
  // Next-epoch class indices whose rules must be (re)installed: added
  // classes and surviving classes whose sub-class plans changed.
  std::vector<std::size_t> reinstall;
  // Class ids (previous epoch) whose rules must be removed outright.
  std::vector<traffic::ClassId> remove;

  // TCAM entries (ingress classifier prefixes + per-visit host matches)
  // plus vSwitch entries, counted over the churned classes only.
  std::uint64_t rules_installed = 0;
  std::uint64_t rules_removed = 0;

  bool empty() const { return reinstall.empty() && remove.empty(); }
};

// Rule entries (TCAM + vSwitch) needed by one class's sub-class plans; the
// unit in which rule churn is counted.
std::uint64_t rule_entries_for(std::span<const dataplane::SubclassPlan> plans);

RuleDelta diff_rules(
    std::span<const traffic::TrafficClass> prev_classes,
    const std::vector<std::vector<dataplane::SubclassPlan>>& prev_subclasses,
    std::span<const traffic::TrafficClass> next_classes,
    const std::vector<std::vector<dataplane::SubclassPlan>>& next_subclasses,
    const ClassDelta& delta);

// Patches a live data plane holding the previous epoch's rule state into
// the next epoch's: retired instances are unregistered, launched /
// reconfigured ones registered, removed classes' rules deleted, and churned
// classes (re)installed. After this, `dp` walks packets exactly as a data
// plane freshly installed from the next epoch would.
void apply_rule_delta(
    const PlacementInput& next_input,
    const std::vector<std::vector<dataplane::SubclassPlan>>& next_subclasses,
    const PlanDelta& plan_delta, const RuleDelta& rule_delta,
    dataplane::DataPlane& dp);

// ---------------------------------------------------------------------------
// Epoch artifacts and the staged pipeline.

// One optimization epoch: everything derived from a single traffic matrix.
// (Moved here from apple_controller.h so every stage consumer shares one
// definition.)
struct Epoch {
  // Read-only view the engine stages span: `store`'s materialized classes
  // in the store's stable iteration order (index h here is class h of
  // `plan`, `subclasses` and every delta).
  std::vector<traffic::TrafficClass> classes;
  // The epoch's class container (traffic/class_store.h). run and advance
  // always set it; it is empty only between assemble_epoch and its caller
  // setting it.
  traffic::ClassStore store;
  PlacementPlan plan;
  InstanceInventory inventory;
  std::vector<std::vector<dataplane::SubclassPlan>> subclasses;
  RuleGenerationReport rules;
  // Id counters carried across incremental epochs: first unused instance id
  // (the persistent orchestrator's counter) and first unused class id.
  vnf::InstanceId next_instance_id = 1;
  traffic::ClassId next_class_id = 0;
};

// An incremental epoch: the new artifacts plus the deltas that produced
// them.
struct IncrementalEpoch {
  Epoch epoch;
  ClassDelta class_delta;
  PlanDelta plan_delta;
  RuleDelta rule_delta;
  // True when the incremental solve was infeasible and the stage fell back
  // to a full recompute (the deltas still describe the resulting churn).
  bool full_recompute = false;
  // Modeled control-plane latency of applying the deltas (seconds).
  double control_latency_s = 0.0;
};

struct PipelineOptions {
  EngineOptions engine;
  AssignerOptions assigner;
  ClassDeltaOptions delta;
  orch::OrchestrationTimings timings;
};

// The staged epoch pipeline. `run` assembles a from-scratch epoch (the path
// AppleController::optimize* shares); `advance` produces the next epoch
// from the previous one via the delta stages, re-solving only dirty
// classes. Both take the next epoch's classes as a ClassStore and keep it
// as the epoch's `store`.
class EpochPipeline {
 public:
  explicit EpochPipeline(PipelineOptions options = {});

  const PipelineOptions& options() const { return options_; }

  // Full epoch: placement of the store's materialized view -> inventory ->
  // sub-classes -> rule accounting. Throws std::runtime_error when the
  // placement is infeasible.
  Epoch run(const net::Topology& topo,
            std::span<const vnf::PolicyChain> chains,
            traffic::ClassStore store) const;

  // Assembles a full epoch from an externally computed placement: the
  // artifact stages `run` executes after its solve (inventory, sub-class
  // assignment, rule accounting, id counters), without re-running the
  // engine. The multi-domain coordinator (src/ctrl) places per-domain
  // inputs itself — possibly against residual budgets after a reconcile —
  // and materializes epochs through this seam. The returned epoch's
  // `store` is empty: the caller sets it to the store whose view
  // `classes` is. Throws std::runtime_error when `plan` is infeasible.
  Epoch assemble_epoch(const net::Topology& topo,
                       std::span<const vnf::PolicyChain> chains,
                       std::vector<traffic::TrafficClass> classes,
                       PlacementPlan plan) const;

  // Incremental epoch: per-shard diff of `next_store` against prev's store
  // (clean shards skip per-class matching entirely), pin unchanged
  // classes, re-solve dirty ones over residual capacity, patch inventory
  // and rule state. Surviving classes keep their previous class ids (their
  // installed TCAM tags stay valid), written straight into the sharded id
  // arrays; added classes get fresh ids. `prev` must be store-backed with
  // the same shard count. Falls back to a full recompute when the
  // incremental solve is infeasible; throws std::runtime_error when even
  // that is infeasible.
  IncrementalEpoch advance(const Epoch& prev, const net::Topology& topo,
                           std::span<const vnf::PolicyChain> chains,
                           traffic::ClassStore next_store) const;

 private:
  PipelineOptions options_;
};

}  // namespace apple::core
