// APPLE controller facade (paper Fig. 1): wires the Optimization Engine,
// sub-class assignment, Rule Generator, Resource Orchestrator and Dynamic
// Handler into the control loop the evaluation exercises —
//   optimize on the mean traffic matrix  ->  place VNF instances  ->
//   install rules  ->  replay the time-varying snapshots, with fast
//   failover absorbing small-time-scale dynamics (Sec. IX-A methodology).
//
// Epoch assembly and re-optimization are delegated to the staged
// EpochPipeline (core/epoch_pipeline.h): `optimize*` are thin wrappers over
// EpochPipeline::run, and `replay` drives EpochPipeline::advance so each
// periodic re-optimization only churns the instances and rules that
// actually changed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dynamic_handler.h"
#include "core/epoch_pipeline.h"
#include "net/routing.h"
#include "traffic/synthesis.h"

namespace apple::core {

struct ControllerConfig {
  EngineOptions engine;
  AssignerOptions assigner;
  DynamicHandlerConfig handler;
  ClassDeltaOptions delta;  // pinning threshold for incremental epochs
  double snapshot_duration = 1.0;  // sim seconds per TM snapshot
  double tick = 0.05;              // fluid simulation tick
  double poll_interval = 0.1;      // counter poll (failover, fault detection)
  double min_class_rate_mbps = 1e-3;
  std::size_t num_chains = 0;      // 0 = all default chains
  std::uint64_t chain_seed = 0;    // OD-pair -> chain hashing seed
  double policied_fraction = 1.0;  // share of OD pairs carrying a policy
  // Chains each policied OD pair fans out over (scale scenarios; 1 = the
  // classic one-chain-per-pair assignment).
  std::size_t chains_per_pair = 1;
  // Shard count of the ClassStore every epoch carries
  // (traffic/class_store.h).
  std::size_t class_shards = 64;
  // Re-run the Optimization Engine every N snapshots during replay
  // (0 = never). This is the paper's large-time-scale mechanism (Sec. VI):
  // slow daily/weekly patterns tolerate full VNF installation, so the
  // placement tracks them while fast failover absorbs the fast dynamics.
  std::size_t reoptimize_every = 0;
};

// Control-plane churn across a replay's re-optimizations: the instance and
// rule operations applied to track the drifting traffic, and the modeled
// control-plane latency of applying them (Figs. 5/7 boot latencies charged
// only to churned instances).
struct ChurnMetrics {
  std::uint64_t instances_launched = 0;
  std::uint64_t instances_retired = 0;
  std::uint64_t instances_reconfigured = 0;
  std::uint64_t rules_installed = 0;
  std::uint64_t rules_removed = 0;
  std::size_t reoptimizations = 0;  // re-optimizations applied
  std::size_t full_recomputes = 0;  // of which recomputed from scratch
  double control_latency_sum_s = 0.0;  // summed per-reoptimization makespan
  double control_latency_max_s = 0.0;
};

// Replay of a snapshot series over an epoch placement (re-optimized every
// `reoptimize_every` snapshots when configured).
struct ReplayReport {
  std::vector<double> snapshot_loss;  // offered-weighted loss per snapshot
  double mean_loss = 0.0;
  double max_loss = 0.0;
  std::size_t epochs = 1;  // optimization epochs used across the replay
  ChurnMetrics churn;
  FailoverMetrics failover;
};

class AppleController {
 public:
  AppleController(const net::Topology& topo,
                  std::span<const vnf::PolicyChain> chains,
                  ControllerConfig config = {});

  const net::Topology& topology() const { return *topo_; }
  std::span<const vnf::PolicyChain> chains() const { return chains_; }
  const traffic::ChainAssignment& chain_assignment() const { return assign_; }
  const EpochPipeline& pipeline() const { return pipeline_; }
  const ControllerConfig& config() const { return config_; }

  // Builds the canonical sharded class store for a traffic matrix
  // (Sec. IV-A granularity; traffic/class_store.h).
  traffic::ClassStore build_class_store(const traffic::TrafficMatrix& tm) const;

  // Full epoch: classes -> placement -> instances -> sub-classes -> rules.
  // Throws std::runtime_error when the placement is infeasible.
  Epoch optimize(const traffic::TrafficMatrix& tm) const;

  // Failure recovery (extension): recompute the epoch with the APPLE hosts
  // at `hosts` treated as gone (their switches keep forwarding, so paths and
  // interference freedom are untouched). Throws std::invalid_argument on an
  // unknown id, std::runtime_error when no feasible placement exists without
  // those hosts.
  Epoch optimize_excluding_hosts(const traffic::TrafficMatrix& tm,
                                 std::span<const net::NodeId> hosts) const;

  // Replays `series` against the epoch's placement; `fast_failover`
  // enables the Dynamic Handler (the Fig. 12 comparison).
  ReplayReport replay(const Epoch& epoch,
                      std::span<const traffic::TrafficMatrix> series,
                      bool fast_failover) const;

 private:
  // Replays one optimization epoch's segment of the snapshot series,
  // accumulating losses and failover metrics into `report`.
  void replay_segment(const Epoch& epoch,
                      std::span<const traffic::TrafficMatrix> series,
                      bool fast_failover, ReplayReport& report) const;

  // Applies one re-optimization's instance churn to the persistent
  // control-plane orchestrator and returns the boot makespan (seconds).
  double apply_plan_delta(orch::ResourceOrchestrator& control,
                          const PlanDelta& delta, double now) const;

  const net::Topology* topo_;
  std::vector<vnf::PolicyChain> chains_;
  ControllerConfig config_;
  EpochPipeline pipeline_;
  net::AllPairsPaths routing_;
  traffic::ChainAssignment assign_;
};

}  // namespace apple::core
