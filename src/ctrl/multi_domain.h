// Sharded multi-domain control plane (DESIGN.md §16): K per-domain
// controllers, each owning one slice of the class population and its own
// EpochPipeline + DataPlane, under a coordinator that reconciles the
// domains' resource claims in a deterministic two-phase commit.
//
//   propose   — every dirty domain solves its own placement / incremental
//               epoch concurrently on the work-stealing pool (per-slot
//               outputs, so the fan-out is worker-count-invariant);
//   reconcile — the coordinator walks domains in ascending id order
//               against a residual per-node core ledger; a domain whose
//               claim no longer fits is re-solved over the residual
//               budgets, and bounced back to its previous epoch when even
//               that re-solve is infeasible or does not fit;
//   commit    — only after every grant are the per-domain data planes
//               patched, so mid-reconcile the old epochs keep serving and
//               no packet ever sees a partial chain.
//
// Classes are homed by ingress node (DomainPartition::home_domain); a
// cross-domain chain — its path crossing the cut — is still owned by one
// controller, whose placement may land instances on foreign nodes. That is
// exactly the conflict the reconcile ledger arbitrates. Every domain epoch
// is store-backed: the domain's classes, sorted by (src, dst, chain), sit
// in a one-shard traffic::ClassStore in that order, so the incremental
// pipeline diffs them like any other epoch's.
//
// Determinism contract: for a fixed (topology, chains, config, request
// trace), every artifact — epochs, plans, rule state, fingerprint() — is
// byte-identical across {1,2,4,8} pool workers (gated by
// bench_policy_updates and the ctrl tests).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/epoch_pipeline.h"
#include "ctrl/admission.h"
#include "ctrl/domain_partition.h"
#include "dataplane/data_plane.h"
#include "fault/recovery_monitor.h"
#include "net/routing.h"
#include "net/topology.h"
#include "vnf/nf_types.h"

namespace apple::exec {
class ThreadPool;
}  // namespace apple::exec

namespace apple::ctrl {

// Outcome of one two-phase commit (initialize or one admission batch).
struct ApplyReport {
  std::size_t domains_dirty = 0;    // domains whose class set changed
  std::size_t domains_clean = 0;    // untouched domains
  std::size_t conflicts = 0;        // claims that missed the residual ledger
  std::size_t rejected_domains = 0; // bounced to their previous epoch
  std::size_t requests_applied = 0;
  std::size_t requests_dropped = 0; // no-op removes/modifies, unroutable adds
  std::uint64_t instances_launched = 0;
  std::uint64_t instances_retired = 0;
  std::uint64_t instances_reconfigured = 0;
  std::uint64_t rules_installed = 0;
  std::uint64_t rules_removed = 0;
  // Modeled control-plane makespan: domains reconfigure concurrently, so
  // this is the max (not sum) of the per-domain latencies.
  double control_latency_s = 0.0;
};

struct DomainStatus {
  std::size_t nodes = 0;
  std::size_t classes = 0;
  std::size_t cross_domain_classes = 0;  // paths crossing the cut
  std::uint64_t instances = 0;
  std::size_t epochs = 0;     // epochs this domain committed
  std::size_t conflicts = 0;  // reconcile conflicts charged to it
};

class MultiDomainController {
 public:
  // Partitions `topo` into config.num_domains domains itself. `pool` (may
  // be null = serial) drives the per-domain fan-outs; `topo` and `chains`
  // must outlive the controller.
  MultiDomainController(const net::Topology& topo,
                        std::span<const vnf::PolicyChain> chains,
                        DomainConfig config,
                        core::PipelineOptions pipeline_options = {},
                        exec::ThreadPool* pool = nullptr);

  // Same, over a caller-built partition (tests hand-craft exact cuts).
  // config.num_domains must equal partition.num_domains.
  MultiDomainController(const net::Topology& topo,
                        std::span<const vnf::PolicyChain> chains,
                        DomainPartition partition, DomainConfig config,
                        core::PipelineOptions pipeline_options = {},
                        exec::ThreadPool* pool = nullptr);

  // Initial bring-up: homes `classes` (ids reassigned per domain), places
  // every domain, reconciles, and installs the per-domain data planes.
  // Conflicts are re-solved over the residual budgets as in apply; with no
  // previous epoch to bounce back to, throws std::runtime_error when a
  // domain stays infeasible even then.
  ApplyReport initialize(std::vector<traffic::TrafficClass> classes);

  // Two-phase commits one admission batch (see header comment). Domains
  // whose bucket is empty or a pure no-op stay clean and keep serving
  // without touching their pipeline.
  ApplyReport apply(const PolicyBatch& batch);

  // Fires between the phases of initialize/apply ("proposed",
  // "reconciled", "committed") so tests and monitors can probe the
  // serving data planes mid-commit.
  using PhaseObserver = std::function<void(std::string_view phase)>;
  void set_phase_observer(PhaseObserver observer) {
    observer_ = std::move(observer);
  }

  const DomainPartition& partition() const { return partition_; }
  const net::AllPairsPaths& routing() const { return routing_; }
  std::size_t num_domains() const { return partition_.num_domains; }
  bool initialized() const { return initialized_; }

  const core::Epoch& domain_epoch(std::size_t d) const;
  const dataplane::DataPlane& domain_dataplane(std::size_t d) const;
  DomainStatus domain_status(std::size_t d) const;

  std::size_t total_classes() const;
  std::uint64_t total_instances() const;

  // Order-sensitive FNV fingerprint over every domain's classes, plan and
  // id counters — the byte-identity gate across worker counts.
  std::uint64_t fingerprint() const;

  // One seeded policy probe per installed class of domain d, for
  // fault::RecoveryMonitor::verify_policies against domain_dataplane(d).
  std::vector<fault::PolicyProbe> probes_for_domain(std::size_t d) const;

 private:
  struct Domain {
    core::Epoch epoch;
    dataplane::DataPlane dp;
    bool live = false;
    std::size_t epochs = 0;
    std::size_t conflicts = 0;
  };

  // Runs body(d) for every domain, on the pool when present. Bodies write
  // only their own domain's state.
  void for_each_domain(const std::function<void(std::size_t)>& body) const;
  void notify(std::string_view phase) const;
  // Per-node cores consumed by `plan`.
  std::vector<double> usage_of(const core::PlacementPlan& plan) const;

  const net::Topology* topo_;
  std::span<const vnf::PolicyChain> chains_;
  DomainConfig config_;
  DomainPartition partition_;
  net::AllPairsPaths routing_;
  core::EpochPipeline pipeline_;
  exec::ThreadPool* pool_ = nullptr;
  std::vector<Domain> domains_;
  PhaseObserver observer_;
  bool initialized_ = false;
};

}  // namespace apple::ctrl
