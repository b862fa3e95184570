#include "ctrl/multi_domain.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"

namespace apple::ctrl {

namespace {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
inline constexpr double kCoreEps = 1e-6;

inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

inline std::uint64_t rate_bits(double rate) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(rate));
  std::memcpy(&bits, &rate, sizeof(bits));
  return bits;
}

using ClassKey = std::tuple<net::NodeId, net::NodeId, traffic::ChainId>;

inline ClassKey key_of(const traffic::TrafficClass& cls) {
  return {cls.src, cls.dst, cls.chain_id};
}

bool fits(std::span<const double> usage, std::span<const double> residual) {
  for (std::size_t v = 0; v < usage.size(); ++v) {
    if (usage[v] > residual[v] + kCoreEps) return false;
  }
  return true;
}

void subtract(std::vector<double>& residual, std::span<const double> usage) {
  for (std::size_t v = 0; v < residual.size(); ++v) {
    residual[v] = std::max(0.0, residual[v] - usage[v]);
  }
}

}  // namespace

MultiDomainController::MultiDomainController(
    const net::Topology& topo, std::span<const vnf::PolicyChain> chains,
    DomainConfig config, core::PipelineOptions pipeline_options,
    exec::ThreadPool* pool)
    : MultiDomainController(
          topo, chains,
          partition_topology(topo, config.num_domains, config.seed), config,
          std::move(pipeline_options), pool) {}

MultiDomainController::MultiDomainController(
    const net::Topology& topo, std::span<const vnf::PolicyChain> chains,
    DomainPartition partition, DomainConfig config,
    core::PipelineOptions pipeline_options, exec::ThreadPool* pool)
    : topo_(&topo),
      chains_(chains),
      config_(config),
      partition_(std::move(partition)),
      routing_(topo),
      pipeline_(std::move(pipeline_options)),
      pool_(pool) {
  config_.validate();
  APPLE_CHECK_EQ(partition_.num_domains, config_.num_domains);
  APPLE_CHECK_EQ(partition_.domain_of.size(), topo.num_nodes());
  domains_.reserve(partition_.num_domains);
  for (std::size_t d = 0; d < partition_.num_domains; ++d) {
    domains_.push_back(Domain{core::Epoch{}, dataplane::DataPlane(topo)});
  }
}

void MultiDomainController::for_each_domain(
    const std::function<void(std::size_t)>& body) const {
  if (pool_ != nullptr) {
    exec::parallel_for(*pool_, 0, domains_.size(), body);
  } else {
    for (std::size_t d = 0; d < domains_.size(); ++d) body(d);
  }
}

void MultiDomainController::notify(std::string_view phase) const {
  if (observer_) observer_(phase);
}

std::vector<double> MultiDomainController::usage_of(
    const core::PlacementPlan& plan) const {
  std::vector<double> usage(topo_->num_nodes(), 0.0);
  for (std::size_t v = 0; v < usage.size(); ++v) {
    for (std::size_t t = 0; t < vnf::kNumNfTypes; ++t) {
      usage[v] += plan.instance_count[v][t] *
                  vnf::spec_of(static_cast<vnf::NfType>(t)).cores_required;
    }
  }
  return usage;
}

ApplyReport MultiDomainController::initialize(
    std::vector<traffic::TrafficClass> classes) {
  APPLE_OBS_SPAN("ctrl.domain.initialize");
  APPLE_CHECK(!initialized_);
  const std::size_t K = num_domains();
  ApplyReport report;
  report.domains_dirty = K;

  // Home every class, sort each domain by (src, dst, chain) and hand out
  // dense per-domain ids — each domain owns an independent id space (its
  // data plane is private, so ids never collide across domains).
  const auto buckets = classes_by_domain(partition_, classes);
  std::vector<std::vector<traffic::TrafficClass>> domain_classes(K);
  std::size_t cross_domain = 0;
  for (std::size_t d = 0; d < K; ++d) {
    domain_classes[d].reserve(buckets[d].size());
    for (const std::size_t idx : buckets[d]) {
      domain_classes[d].push_back(std::move(classes[idx]));
    }
    std::sort(domain_classes[d].begin(), domain_classes[d].end(),
              [](const traffic::TrafficClass& a, const traffic::TrafficClass& b) {
                return key_of(a) < key_of(b);
              });
    for (std::size_t i = 0; i < domain_classes[d].size(); ++i) {
      domain_classes[d][i].id = static_cast<traffic::ClassId>(i);
      if (partition_.crosses_domains(domain_classes[d][i].path)) {
        ++cross_domain;
      }
    }
  }
  APPLE_OBS_GAUGE_SET("ctrl.domain.cross_domain_classes",
                      static_cast<double>(cross_domain));

  // Phase 1 — propose: every domain places its slice against the full
  // budgets, concurrently; slot d is the only output of body d.
  std::vector<core::PlacementPlan> plans(K);
  const core::OptimizationEngine engine(pipeline_.options().engine);
  {
    APPLE_OBS_SPAN("ctrl.domain.propose");
    for_each_domain([&](std::size_t d) {
      core::PlacementInput input{topo_, domain_classes[d], chains_};
      plans[d] = engine.place(input);
    });
  }
  notify("proposed");

  // Phase 2 — reconcile in domain-id order against the residual ledger.
  // A conflicted domain re-solves over the residual budgets; with no
  // previous epoch to bounce back to, one that stays infeasible aborts.
  std::vector<double> residual(topo_->num_nodes());
  for (net::NodeId v = 0; v < residual.size(); ++v) {
    residual[v] = topo_->node(v).host_cores;
  }
  {
    APPLE_OBS_SPAN("ctrl.domain.reconcile");
    for (std::size_t d = 0; d < K; ++d) {
      std::vector<double> usage;
      bool conflict = !plans[d].feasible;
      if (plans[d].feasible) {
        usage = usage_of(plans[d]);
        conflict = !fits(usage, residual);
      }
      if (conflict) {
        ++report.conflicts;
        ++domains_[d].conflicts;
        APPLE_OBS_COUNT("ctrl.domain.conflicts");
        const net::Topology masked = topo_->with_host_budgets(residual);
        core::PlacementInput input{&masked, domain_classes[d], chains_};
        plans[d] = engine.place(input);
        if (!plans[d].feasible) {
          throw std::runtime_error("multi-domain bring-up: domain " +
                                   std::to_string(d) + " infeasible: " +
                                   plans[d].infeasibility_reason);
        }
        usage = usage_of(plans[d]);
      }
      subtract(residual, usage);
    }
  }
  notify("reconciled");

  // Phase 3 — commit: assemble epochs and install the per-domain data
  // planes only now, after every claim was granted. Each epoch's store is
  // its key-sorted classes in one shard.
  {
    APPLE_OBS_SPAN("ctrl.domain.commit");
    for_each_domain([&](std::size_t d) {
      Domain& dom = domains_[d];
      dom.epoch = pipeline_.assemble_epoch(
          *topo_, chains_, std::move(domain_classes[d]), std::move(plans[d]));
      dom.epoch.store = traffic::build_class_store(dom.epoch.classes);
      core::PlacementInput input{topo_, dom.epoch.classes, chains_};
      core::RuleGenerator().install(input, dom.epoch.subclasses,
                                    dom.epoch.inventory, dom.dp);
      dom.live = true;
      ++dom.epochs;
    });
  }
  initialized_ = true;
  for (const Domain& dom : domains_) {
    report.instances_launched += dom.epoch.plan.total_instances();
    report.rules_installed +=
        dom.epoch.rules.tcam_with_tagging + dom.epoch.rules.vswitch_rules;
  }
  APPLE_OBS_COUNT_N("ctrl.domain.epochs", K);
  notify("committed");
  return report;
}

ApplyReport MultiDomainController::apply(const PolicyBatch& batch) {
  APPLE_OBS_SPAN("ctrl.domain.apply");
  APPLE_CHECK(initialized_);
  const std::size_t K = num_domains();
  APPLE_CHECK_EQ(batch.per_domain.size(), K);
  ApplyReport report;

  // Fold each domain's requests into its next class set (last state per
  // (src, dst, chain) key; the admission queue already coalesced within
  // the batch). A domain whose requests are all no-ops stays clean.
  struct Proposal {
    bool dirty = false;
    bool ok = false;
    bool granted = false;
    std::vector<traffic::TrafficClass> next_classes;  // key-sorted
    traffic::ClassStore next_store;
    core::IncrementalEpoch inc;
  };
  std::vector<Proposal> props(K);
  for (std::size_t d = 0; d < K; ++d) {
    if (batch.per_domain[d].empty()) continue;
    std::map<ClassKey, traffic::TrafficClass> next;
    for (const traffic::TrafficClass& cls : domains_[d].epoch.classes) {
      next.emplace(key_of(cls), cls);
    }
    bool changed = false;
    for (const PolicyRequest& r : batch.per_domain[d]) {
      const ClassKey key{r.src, r.dst, r.chain_id};
      const auto it = next.find(key);
      switch (r.kind) {
        case PolicyRequest::Kind::kAdd:
        case PolicyRequest::Kind::kModify:
          if (it != next.end()) {
            if (it->second.rate_mbps == r.rate_mbps) {
              ++report.requests_dropped;  // no-op
            } else {
              it->second.rate_mbps = r.rate_mbps;
              changed = true;
              ++report.requests_applied;
            }
          } else if (r.kind == PolicyRequest::Kind::kModify) {
            ++report.requests_dropped;  // modify of an unknown policy
          } else {
            auto path = routing_.path(r.src, r.dst);
            if (!path) {
              ++report.requests_dropped;  // unroutable OD pair
              break;
            }
            traffic::TrafficClass cls;
            cls.id = 0;  // advance hands out the real id
            cls.src = r.src;
            cls.dst = r.dst;
            cls.chain_id = r.chain_id;
            cls.rate_mbps = r.rate_mbps;
            cls.path = std::move(*path);
            next.emplace(key, std::move(cls));
            changed = true;
            ++report.requests_applied;
          }
          break;
        case PolicyRequest::Kind::kRemove:
          if (it != next.end()) {
            next.erase(it);
            changed = true;
            ++report.requests_applied;
          } else {
            ++report.requests_dropped;
          }
          break;
      }
    }
    if (!changed) continue;
    Proposal& p = props[d];
    p.dirty = true;
    p.next_classes.reserve(next.size());
    for (auto& [key, cls] : next) p.next_classes.push_back(std::move(cls));
  }

  // Phase 1 — propose: dirty domains build their next one-shard stores and
  // run their incremental pipelines concurrently; the previous epochs keep
  // serving untouched. The fold's lists are key-sorted, so a throw from the
  // store build is a bug, not a conflict.
  {
    APPLE_OBS_SPAN("ctrl.domain.propose");
    for_each_domain([&](std::size_t d) {
      Proposal& p = props[d];
      if (!p.dirty) return;
      p.next_store = traffic::build_class_store(p.next_classes);
      try {
        // advance takes a copy: a conflict's re-solve needs the store again.
        p.inc = pipeline_.advance(domains_[d].epoch, *topo_, chains_,
                                  p.next_store);
        p.ok = true;
      } catch (const std::runtime_error&) {
        p.ok = false;  // infeasible even after full recompute -> conflict
      }
    });
  }
  notify("proposed");

  // Phase 2 — reconcile in domain-id order. A conflicted domain is
  // re-solved over the residual budgets, and bounced back to its previous
  // epoch when that re-solve is infeasible or still does not fit. A
  // bounced domain's old usage is charged to the ledger at its turn, so
  // later domains see what actually keeps serving; grants made before the
  // bounce may leave a node transiently oversubscribed until the domain's
  // next successful epoch — capacity converges, correctness (chains) never
  // degrades.
  std::vector<double> residual(topo_->num_nodes());
  for (net::NodeId v = 0; v < residual.size(); ++v) {
    residual[v] = topo_->node(v).host_cores;
  }
  for (std::size_t d = 0; d < K; ++d) {
    if (!props[d].dirty) {
      ++report.domains_clean;
      subtract(residual, usage_of(domains_[d].epoch.plan));
    }
  }
  {
    APPLE_OBS_SPAN("ctrl.domain.reconcile");
    for (std::size_t d = 0; d < K; ++d) {
      Proposal& p = props[d];
      if (!p.dirty) continue;
      ++report.domains_dirty;
      std::vector<double> usage;
      bool conflict = !p.ok;
      if (p.ok) {
        usage = usage_of(p.inc.epoch.plan);
        conflict = !fits(usage, residual);
      }
      if (conflict) {
        ++report.conflicts;
        ++domains_[d].conflicts;
        APPLE_OBS_COUNT("ctrl.domain.conflicts");
        const net::Topology masked = topo_->with_host_budgets(residual);
        try {
          p.inc = pipeline_.advance(domains_[d].epoch, masked, chains_,
                                    std::move(p.next_store));
          usage = usage_of(p.inc.epoch.plan);
          p.ok = fits(usage, residual);
        } catch (const std::runtime_error&) {
          p.ok = false;
        }
        if (!p.ok) {
          ++report.rejected_domains;
          APPLE_OBS_COUNT("ctrl.domain.rejected");
          subtract(residual, usage_of(domains_[d].epoch.plan));
          continue;
        }
      }
      p.granted = true;
      subtract(residual, usage);
    }
  }
  notify("reconciled");

  // Phase 3 — commit: patch the granted domains' data planes in place and
  // adopt the new epochs. Until here every data plane still served its
  // previous, fully consistent rule state.
  {
    APPLE_OBS_SPAN("ctrl.domain.commit");
    for_each_domain([&](std::size_t d) {
      Proposal& p = props[d];
      if (!p.granted) return;
      Domain& dom = domains_[d];
      core::PlacementInput next_input{topo_, p.inc.epoch.classes, chains_};
      core::apply_rule_delta(next_input, p.inc.epoch.subclasses, p.inc.plan_delta,
                             p.inc.rule_delta, dom.dp);
      dom.epoch = std::move(p.inc.epoch);
      ++dom.epochs;
    });
  }
  std::size_t committed = 0;
  for (const Proposal& p : props) {
    if (!p.granted) continue;
    ++committed;
    report.instances_launched += p.inc.plan_delta.instances_launched;
    report.instances_retired += p.inc.plan_delta.instances_retired;
    report.instances_reconfigured += p.inc.plan_delta.instances_reconfigured;
    report.rules_installed += p.inc.rule_delta.rules_installed;
    report.rules_removed += p.inc.rule_delta.rules_removed;
    report.control_latency_s =
        std::max(report.control_latency_s, p.inc.control_latency_s);
  }
  APPLE_OBS_COUNT_N("ctrl.domain.epochs", committed);
  APPLE_OBS_COUNT_N("ctrl.domain.domains_dirty", report.domains_dirty);
  APPLE_OBS_COUNT_N("ctrl.domain.domains_clean", report.domains_clean);
  notify("committed");
  return report;
}

const core::Epoch& MultiDomainController::domain_epoch(std::size_t d) const {
  APPLE_CHECK_LT(d, domains_.size());
  return domains_[d].epoch;
}

const dataplane::DataPlane& MultiDomainController::domain_dataplane(
    std::size_t d) const {
  APPLE_CHECK_LT(d, domains_.size());
  return domains_[d].dp;
}

DomainStatus MultiDomainController::domain_status(std::size_t d) const {
  APPLE_CHECK_LT(d, domains_.size());
  const Domain& dom = domains_[d];
  DomainStatus status;
  status.nodes = partition_.members[d].size();
  status.classes = dom.epoch.classes.size();
  for (const traffic::TrafficClass& cls : dom.epoch.classes) {
    if (partition_.crosses_domains(cls.path)) ++status.cross_domain_classes;
  }
  status.instances = dom.epoch.plan.total_instances();
  status.epochs = dom.epochs;
  status.conflicts = dom.conflicts;
  return status;
}

std::size_t MultiDomainController::total_classes() const {
  std::size_t total = 0;
  for (const Domain& dom : domains_) total += dom.epoch.classes.size();
  return total;
}

std::uint64_t MultiDomainController::total_instances() const {
  std::uint64_t total = 0;
  for (const Domain& dom : domains_) {
    total += dom.epoch.plan.total_instances();
  }
  return total;
}

std::uint64_t MultiDomainController::fingerprint() const {
  std::uint64_t h = fnv_step(kFnvOffset, domains_.size());
  for (const Domain& dom : domains_) {
    for (const traffic::TrafficClass& cls : dom.epoch.classes) {
      h = fnv_step(h, cls.id);
      h = fnv_step(h, cls.src);
      h = fnv_step(h, cls.dst);
      h = fnv_step(h, cls.chain_id);
      h = fnv_step(h, rate_bits(cls.rate_mbps));
      h = fnv_step(h, cls.path.size());
      for (const net::NodeId v : cls.path) h = fnv_step(h, v);
    }
    for (const auto& counts : dom.epoch.plan.instance_count) {
      for (const std::uint32_t c : counts) h = fnv_step(h, c);
    }
    h = fnv_step(h, dom.epoch.next_instance_id);
    h = fnv_step(h, dom.epoch.next_class_id);
  }
  return h;
}

std::vector<fault::PolicyProbe> MultiDomainController::probes_for_domain(
    std::size_t d) const {
  APPLE_CHECK_LT(d, domains_.size());
  std::vector<fault::PolicyProbe> probes;
  probes.reserve(domains_[d].epoch.classes.size());
  for (const traffic::TrafficClass& cls : domains_[d].epoch.classes) {
    fault::PolicyProbe probe;
    probe.class_id = cls.id;
    probe.header.src_ip = 0x0A000000u + cls.id;
    probe.header.dst_ip = 0xC0A80000u + cls.id;
    probe.header.src_port = static_cast<std::uint16_t>(1024 + cls.id % 7919);
    probe.header.dst_port = 443;
    probe.header.proto = 6;
    const vnf::PolicyChain& chain = chains_[cls.chain_id];
    probe.expected_chain = std::vector<vnf::NfType>(chain.begin(), chain.end());
    probes.push_back(std::move(probe));
  }
  return probes;
}

}  // namespace apple::ctrl
