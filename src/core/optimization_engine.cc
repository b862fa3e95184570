#include "core/optimization_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/check.h"
#include "core/epoch_pipeline.h"
#include "core/ilp_builder.h"
#include "lp/simplex.h"
#include "obs/obs.h"

namespace apple::core {

namespace {

constexpr double kEps = 1e-9;

PlacementPlan empty_plan(const PlacementInput& input) {
  PlacementPlan plan;
  plan.instance_count.assign(input.topology->num_nodes(),
                             std::array<std::uint32_t, vnf::kNumNfTypes>{});
  plan.distribution.reserve(input.classes.size());
  for (const traffic::TrafficClass& cls : input.classes) {
    plan.distribution.emplace_back(cls.path.size(),
                                   input.chain_of(cls).size());
  }
  return plan;
}

// Per-(switch, type) greedy bookkeeping.
struct NodeTypeState {
  std::uint32_t instances = 0;
  double used_mbps = 0.0;
};

// The water-filling fill's working state. A from-scratch fill starts empty;
// the incremental path seeds it with the previous plan's instances and the
// pinned classes' load before filling only the dirty classes. `host_cores`
// copies A_v out of the topology so the inner loops index a flat array.
struct FillState {
  std::vector<std::array<NodeTypeState, vnf::kNumNfTypes>> state;
  std::vector<double> cores_used;
  std::vector<double> host_cores;

  explicit FillState(const net::Topology& topo)
      : state(topo.num_nodes()), cores_used(topo.num_nodes(), 0.0) {
    host_cores.reserve(topo.num_nodes());
    for (const net::Node& node : topo.nodes()) {
      host_cores.push_back(node.host_cores);
    }
  }
};

// Most-constrained-first: classes with short paths have the fewest host
// choices and must reserve resources before hub switches fill up; among
// equals, big classes first so their chains pack tightly.
std::vector<std::size_t> constrained_order(const PlacementInput& input,
                                           std::vector<std::size_t> order) {
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& ca = input.classes[a];
    const auto& cb = input.classes[b];
    if (ca.path.size() != cb.path.size()) {
      return ca.path.size() < cb.path.size();
    }
    return ca.rate_mbps > cb.rate_mbps;
  });
  return order;
}

// The constrained order of every class, computed once per place and shared
// by all of its fills.
std::vector<std::size_t> constrained_order(const PlacementInput& input) {
  std::vector<std::size_t> order(input.classes.size());
  std::iota(order.begin(), order.end(), 0);
  return constrained_order(input, std::move(order));
}

// Water-fills the classes in `order` into `fs` (on top of whatever load it
// already carries), preferring positions with residual capacity, then the
// highest `popularity[v][n]`. Returns false (with the reason recorded on
// the plan) when a class cannot be fully placed.
bool fill_classes(
    const PlacementInput& input,
    const std::vector<std::array<double, vnf::kNumNfTypes>>& popularity,
    const std::vector<std::size_t>& order, PlacementPlan& plan,
    FillState& fs) {
  auto& state = fs.state;
  auto& cores_used = fs.cores_used;
  const std::vector<double>& host_cores = fs.host_cores;

  // Scratch reused by every class (assign() keeps the capacity): the
  // cumulative fractions of the previous and the current stage per path
  // position, the suffix slack, banned positions, the chain's specs and
  // suffix_avail, row-major [chain stage][path position].
  std::vector<double> prev_prefix;
  std::vector<double> cur_prefix;
  std::vector<double> slack;
  std::vector<char> banned;
  std::vector<const vnf::NfSpec*> specs;
  std::vector<double> suffix_avail;

  for (const std::size_t h : order) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    const std::size_t len = cls.path.size();
    ClassDistribution& d = plan.distribution[h];

    if (cls.rate_mbps <= kEps) {
      // Zero-rate class: process everything at the first host on the path.
      std::size_t host_index = len;
      for (std::size_t i = 0; i < len; ++i) {
        if (host_cores[cls.path[i]] > 0.0) {
          host_index = i;
          break;
        }
      }
      if (host_index == len) {
        plan.infeasibility_reason =
            "class " + std::to_string(h) + ": no APPLE host on path";
        return false;
      }
      for (std::size_t j = 0; j < chain.size(); ++j) {
        d(host_index, j) = 1.0;
      }
      continue;
    }

    specs.clear();
    for (const vnf::NfType type : chain) specs.push_back(&vnf::spec_of(type));
    slack.resize(len);
    suffix_avail.resize(chain.size() * len);
    // prev_prefix[i]: cumulative fraction of the previous stage processed
    // up to path index i (stage 0 may start anywhere: all ones).
    prev_prefix.assign(len, 1.0);
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const vnf::NfType type = chain[j];
      const std::size_t n = static_cast<std::size_t>(type);
      const vnf::NfSpec& spec = *specs[j];
      double assigned = 0.0;
      cur_prefix.assign(len, 0.0);
      banned.assign(len, 0);
      // Candidate loop: repeatedly pick the best position with Eq. 3 slack,
      // preferring residual capacity of already-open instances, then
      // cross-class popularity (pool where many classes pass), then the
      // earliest position.
      std::size_t guard = 0;  // bounds pathological micro-fills
      while (assigned < 1.0 - kEps && ++guard <= 1000) {
        // Suffix slack: the largest fraction addable at position i without
        // violating the precedence prefix anywhere downstream.
        double suffix_min = 2.0;
        for (std::size_t i = len; i-- > 0;) {
          suffix_min = std::min(suffix_min, prev_prefix[i] - cur_prefix[i]);
          slack[i] = suffix_min;
        }
        // Lookahead: choosing position i for this stage confines every
        // later stage to positions >= i (Eq. 3). suffix_avail[k][i] is the
        // capacity (residual + openable) stage k can still reach in the
        // path suffix [i, end).
        for (std::size_t k = j + 1; k < chain.size(); ++k) {
          const std::size_t nk = static_cast<std::size_t>(chain[k]);
          const vnf::NfSpec& spec_k = *specs[k];
          double* avail_k = suffix_avail.data() + k * len;
          double avail = 0.0;
          for (std::size_t i = len; i-- > 0;) {
            const net::NodeId v = cls.path[i];
            if (host_cores[v] > 0.0) {
              const NodeTypeState& nts = state[v][nk];
              avail += std::max(
                  0.0, nts.instances * spec_k.capacity_mbps - nts.used_mbps);
              const double openable = std::floor(
                  (host_cores[v] - cores_used[v] + kEps) /
                  spec_k.cores_required);
              avail += std::max(0.0, openable) * spec_k.capacity_mbps;
            }
            avail_k[i] = avail;
          }
        }
        // future_ok(i): every later stage keeps enough reachable capacity
        // if this stage is placed at i — accounting for the cores this
        // stage itself would consume at i (the future stages counted them
        // as openable).
        const auto future_ok = [&](std::size_t i) {
          const net::NodeId v = cls.path[i];
          const NodeTypeState& nts = state[v][n];
          const double residual_here = std::max(
              0.0, nts.instances * spec.capacity_mbps - nts.used_mbps);
          const double need_mbps_here =
              std::max(0.0, (1.0 - assigned) * cls.rate_mbps - residual_here);
          const double opened_cores =
              std::ceil(need_mbps_here / spec.capacity_mbps - kEps) *
              spec.cores_required;
          const double free_before = host_cores[v] - cores_used[v];
          const double free_after = std::max(0.0, free_before - opened_cores);
          for (std::size_t k = j + 1; k < chain.size(); ++k) {
            const vnf::NfSpec& spec_k = *specs[k];
            const double openable_before = std::max(
                0.0, std::floor((free_before + kEps) / spec_k.cores_required));
            const double openable_after = std::max(
                0.0, std::floor((free_after + kEps) / spec_k.cores_required));
            const double adjusted =
                suffix_avail[k * len + i] -
                (openable_before - openable_after) * spec_k.capacity_mbps;
            if (adjusted < cls.rate_mbps - kEps) return false;
          }
          return true;
        };

        const auto pick = [&](bool respect_lookahead) {
          std::size_t best = len;
          bool best_has_residual = false;
          double best_popularity = -1.0;
          for (std::size_t i = 0; i < len; ++i) {
            const net::NodeId v = cls.path[i];
            if (banned[i] || !(host_cores[v] > 0.0) || slack[i] <= kEps) {
              continue;
            }
            if (respect_lookahead && !future_ok(i)) continue;
            const NodeTypeState& nts = state[v][n];
            const bool has_residual =
                nts.instances * spec.capacity_mbps - nts.used_mbps > kEps;
            const bool can_open = cores_used[v] + spec.cores_required <=
                                  host_cores[v] + kEps;
            if (!has_residual && !can_open) continue;
            const double pop = popularity[v][n];
            if (best == len ||
                std::make_tuple(has_residual, pop) >
                    std::make_tuple(best_has_residual, best_popularity)) {
              best = i;
              best_has_residual = has_residual;
              best_popularity = pop;
            }
          }
          return best;
        };
        std::size_t best = pick(/*respect_lookahead=*/true);
        if (best == len) {
          // The conservative lookahead may over-reject under tight
          // resources; trying is better than giving up.
          best = pick(/*respect_lookahead=*/false);
        }
        if (best == len) break;  // nowhere left to place

        const net::NodeId v = cls.path[best];
        NodeTypeState& nts = state[v][n];
        const double target_mbps =
            std::min(slack[best], 1.0 - assigned) * cls.rate_mbps;
        double taken_mbps = 0.0;
        while (taken_mbps < target_mbps - kEps) {
          const double residual =
              nts.instances * spec.capacity_mbps - nts.used_mbps;
          if (residual > kEps) {
            const double take = std::min(residual, target_mbps - taken_mbps);
            nts.used_mbps += take;
            taken_mbps += take;
            continue;
          }
          if (cores_used[v] + spec.cores_required <= host_cores[v] + kEps) {
            cores_used[v] += spec.cores_required;  // Eq. 6
            ++nts.instances;
            ++plan.instance_count[v][n];
            continue;
          }
          break;  // host exhausted mid-fill
        }
        if (taken_mbps <= kEps) {
          banned[best] = 1;  // racing classes drained it; never retry
          continue;
        }
        const double frac = taken_mbps / cls.rate_mbps;
        d(best, j) += frac;
        assigned += frac;
        for (std::size_t i = best; i < len; ++i) {
          cur_prefix[i] += frac;
        }
      }
      if (assigned < 1.0 - 1e-6) {
        plan.infeasibility_reason =
            "class " + std::to_string(h) + ": stage " + std::to_string(j) +
            " (" + std::string(vnf::to_string(type)) +
            ") cannot be fully placed on the path (resources exhausted)";
        return false;
      }
      // Settle floating-point drift so Eq. 4 holds exactly: the deficit is
      // dumped at the last host index, where the previous stage is always
      // complete (prefix = 1), so Eq. 3 cannot break.
      if (assigned < 1.0) {
        std::size_t last_host = len;
        for (std::size_t i = len; i-- > 0;) {
          if (host_cores[cls.path[i]] > 0.0) {
            last_host = i;
            break;
          }
        }
        const double deficit = 1.0 - assigned;
        d(last_host, j) += deficit;
        state[cls.path[last_host]][n].used_mbps += deficit * cls.rate_mbps;
        for (std::size_t i = last_host; i < len; ++i) {
          cur_prefix[i] += deficit;
        }
      }
      std::swap(prev_prefix, cur_prefix);
    }
  }
  return true;
}

// Trim: drop instances the fill never needed (ceil of actual usage).
void trim_instances(const PlacementInput& input, const FillState& fs,
                    PlacementPlan& plan) {
  for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const double cap =
          vnf::spec_of(static_cast<vnf::NfType>(n)).capacity_mbps;
      const std::uint32_t needed = static_cast<std::uint32_t>(
          std::ceil(fs.state[v][n].used_mbps / cap - 1e-9));
      plan.instance_count[v][n] = std::min(plan.instance_count[v][n], needed);
    }
  }
}

// Local search run after the from-scratch fill: evacuates lightly-utilized
// (switch, type) instance groups onto spare capacity elsewhere on each
// class's path (respecting the Eq. 3 prefixes) and drops the freed
// instances. Closes most of the integrality gap the water-filling leaves
// against the LP bound. The incremental path skips it: it moves any class's
// fractions, which would churn pinned classes' rules for marginal gain.
void consolidate_instances(const PlacementInput& input,
                           const std::vector<double>& host_cores,
                           PlacementPlan& plan) {
  const net::Topology& topo = *input.topology;

  // Offered load per (switch, type), derived from the current distribution.
  std::vector<std::array<double, vnf::kNumNfTypes>> used(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});
  const auto recompute_used = [&] {
    for (auto& per_switch : used) per_switch = {};
    for (std::size_t h = 0; h < input.classes.size(); ++h) {
      const traffic::TrafficClass& cls = input.classes[h];
      const vnf::PolicyChain& chain = input.chain_of(cls);
      const ClassDistribution& d = plan.distribution[h];
      for (std::size_t i = 0; i < cls.path.size(); ++i) {
        for (std::size_t j = 0; j < chain.size(); ++j) {
          used[cls.path[i]][static_cast<std::size_t>(chain[j])] +=
              cls.rate_mbps * d(i, j);
        }
      }
    }
  };

  const auto spare_at = [&](net::NodeId v, std::size_t n) {
    const double cap = vnf::spec_of(static_cast<vnf::NfType>(n)).capacity_mbps;
    return plan.instance_count[v][n] * cap - used[v][n];
  };

  // Users of each (switch, type) bucket b = v * kNumNfTypes + n as one CSR
  // index, rebuilt per pass: users[user_start[b] .. user_start[b + 1]) are
  // the bucket's (class, path index, stage) entries in that order.
  struct User {
    std::size_t h;
    std::size_t i;
    std::size_t j;
  };
  const std::size_t num_buckets = topo.num_nodes() * vnf::kNumNfTypes;
  std::vector<std::size_t> user_start(num_buckets + 1);
  std::vector<std::size_t> cursor;
  std::vector<User> users;
  const auto for_each_user = [&](const auto& visit) {
    for (std::size_t h = 0; h < input.classes.size(); ++h) {
      const traffic::TrafficClass& cls = input.classes[h];
      if (cls.rate_mbps <= kEps) continue;
      const vnf::PolicyChain& chain = input.chain_of(cls);
      const ClassDistribution& d = plan.distribution[h];
      for (std::size_t i = 0; i < cls.path.size(); ++i) {
        for (std::size_t j = 0; j < chain.size(); ++j) {
          if (d(i, j) > kEps) {
            visit(cls.path[i] * vnf::kNumNfTypes +
                      static_cast<std::size_t>(chain[j]),
                  User{h, i, j});
          }
        }
      }
    }
  };
  // Prefix sums of the visited user's stage and its two neighbours, reused
  // across users.
  std::vector<double> prefix_prev;
  std::vector<double> prefix_cur;
  std::vector<double> prefix_next;

  // Visit groups from least utilized: those are the cheapest to empty.
  struct Group {
    net::NodeId v;
    std::size_t n;
    double utilization;
  };
  std::vector<Group> groups;

  for (int pass = 0; pass < 4; ++pass) {
    recompute_used();
    std::fill(user_start.begin(), user_start.end(), 0);
    for_each_user([&](std::size_t b, const User&) { ++user_start[b + 1]; });
    std::partial_sum(user_start.begin(), user_start.end(), user_start.begin());
    users.resize(user_start.back());
    cursor.assign(user_start.begin(), user_start.end() - 1);
    for_each_user([&](std::size_t b, const User& u) { users[cursor[b]++] = u; });

    groups.clear();
    for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
      for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
        if (plan.instance_count[v][n] == 0) continue;
        const double cap =
            vnf::spec_of(static_cast<vnf::NfType>(n)).capacity_mbps;
        groups.push_back(
            Group{v, n, used[v][n] / (plan.instance_count[v][n] * cap)});
      }
    }
    std::sort(groups.begin(), groups.end(),
              [](const Group& a, const Group& b) {
                return a.utilization < b.utilization;
              });

    bool any_removed = false;
    for (const Group& group : groups) {
      const double cap =
          vnf::spec_of(static_cast<vnf::NfType>(group.n)).capacity_mbps;
      // Amount to evacuate so at least one instance can be dropped.
      double to_move =
          used[group.v][group.n] -
          (static_cast<double>(plan.instance_count[group.v][group.n]) - 1.0) *
              cap;
      if (to_move > cap * 0.75) continue;  // too full to be worth emptying

      const std::size_t bucket = group.v * vnf::kNumNfTypes + group.n;
      for (std::size_t u = user_start[bucket]; u < user_start[bucket + 1];
           ++u) {
        if (to_move <= kEps) break;
        const auto [h, i, j] = users[u];
        const traffic::TrafficClass& cls = input.classes[h];
        ClassDistribution& d = plan.distribution[h];
        if (d(i, j) <= kEps) continue;
        const vnf::PolicyChain& chain = input.chain_of(cls);
        const std::size_t len = cls.path.size();
        // Prefix sums of the neighboring stages bound how far stage j's
        // share at position i may move (Eq. 3).
        prefix_prev.assign(len, 1.0);
        prefix_cur.assign(len, 0.0);
        prefix_next.assign(len, 0.0);
        double acc = 0.0;
        for (std::size_t x = 0; x < len; ++x) {
          if (j > 0) {
            prefix_prev[x] = (x > 0 ? prefix_prev[x - 1] : 0.0) + d(x, j - 1);
          }
          acc += d(x, j);
          prefix_cur[x] = acc;
          if (j + 1 < chain.size()) {
            prefix_next[x] = (x > 0 ? prefix_next[x - 1] : 0.0) + d(x, j + 1);
          }
        }
        for (std::size_t target = 0; target < len; ++target) {
          if (to_move <= kEps || d(i, j) <= kEps) break;
          if (target == i) continue;
          const net::NodeId tv = cls.path[target];
          if (!(host_cores[tv] > 0.0)) continue;
          if (tv == group.v) continue;  // same group: no gain
          const double spare = spare_at(tv, group.n);
          if (spare <= kEps) continue;
          // Precedence bound for shifting mass between positions i<->target.
          double bound = d(i, j);
          if (target > i) {
            for (std::size_t x = i; x < target; ++x) {
              bound = std::min(bound, prefix_cur[x] - prefix_next[x]);
            }
          } else {
            for (std::size_t x = target; x < i; ++x) {
              bound = std::min(bound, prefix_prev[x] - prefix_cur[x]);
            }
          }
          const double move_frac = std::max(
              0.0, std::min({bound, spare / cls.rate_mbps,
                             to_move / cls.rate_mbps}));
          if (move_frac <= kEps) continue;
          d(i, j) -= move_frac;
          d(target, j) += move_frac;
          const double moved_mbps = move_frac * cls.rate_mbps;
          used[group.v][group.n] -= moved_mbps;
          used[tv][group.n] += moved_mbps;
          to_move -= moved_mbps;
          // Refresh the current stage's prefix after the shift.
          const std::size_t lo = std::min(i, target);
          for (std::size_t x = lo; x < len; ++x) {
            prefix_cur[x] = (x > 0 ? prefix_cur[x - 1] : 0.0) + d(x, j);
          }
        }
      }
      if (to_move <= kEps) {
        --plan.instance_count[group.v][group.n];
        any_removed = true;
      }
    }
    if (!any_removed) break;
  }
}

// Water-filling fill shared by kGreedy and kLpRound: places every class
// front-to-back, preferring positions with residual capacity, then the
// highest `popularity[v][n]` (rate-weighted for kGreedy, the fractional
// LP q for kLpRound — i.e. LP-guided rounding).
PlacementPlan fill_plan(
    const PlacementInput& input,
    const std::vector<std::array<double, vnf::kNumNfTypes>>& popularity,
    const std::vector<std::size_t>& order) {
  PlacementPlan plan = empty_plan(input);
  FillState fs(*input.topology);
  if (!fill_classes(input, popularity, order, plan, fs)) return plan;
  trim_instances(input, fs, plan);
  consolidate_instances(input, fs.host_cores, plan);
  plan.feasible = true;
  return plan;
}

// Seeds the fill state with the previous plan's instances and the pinned
// classes' load (at their *next* rates, which drifted at most the pin
// threshold). Sub-threshold drift can still push a pinned (switch, type)
// bucket past its carried capacity; the repair step opens extra instances
// where the host's cores allow, and fails otherwise (the caller then falls
// back to a full recompute).
bool seed_from_previous(const PlacementInput& input, const PlacementPlan& prev,
                        const ClassDelta& delta, PlacementPlan& plan,
                        FillState& fs) {
  const net::Topology& topo = *input.topology;
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const std::uint32_t count = prev.instance_count[v][n];
      plan.instance_count[v][n] = count;
      fs.state[v][n].instances = count;
      fs.cores_used[v] +=
          count * vnf::spec_of(static_cast<vnf::NfType>(n)).cores_required;
    }
  }
  for (const std::size_t h : delta.unchanged) {
    const std::size_t p = delta.prev_of[h];
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    APPLE_CHECK_EQ(prev.distribution[p].positions(), cls.path.size());
    APPLE_CHECK_EQ(prev.distribution[p].stages(), chain.size());
    // Equal-sized blocks: the copy reuses the empty plan's storage.
    plan.distribution[h] = prev.distribution[p];
    const ClassDistribution& d = plan.distribution[h];
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        fs.state[cls.path[i]][static_cast<std::size_t>(chain[j])].used_mbps +=
            d(i, j) * cls.rate_mbps;
      }
    }
  }
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const vnf::NfSpec& spec = vnf::spec_of(static_cast<vnf::NfType>(n));
      const std::uint32_t needed = static_cast<std::uint32_t>(std::max(
          0.0, std::ceil(fs.state[v][n].used_mbps / spec.capacity_mbps -
                         kEps)));
      if (needed <= plan.instance_count[v][n]) continue;
      const double extra_cores =
          (needed - plan.instance_count[v][n]) * spec.cores_required;
      if (fs.cores_used[v] + extra_cores > topo.node(v).host_cores + kEps) {
        plan.infeasibility_reason =
            "pinned load overflows host " + std::to_string(v) +
            " (type " + std::string(vnf::to_string(static_cast<vnf::NfType>(n))) +
            "): repair needs more cores than available";
        return false;
      }
      fs.cores_used[v] += extra_cores;
      fs.state[v][n].instances = needed;
      plan.instance_count[v][n] = needed;
    }
  }
  return true;
}

// Packs a feasible plan into a dense solver assignment for warm-starting
// the branch-and-bound. Empty when the plan occupies a (v, n) slot or a
// (class, position) the model has no variable for (cannot happen for plans
// built against `input`; kept as a guard).
std::vector<double> pack_warm_solution(const IlpBuilder& builder,
                                       const PlacementInput& input,
                                       const PlacementPlan& plan) {
  std::vector<double> x(builder.model().num_vars(), 0.0);
  for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const std::uint32_t count = plan.instance_count[v][n];
      if (count == 0) continue;
      const lp::VarId var = builder.q_var(v, static_cast<vnf::NfType>(n));
      if (var == IlpBuilder::kInvalidVar) return {};
      x[static_cast<std::size_t>(var)] = count;
    }
  }
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        const double frac = plan.distribution[h](i, j);
        if (frac == 0.0) continue;
        const lp::VarId var = builder.d_var(h, i, j);
        if (var == IlpBuilder::kInvalidVar) return {};
        x[static_cast<std::size_t>(var)] = frac;
      }
    }
  }
  return x;
}

}  // namespace

const char* to_string(PlacementStrategy s) {
  switch (s) {
    case PlacementStrategy::kExact:
      return "exact";
    case PlacementStrategy::kLpRound:
      return "lp-round";
    case PlacementStrategy::kGreedy:
      return "greedy";
  }
  return "unknown";
}

PlacementPlan OptimizationEngine::place(const PlacementInput& input) const {
  APPLE_OBS_SPAN("core.engine.place");
  input.validate();
  PlacementPlan plan;
  switch (options_.strategy) {
    case PlacementStrategy::kExact:
      plan = place_exact(input);
      break;
    case PlacementStrategy::kLpRound:
      plan = place_lp_round(input);
      break;
    case PlacementStrategy::kGreedy:
      plan = place_greedy(input);
      break;
  }
  APPLE_OBS_COUNT("core.engine.placements");
  if (plan.feasible) {
    APPLE_OBS_COUNT_N("core.engine.instances_placed", plan.total_instances());
  } else {
    APPLE_OBS_COUNT("core.engine.infeasible_placements");
  }
  return plan;
}

PlacementPlan OptimizationEngine::replace(const PlacementInput& input,
                                          const PlacementPlan& prev,
                                          const ClassDelta& delta) const {
  APPLE_OBS_SPAN("core.engine.replace");
  input.validate();
  APPLE_CHECK(prev.feasible);
  APPLE_CHECK_EQ(prev.instance_count.size(), input.topology->num_nodes());
  APPLE_CHECK_EQ(delta.prev_of.size(), input.classes.size());
  const obs::Stopwatch timer;
  APPLE_OBS_COUNT("core.engine.replacements");

  PlacementPlan plan = empty_plan(input);
  FillState fs(*input.topology);
  bool ok = seed_from_previous(input, prev, delta, plan, fs);

  if (ok && delta.empty()) {
    // Nothing changed: the previous plan carries over verbatim (its
    // optimality status is unchanged for the identical input), so every
    // downstream delta is empty — zero churn by construction.
    plan.feasible = true;
    plan.strategy = std::string(to_string(options_.strategy)) + "-delta";
    plan.solve_seconds = timer.elapsed_seconds();
    return plan;
  }

  if (ok) {
    // Residual water-filling over the dirty classes only, steered toward
    // the previous plan's pools so re-solved classes reuse open instances.
    std::vector<std::array<double, vnf::kNumNfTypes>> popularity(
        input.topology->num_nodes(), std::array<double, vnf::kNumNfTypes>{});
    for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
      for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
        popularity[v][n] = static_cast<double>(prev.instance_count[v][n]);
      }
    }
    std::vector<std::size_t> dirty = delta.added;
    dirty.insert(dirty.end(), delta.rate_changed.begin(),
                 delta.rate_changed.end());
    ok = fill_classes(input, popularity,
                      constrained_order(input, std::move(dirty)), plan, fs);
  }
  if (ok) {
    trim_instances(input, fs, plan);
    plan.feasible = true;
  }

  if (options_.strategy == PlacementStrategy::kExact) {
    // The exact path never settles for the heuristic fill: it re-solves the
    // full ILP with the fill seeding the incumbent, so pruning starts from
    // a near-optimal upper bound while the answer stays provably optimal.
    const IlpBuilder builder(input, /*integral_q=*/true);
    lp::MipOptions mip = options_.mip;
    if (plan.feasible) {
      mip.warm_solution = pack_warm_solution(builder, input, plan);
    }
    const lp::MipResult result = lp::MipSolver(mip).solve(builder.model());
    PlacementPlan exact;
    if (result.has_solution()) {
      exact = builder.extract_plan(input, result.x);
      exact.feasible = true;
      exact.lower_bound = result.proven_optimal
                              ? static_cast<double>(exact.total_instances())
                              : result.best_bound;
    } else {
      exact = empty_plan(input);
      exact.infeasibility_reason =
          std::string("MIP solver: ") + lp::to_string(result.status);
    }
    exact.strategy = "exact-delta";
    exact.solve_seconds = timer.elapsed_seconds();
    return exact;
  }

  plan.strategy = std::string(to_string(options_.strategy)) + "-delta";
  plan.solve_seconds = timer.elapsed_seconds();
  if (!plan.feasible) {
    APPLE_OBS_COUNT("core.engine.replace_infeasible");
  }
  return plan;
}

PlacementPlan OptimizationEngine::place_exact(
    const PlacementInput& input) const {
  const obs::Stopwatch timer;
  const IlpBuilder builder(input, /*integral_q=*/true);
  const lp::MipResult result = lp::MipSolver(options_.mip).solve(builder.model());
  PlacementPlan plan;
  if (result.has_solution()) {
    plan = builder.extract_plan(input, result.x);
    plan.feasible = true;
    plan.lower_bound = result.proven_optimal
                           ? static_cast<double>(plan.total_instances())
                           : result.best_bound;
  } else {
    plan = empty_plan(input);
    plan.infeasibility_reason =
        std::string("MIP solver: ") + lp::to_string(result.status);
  }
  plan.strategy = "exact";
  plan.solve_seconds = timer.elapsed_seconds();
  return plan;
}

PlacementPlan OptimizationEngine::place_lp_round(
    const PlacementInput& input) const {
  const obs::Stopwatch timer;
  const IlpBuilder builder(input, /*integral_q=*/false);
  const lp::LpSolution relax =
      lp::SimplexSolver(options_.simplex).solve(builder.model());
  if (!relax.optimal()) {
    PlacementPlan plan = empty_plan(input);
    plan.strategy = "lp-round";
    plan.solve_seconds = timer.elapsed_seconds();
    plan.infeasibility_reason =
        std::string("LP relaxation: ") + lp::to_string(relax.status);
    return plan;
  }
  // LP-guided rounding: the fractional q values tell the water-filling
  // where the relaxation wants instances pooled; the fill itself restores
  // integrality while respecting capacity and resources by construction.
  std::vector<std::array<double, vnf::kNumNfTypes>> popularity(
      input.topology->num_nodes(), std::array<double, vnf::kNumNfTypes>{});
  for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const lp::VarId var = builder.q_var(v, static_cast<vnf::NfType>(n));
      if (var != IlpBuilder::kInvalidVar) {
        popularity[v][n] = std::max(0.0, relax.x[var]);
      }
    }
  }
  PlacementPlan plan = fill_plan(input, popularity, constrained_order(input));
  plan.strategy = "lp-round";
  plan.lower_bound = relax.objective;
  plan.solve_seconds = timer.elapsed_seconds();
  return plan;
}

PlacementPlan OptimizationEngine::place_greedy(
    const PlacementInput& input) const {
  const obs::Stopwatch timer;
  const net::Topology& topo = *input.topology;

  // Popularity of (switch, NF type): total rate of classes whose path
  // crosses the switch and whose chain needs the type. Opening instances at
  // popular switches maximizes multiplexing across classes — the resource
  // advantage Fig. 11 attributes to APPLE.
  std::vector<std::array<double, vnf::kNumNfTypes>> popularity(
      topo.num_nodes(), std::array<double, vnf::kNumNfTypes>{});
  for (const traffic::TrafficClass& cls : input.classes) {
    const vnf::PolicyChain& chain = input.chain_of(cls);
    for (const net::NodeId v : cls.path) {
      if (!topo.node(v).has_host()) continue;
      for (const vnf::NfType type : chain) {
        popularity[v][static_cast<std::size_t>(type)] += cls.rate_mbps;
      }
    }
  }

  const std::vector<std::size_t> order = constrained_order(input);
  PlacementPlan plan = fill_plan(input, popularity, order);
  // Self-guided refinement: refill (in the same order) with popularity =
  // the previous plan's instance counts, so every class gravitates to the
  // same pool nodes. Keep the best plan seen.
  for (int round = 0; round < 3 && plan.feasible; ++round) {
    for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
      for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
        popularity[v][n] = static_cast<double>(plan.instance_count[v][n]);
      }
    }
    PlacementPlan refined = fill_plan(input, popularity, order);
    if (!refined.feasible ||
        refined.total_instances() >= plan.total_instances()) {
      break;
    }
    plan = std::move(refined);
  }
  plan.strategy = "greedy";
  plan.solve_seconds = timer.elapsed_seconds();
  return plan;
}

}  // namespace apple::core
