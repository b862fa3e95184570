// Differential test of FlowSimulation's dense tick against the map-based
// tick it replaced, kept here as the reference: the same random sequences
// of structural changes, rate changes and faults must give bit-identical
// tick stats, per-class blackholed demand and per-instance offered load.
#include "sim/flow_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

namespace apple::sim {
namespace {

using dataplane::HostVisit;
using dataplane::SubclassPlan;

// The tick as the map-based FlowSimulation ran it: std::map tables walked
// in id order, one map lookup and one vnf::loss_fraction per visit.
class MapFlowSimulation {
 public:
  explicit MapFlowSimulation(double tick_seconds) : tick_(tick_seconds) {}

  void add_instance(const vnf::VnfInstance& instance, double ready_at) {
    instances_[instance.id] = Instance{instance, ready_at, 0.0, true};
  }
  void remove_instance(vnf::InstanceId id) { instances_.erase(id); }
  void set_ready_at(vnf::InstanceId id, double ready_at) {
    instances_.at(id).ready_at = ready_at;
  }
  void set_instance_alive(vnf::InstanceId id, bool alive) {
    instances_.at(id).alive = alive;
  }
  void set_class_severed(traffic::ClassId id, bool severed) {
    classes_[id].severed = severed;
  }
  void set_class_rate(traffic::ClassId id, double mbps) {
    classes_[id].rate_mbps = std::max(0.0, mbps);
  }
  void install_class_plans(traffic::ClassId id,
                           std::vector<SubclassPlan> plans) {
    double weight = 0.0;
    for (const SubclassPlan& plan : plans) {
      if (plan.weight < 0.0) {
        throw std::invalid_argument("negative sub-class weight");
      }
      weight += plan.weight;
      for (const HostVisit& visit : plan.itinerary) {
        for (const vnf::InstanceId inst : visit.instances) {
          if (!instances_.contains(inst)) {
            throw std::invalid_argument("plan references unknown instance");
          }
        }
      }
    }
    if (!plans.empty() && std::abs(weight - 1.0) > 1e-6) {
      throw std::invalid_argument("sub-class weights must sum to 1");
    }
    classes_[id].plans = std::move(plans);
  }

  TickStats step() {
    for (auto& [id, state] : instances_) state.offered = 0.0;
    for (const auto& [cid, cls] : classes_) {
      if (cls.severed) continue;
      for (const SubclassPlan& plan : cls.plans) {
        const double rate = cls.rate_mbps * plan.weight;
        if (rate <= 0.0) continue;
        for (const HostVisit& visit : plan.itinerary) {
          for (const vnf::InstanceId inst : visit.instances) {
            instances_.at(inst).offered += rate;
          }
        }
      }
    }
    TickStats stats;
    stats.time = now_;
    for (auto& [cid, cls] : classes_) {
      cls.blackholed = 0.0;
      for (const SubclassPlan& plan : cls.plans) {
        const double rate = cls.rate_mbps * plan.weight;
        if (rate <= 0.0) continue;
        stats.offered_mbps += rate;
        if (cls.severed) {
          cls.blackholed += rate;
          continue;
        }
        double survival = 1.0;
        bool dead_stage = false;
        for (const HostVisit& visit : plan.itinerary) {
          for (const vnf::InstanceId inst : visit.instances) {
            const Instance& state = instances_.at(inst);
            const double capacity = state.alive && state.ready_at <= now_
                                        ? state.instance.capacity_mbps
                                        : 0.0;
            if (!state.alive) dead_stage = true;
            survival *= 1.0 - vnf::loss_fraction(state.offered, capacity);
          }
        }
        if (dead_stage) cls.blackholed += rate;
        stats.delivered_mbps += rate * survival;
      }
      stats.blackholed_mbps += cls.blackholed;
    }
    stats.loss_rate = stats.offered_mbps > 0.0
                          ? 1.0 - stats.delivered_mbps / stats.offered_mbps
                          : 0.0;
    stats.loss_rate = std::max(0.0, stats.loss_rate);
    now_ += tick_;
    return stats;
  }

  double now() const { return now_; }
  bool has_instance(vnf::InstanceId id) const {
    return instances_.contains(id);
  }
  double instance_offered_mbps(vnf::InstanceId id) const {
    return instances_.at(id).offered;
  }
  std::vector<vnf::InstanceId> instance_ids() const {
    std::vector<vnf::InstanceId> ids;
    for (const auto& [id, state] : instances_) ids.push_back(id);
    return ids;
  }
  std::vector<traffic::ClassId> class_ids() const {
    std::vector<traffic::ClassId> ids;
    for (const auto& [id, cls] : classes_) ids.push_back(id);
    return ids;
  }
  double class_blackholed_mbps(traffic::ClassId id) const {
    return classes_.at(id).blackholed;
  }
  double class_rate(traffic::ClassId id) const {
    return classes_.at(id).rate_mbps;
  }
  bool class_severed(traffic::ClassId id) const {
    return classes_.at(id).severed;
  }
  const std::vector<SubclassPlan>& plans_of(traffic::ClassId id) const {
    return classes_.at(id).plans;
  }

 private:
  struct Instance {
    vnf::VnfInstance instance;
    double ready_at = 0.0;
    double offered = 0.0;
    bool alive = true;
  };
  struct Class {
    double rate_mbps = 0.0;
    std::vector<SubclassPlan> plans;
    bool severed = false;
    double blackholed = 0.0;
  };

  double tick_;
  double now_ = 0.0;
  std::map<vnf::InstanceId, Instance> instances_;
  std::map<traffic::ClassId, Class> classes_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Class ids with gaps, created in shuffled order so new classes land in
// the middle of the dense array as well as at its end.
constexpr traffic::ClassId kClassIds[] = {0, 3, 5, 8, 13, 21, 34};
// Few instance ids, so removals, re-adds and stale plans keep recurring.
constexpr vnf::InstanceId kMaxInstanceId = 8;

struct Tally {
  std::size_t ticks = 0;
  std::size_t throwing_ticks = 0;
  std::size_t readded = 0;
  std::size_t rejected_installs = 0;
  std::size_t blackholed_ticks = 0;
};

// Applies each random operation to both simulations and compares them
// after every tick.
class Lockstep {
 public:
  explicit Lockstep(std::mt19937_64& rng) : rng_(rng) {}

  void run(std::size_t ops, Tally& tally) {
    for (std::size_t op = 0; op < ops; ++op) {
      const int pick = uniform(0, 99);
      if (pick < 14) {
        add(tally);
      } else if (pick < 20) {
        remove();
      } else if (pick < 34) {
        install(tally);
      } else if (pick < 46) {
        rate();
      } else if (pick < 52) {
        ready_at();
      } else if (pick < 58) {
        crash_or_revive();
      } else if (pick < 64) {
        sever();
      } else {
        tick(tally);
      }
      if (testing::Test::HasFailure()) return;
    }
  }

 private:
  int uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  double real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  traffic::ClassId some_class() {
    const int last = static_cast<int>(std::size(kClassIds)) - 1;
    return kClassIds[static_cast<std::size_t>(uniform(0, last))];
  }
  vnf::InstanceId some_instance_id() {
    return static_cast<vnf::InstanceId>(
        uniform(1, static_cast<int>(kMaxInstanceId)));
  }
  // An installed instance id, or 0 when none is installed.
  vnf::InstanceId some_installed() {
    const std::vector<vnf::InstanceId> ids = ref_.instance_ids();
    if (ids.empty()) return 0;
    const int last = static_cast<int>(ids.size()) - 1;
    return ids[static_cast<std::size_t>(uniform(0, last))];
  }

  void add(Tally& tally) {
    const vnf::InstanceId id = some_instance_id();
    if (!ref_.has_instance(id) && seen_.contains(id)) ++tally.readded;
    seen_.insert(id);
    const vnf::VnfInstance inst{id, vnf::NfType::kFirewall, 0,
                                real(100.0, 900.0)};
    const double ready = uniform(0, 2) == 0 ? ref_.now() + real(0.0, 0.3)
                                            : 0.0;
    dense_.add_instance(inst, ready);
    ref_.add_instance(inst, ready);
  }

  void remove() {
    const vnf::InstanceId id = some_instance_id();
    dense_.remove_instance(id);
    ref_.remove_instance(id);
  }

  void install(Tally& tally) {
    const traffic::ClassId cls = some_class();
    std::vector<SubclassPlan> plans(static_cast<std::size_t>(uniform(0, 3)));
    std::vector<double> raw(plans.size());
    for (double& w : raw) w = real(0.05, 1.0);
    double total = 0.0;
    for (const double w : raw) total += w;
    for (std::size_t p = 0; p < plans.size(); ++p) {
      plans[p].class_id = cls;
      plans[p].subclass_id = static_cast<dataplane::SubclassId>(p);
      plans[p].weight = raw[p] / total;
      const int visits = uniform(0, 2);
      for (int v = 0; v < visits; ++v) {
        HostVisit visit;
        visit.at_switch = static_cast<net::NodeId>(v);
        const int stages = uniform(1, 2);
        for (int k = 0; k < stages; ++k) {
          // Mostly installed instances; now and then any id, which both
          // sides must reject when it is not installed.
          const vnf::InstanceId id =
              uniform(0, 9) == 0 ? some_instance_id() : some_installed();
          visit.instances.push_back(id == 0 ? some_instance_id() : id);
        }
        plans[p].itinerary.push_back(std::move(visit));
      }
    }
    bool ref_threw = false;
    try {
      ref_.install_class_plans(cls, plans);
    } catch (const std::invalid_argument&) {
      ref_threw = true;
      ++tally.rejected_installs;
    }
    if (ref_threw) {
      EXPECT_THROW(dense_.install_class_plans(cls, plans),
                   std::invalid_argument);
    } else {
      EXPECT_NO_THROW(dense_.install_class_plans(cls, plans));
    }
  }

  void rate() {
    const traffic::ClassId cls = some_class();
    const double mbps = uniform(0, 4) == 0 ? 0.0 : real(-50.0, 1200.0);
    dense_.set_class_rate(cls, mbps);
    ref_.set_class_rate(cls, mbps);
  }

  void ready_at() {
    const vnf::InstanceId id = some_installed();
    if (id == 0) return;
    const double at = ref_.now() + real(-0.2, 0.4);
    dense_.set_ready_at(id, at);
    ref_.set_ready_at(id, at);
  }

  void crash_or_revive() {
    const vnf::InstanceId id = some_installed();
    if (id == 0) return;
    const bool alive = uniform(0, 2) == 0;
    dense_.set_instance_alive(id, alive);
    ref_.set_instance_alive(id, alive);
  }

  void sever() {
    const traffic::ClassId cls = some_class();
    const bool severed = uniform(0, 2) == 0;
    dense_.set_class_severed(cls, severed);
    ref_.set_class_severed(cls, severed);
  }

  void tick(Tally& tally) {
    TickStats want;
    bool ref_threw = false;
    try {
      want = ref_.step();
    } catch (const std::out_of_range&) {
      ref_threw = true;
    }
    if (ref_threw) {
      ++tally.throwing_ticks;
      EXPECT_THROW(dense_.step(), std::out_of_range);
      EXPECT_EQ(bits(dense_.now()), bits(ref_.now()));
      return;
    }
    TickStats got;
    ASSERT_NO_THROW(got = dense_.step());
    ++tally.ticks;
    EXPECT_EQ(bits(got.time), bits(want.time));
    EXPECT_EQ(bits(got.offered_mbps), bits(want.offered_mbps));
    EXPECT_EQ(bits(got.delivered_mbps), bits(want.delivered_mbps));
    EXPECT_EQ(bits(got.loss_rate), bits(want.loss_rate));
    EXPECT_EQ(bits(got.blackholed_mbps), bits(want.blackholed_mbps));
    EXPECT_EQ(bits(dense_.now()), bits(ref_.now()));

    std::vector<traffic::ClassId> blackholed;
    for (const traffic::ClassId id : ref_.class_ids()) {
      EXPECT_EQ(bits(dense_.class_blackholed_mbps(id)),
                bits(ref_.class_blackholed_mbps(id)));
      EXPECT_EQ(bits(dense_.class_rate(id)), bits(ref_.class_rate(id)));
      EXPECT_EQ(dense_.class_severed(id), ref_.class_severed(id));
      EXPECT_EQ(dense_.plans_of(id).size(), ref_.plans_of(id).size());
      if (ref_.class_blackholed_mbps(id) > 0.0) blackholed.push_back(id);
    }
    const auto listed = dense_.blackholed_classes();
    EXPECT_EQ(std::vector<traffic::ClassId>(listed.begin(), listed.end()),
              blackholed);
    if (!blackholed.empty()) ++tally.blackholed_ticks;

    EXPECT_EQ(dense_.instance_ids(), ref_.instance_ids());
    for (const vnf::InstanceId id : ref_.instance_ids()) {
      EXPECT_EQ(bits(dense_.instance_offered_mbps(id)),
                bits(ref_.instance_offered_mbps(id)));
    }
  }

  std::mt19937_64& rng_;
  FlowSimulation dense_{0.05};
  MapFlowSimulation ref_{0.05};
  std::set<vnf::InstanceId> seen_;
};

TEST(FlowSimulationDifferential, DenseTickMatchesMapTickBitForBit) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    Lockstep(rng).run(400, tally);
    if (HasFailure()) return;
  }
  // The sequences reached every case the dense tick handles differently.
  EXPECT_GT(tally.ticks, 1000u);
  EXPECT_GT(tally.throwing_ticks, 0u);
  EXPECT_GT(tally.readded, 0u);
  EXPECT_GT(tally.rejected_installs, 0u);
  EXPECT_GT(tally.blackholed_ticks, 0u);
}

}  // namespace
}  // namespace apple::sim
