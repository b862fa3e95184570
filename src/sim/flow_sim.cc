#include "sim/flow_sim.h"

#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace apple::sim {

FlowSimulation::FlowSimulation(double tick_seconds)
    : tick_seconds_(tick_seconds) {
  if (tick_seconds <= 0.0) {
    throw std::invalid_argument("tick must be positive");
  }
}

void FlowSimulation::add_instance(const vnf::VnfInstance& instance,
                                  double ready_at) {
  instances_[instance.id] = InstanceState{instance, ready_at, 0.0};
  resolved_ = false;
}

void FlowSimulation::remove_instance(vnf::InstanceId id) {
  instances_.erase(id);
  resolved_ = false;
}

bool FlowSimulation::has_instance(vnf::InstanceId id) const {
  return instances_.contains(id);
}

void FlowSimulation::set_ready_at(vnf::InstanceId id, double ready_at) {
  instances_.at(id).ready_at = ready_at;
}

void FlowSimulation::set_instance_alive(vnf::InstanceId id, bool alive) {
  instances_.at(id).alive = alive;
}

bool FlowSimulation::instance_alive(vnf::InstanceId id) const {
  return instances_.at(id).alive;
}

void FlowSimulation::set_class_severed(traffic::ClassId id, bool severed) {
  classes_[id].severed = severed;
}

bool FlowSimulation::class_severed(traffic::ClassId id) const {
  const auto it = classes_.find(id);
  return it != classes_.end() && it->second.severed;
}

double FlowSimulation::class_blackholed_mbps(traffic::ClassId id) const {
  const auto it = classes_.find(id);
  return it == classes_.end() ? 0.0 : it->second.blackholed;
}

void FlowSimulation::set_class_rate(traffic::ClassId id, double mbps) {
  classes_[id].rate_mbps = std::max(0.0, mbps);
}

double FlowSimulation::class_rate(traffic::ClassId id) const {
  const auto it = classes_.find(id);
  return it == classes_.end() ? 0.0 : it->second.rate_mbps;
}

void FlowSimulation::install_class_plans(
    traffic::ClassId id, std::vector<dataplane::SubclassPlan> plans) {
  double weight = 0.0;
  for (const dataplane::SubclassPlan& plan : plans) {
    if (plan.weight < 0.0) {
      throw std::invalid_argument("negative sub-class weight");
    }
    weight += plan.weight;
    for (const dataplane::HostVisit& visit : plan.itinerary) {
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
  resolved_ = false;
}

const std::vector<dataplane::SubclassPlan>& FlowSimulation::plans_of(
    traffic::ClassId id) const {
  return classes_.at(id).plans;
}

void FlowSimulation::resolve_slots() {
  for (auto& [cid, cls] : classes_) {
    cls.slots.clear();
    cls.slot_begin.clear();
    for (const dataplane::SubclassPlan& plan : cls.plans) {
      cls.slot_begin.push_back(cls.slots.size());
      for (const dataplane::HostVisit& visit : plan.itinerary) {
        for (const vnf::InstanceId inst : visit.instances) {
          const auto it = instances_.find(inst);
          cls.slots.push_back(it == instances_.end() ? nullptr : &it->second);
        }
      }
    }
    cls.slot_begin.push_back(cls.slots.size());
  }
  resolved_ = true;
  APPLE_OBS_COUNT("sim.flow.slot_resolves");
}

TickStats FlowSimulation::step() {
  if (!resolved_) resolve_slots();
  // A plan still referencing a removed instance fails the tick here, where
  // a lookup of the missing id would.
  const auto serving = [](InstanceState* slot) -> InstanceState& {
    if (slot == nullptr) {
      throw std::out_of_range("sub-class plan references a removed instance");
    }
    return *slot;
  };

  // Phase 1: accumulate offered load at every instance.
  for (auto& [id, state] : instances_) state.offered = 0.0;
  for (const auto& [cid, cls] : classes_) {
    // A severed class's traffic dies at the failed link before reaching
    // any instance, so it loads nothing.
    if (cls.severed) continue;
    for (std::size_t p = 0; p < cls.plans.size(); ++p) {
      const double rate = cls.rate_mbps * cls.plans[p].weight;
      if (rate <= 0.0) continue;
      for (std::size_t k = cls.slot_begin[p]; k < cls.slot_begin[p + 1];
           ++k) {
        serving(cls.slots[k]).offered += rate;
      }
    }
  }

  // Phase 2: per-instance loss, then per-sub-class survival product.
  TickStats stats;
  stats.time = now_;
  for (auto& [cid, cls] : classes_) {
    cls.blackholed = 0.0;
    for (std::size_t p = 0; p < cls.plans.size(); ++p) {
      const double rate = cls.rate_mbps * cls.plans[p].weight;
      if (rate <= 0.0) continue;
      stats.offered_mbps += rate;
      if (cls.severed) {
        // The class's fixed path crosses a failed link: everything it
        // offers disappears at the dead hop.
        cls.blackholed += rate;
        continue;
      }
      double survival = 1.0;
      bool dead_stage = false;
      for (std::size_t k = cls.slot_begin[p]; k < cls.slot_begin[p + 1];
           ++k) {
        const InstanceState& state = serving(cls.slots[k]);
        const double capacity = state.alive && state.ready_at <= now_
                                    ? state.instance.capacity_mbps
                                    : 0.0;
        if (!state.alive) dead_stage = true;
        survival *= 1.0 - vnf::loss_fraction(state.offered, capacity);
      }
      if (dead_stage) cls.blackholed += rate;
      stats.delivered_mbps += rate * survival;
    }
    stats.blackholed_mbps += cls.blackholed;
  }
  stats.loss_rate = stats.offered_mbps > 0.0
                        ? 1.0 - stats.delivered_mbps / stats.offered_mbps
                        : 0.0;
  // Clamp tiny negatives from floating-point noise.
  stats.loss_rate = std::max(0.0, stats.loss_rate);

  now_ += tick_seconds_;
  APPLE_OBS_COUNT("sim.flow.ticks");
  // Rate-weighted loss accounting in whole Mbps; the snapshot divides the
  // two counters back into a loss rate.
  APPLE_OBS_COUNT_N("sim.flow.offered_mbps", stats.offered_mbps);
  APPLE_OBS_COUNT_N("sim.flow.lost_mbps",
                    stats.offered_mbps - stats.delivered_mbps);
  APPLE_OBS_COUNT_N("sim.flow.blackholed_mbps", stats.blackholed_mbps);
  return stats;
}

void FlowSimulation::run_until(double horizon) {
  while (now_ + tick_seconds_ * 0.5 < horizon) step();
}

double FlowSimulation::instance_offered_mbps(vnf::InstanceId id) const {
  return instances_.at(id).offered;
}

double FlowSimulation::instance_capacity_mbps(vnf::InstanceId id) const {
  const InstanceState& state = instances_.at(id);
  // A crashed instance serves nothing; reporting 0 keeps the overload
  // detector from treating it as a viable (let alone overloaded) target.
  return state.alive ? state.instance.capacity_mbps : 0.0;
}

std::vector<vnf::InstanceId> FlowSimulation::instance_ids() const {
  std::vector<vnf::InstanceId> ids;
  ids.reserve(instances_.size());
  for (const auto& [id, state] : instances_) ids.push_back(id);
  return ids;
}

}  // namespace apple::sim
