#include "sim/flow_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace apple::sim {

namespace {

// Orders (id, slot) index entries by id.
bool id_less(const std::pair<vnf::InstanceId, std::uint32_t>& entry,
             vnf::InstanceId id) {
  return entry.first < id;
}

}  // namespace

FlowSimulation::FlowSimulation(double tick_seconds)
    : tick_seconds_(tick_seconds) {
  if (tick_seconds <= 0.0) {
    throw std::invalid_argument("tick must be positive");
  }
}

std::uint32_t FlowSimulation::slot_of(vnf::InstanceId id) const {
  const auto it =
      std::lower_bound(slot_index_.begin(), slot_index_.end(), id, id_less);
  return it != slot_index_.end() && it->first == id ? it->second : kNoSlot;
}

FlowSimulation::InstanceState& FlowSimulation::instance_at(
    vnf::InstanceId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) throw std::out_of_range("unknown instance");
  return instances_[slot];
}

const FlowSimulation::InstanceState& FlowSimulation::instance_at(
    vnf::InstanceId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) throw std::out_of_range("unknown instance");
  return instances_[slot];
}

const FlowSimulation::ClassState* FlowSimulation::find_class(
    traffic::ClassId id) const {
  const auto it = std::lower_bound(class_ids_.begin(), class_ids_.end(), id);
  if (it == class_ids_.end() || *it != id) return nullptr;
  return &classes_[static_cast<std::size_t>(it - class_ids_.begin())];
}

FlowSimulation::ClassState& FlowSimulation::class_at(traffic::ClassId id) {
  const auto it = std::lower_bound(class_ids_.begin(), class_ids_.end(), id);
  const auto pos = it - class_ids_.begin();
  if (it == class_ids_.end() || *it != id) {
    class_ids_.insert(it, id);
    classes_.insert(classes_.begin() + pos, ClassState{});
  }
  return classes_[static_cast<std::size_t>(pos)];
}

void FlowSimulation::count_resolved(std::size_t n) {
  if (n == 0) return;
  slots_changed_ = true;
  APPLE_OBS_COUNT_N("sim.flow.classes_resolved", n);
}

void FlowSimulation::add_instance(const vnf::VnfInstance& instance,
                                  double ready_at) {
  const auto it = std::lower_bound(slot_index_.begin(), slot_index_.end(),
                                   instance.id, id_less);
  if (it != slot_index_.end() && it->first == instance.id) {
    // Re-adding an installed id replaces the instance in its slot.
    instances_[it->second] = InstanceState{instance, ready_at};
    return;
  }
  std::uint32_t slot = static_cast<std::uint32_t>(instances_.size());
  if (free_slots_.empty()) {
    instances_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  instances_[slot] = InstanceState{instance, ready_at};
  slot_index_.insert(it, {instance.id, slot});

  // A removed id added again: plans that still name it reach it again.
  std::size_t resolved = 0;
  for (ClassState& cls : classes_) {
    if (cls.missing == 0) continue;
    std::size_t k = 0;
    bool touched = false;
    for (const dataplane::SubclassPlan& plan : cls.plans) {
      for (const dataplane::HostVisit& visit : plan.itinerary) {
        for (const vnf::InstanceId inst : visit.instances) {
          if (inst == instance.id && cls.slots[k] == kNoSlot) {
            cls.slots[k] = slot;
            --cls.missing;
            touched = true;
          }
          ++k;
        }
      }
    }
    if (touched) ++resolved;
  }
  count_resolved(resolved);
}

void FlowSimulation::remove_instance(vnf::InstanceId id) {
  const auto it =
      std::lower_bound(slot_index_.begin(), slot_index_.end(), id, id_less);
  if (it == slot_index_.end() || it->first != id) return;
  const std::uint32_t slot = it->second;
  slot_index_.erase(it);
  free_slots_.push_back(slot);

  std::size_t resolved = 0;
  for (ClassState& cls : classes_) {
    bool touched = false;
    for (std::uint32_t& s : cls.slots) {
      if (s == slot) {
        s = kNoSlot;
        ++cls.missing;
        touched = true;
      }
    }
    if (touched) ++resolved;
  }
  count_resolved(resolved);
}

bool FlowSimulation::has_instance(vnf::InstanceId id) const {
  return slot_of(id) != kNoSlot;
}

void FlowSimulation::set_ready_at(vnf::InstanceId id, double ready_at) {
  instance_at(id).ready_at = ready_at;
}

void FlowSimulation::set_instance_alive(vnf::InstanceId id, bool alive) {
  instance_at(id).alive = alive;
}

bool FlowSimulation::instance_alive(vnf::InstanceId id) const {
  return instance_at(id).alive;
}

void FlowSimulation::set_class_severed(traffic::ClassId id, bool severed) {
  class_at(id).severed = severed;
}

bool FlowSimulation::class_severed(traffic::ClassId id) const {
  const ClassState* cls = find_class(id);
  return cls != nullptr && cls->severed;
}

double FlowSimulation::class_blackholed_mbps(traffic::ClassId id) const {
  const ClassState* cls = find_class(id);
  return cls == nullptr ? 0.0 : cls->blackholed;
}

void FlowSimulation::set_class_rate(traffic::ClassId id, double mbps) {
  class_at(id).rate_mbps = std::max(0.0, mbps);
}

double FlowSimulation::class_rate(traffic::ClassId id) const {
  const ClassState* cls = find_class(id);
  return cls == nullptr ? 0.0 : cls->rate_mbps;
}

void FlowSimulation::install_class_plans(
    traffic::ClassId id, std::vector<dataplane::SubclassPlan> plans) {
  // Validation resolves the slots: every itinerary instance must exist.
  std::vector<PlanRun> runs;
  std::vector<std::uint32_t> slots;
  runs.reserve(plans.size());
  double weight = 0.0;
  for (const dataplane::SubclassPlan& plan : plans) {
    if (plan.weight < 0.0) {
      throw std::invalid_argument("negative sub-class weight");
    }
    weight += plan.weight;
    PlanRun run{plan.weight, static_cast<std::uint32_t>(slots.size()), 0};
    for (const dataplane::HostVisit& visit : plan.itinerary) {
      for (const vnf::InstanceId inst : visit.instances) {
        const std::uint32_t slot = slot_of(inst);
        if (slot == kNoSlot) {
          throw std::invalid_argument("plan references unknown instance");
        }
        slots.push_back(slot);
      }
    }
    run.end = static_cast<std::uint32_t>(slots.size());
    runs.push_back(run);
  }
  if (!plans.empty() && std::abs(weight - 1.0) > 1e-6) {
    throw std::invalid_argument("sub-class weights must sum to 1");
  }
  ClassState& cls = class_at(id);
  cls.plans = std::move(plans);
  cls.runs = std::move(runs);
  cls.slots = std::move(slots);
  cls.missing = 0;
  count_resolved(1);
}

const std::vector<dataplane::SubclassPlan>& FlowSimulation::plans_of(
    traffic::ClassId id) const {
  const ClassState* cls = find_class(id);
  if (cls == nullptr) throw std::out_of_range("unknown class");
  return cls->plans;
}

TickStats FlowSimulation::step() {
  if (slots_changed_) {
    APPLE_OBS_COUNT("sim.flow.slot_resolves");
    slots_changed_ = false;
  }

  // Phase 1: accumulate offered load at every instance.
  for (InstanceState& state : instances_) state.offered = 0.0;
  for (const ClassState& cls : classes_) {
    // A severed class's traffic dies at the failed link before reaching
    // any instance, so it loads nothing.
    if (cls.severed) continue;
    for (const PlanRun& run : cls.runs) {
      const double rate = cls.rate_mbps * run.weight;
      if (rate <= 0.0) continue;
      for (std::uint32_t k = run.begin; k < run.end; ++k) {
        const std::uint32_t slot = cls.slots[k];
        if (slot == kNoSlot) {
          throw std::out_of_range(
              "sub-class plan references a removed instance");
        }
        instances_[slot].offered += rate;
      }
    }
  }

  // Each instance's survival factor, once per tick (a free slot's reads
  // offered 0 and is never visited).
  for (InstanceState& state : instances_) {
    const double capacity = state.alive && state.ready_at <= now_
                                ? state.instance.capacity_mbps
                                : 0.0;
    state.survival = 1.0 - vnf::loss_fraction(state.offered, capacity);
  }

  // Phase 2: per-sub-class survival product. Phase 1 visited exactly these
  // carrying, unsevered plans, so every slot read here is installed.
  TickStats stats;
  stats.time = now_;
  blackholed_.clear();
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    ClassState& cls = classes_[c];
    cls.blackholed = 0.0;
    for (const PlanRun& run : cls.runs) {
      const double rate = cls.rate_mbps * run.weight;
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
      for (std::uint32_t k = run.begin; k < run.end; ++k) {
        const InstanceState& state = instances_[cls.slots[k]];
        if (!state.alive) dead_stage = true;
        survival *= state.survival;
      }
      if (dead_stage) cls.blackholed += rate;
      stats.delivered_mbps += rate * survival;
    }
    stats.blackholed_mbps += cls.blackholed;
    if (cls.blackholed > 0.0) blackholed_.push_back(class_ids_[c]);
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
  return instance_at(id).offered;
}

double FlowSimulation::instance_capacity_mbps(vnf::InstanceId id) const {
  const InstanceState& state = instance_at(id);
  // A crashed instance serves nothing; reporting 0 keeps the overload
  // detector from treating it as a viable (let alone overloaded) target.
  return state.alive ? state.instance.capacity_mbps : 0.0;
}

std::vector<vnf::InstanceId> FlowSimulation::instance_ids() const {
  std::vector<vnf::InstanceId> ids;
  ids.reserve(slot_index_.size());
  for (const auto& [id, slot] : slot_index_) ids.push_back(id);
  return ids;
}

}  // namespace apple::sim
