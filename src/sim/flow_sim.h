// Fluid-flow data-plane simulation.
//
// Packet-level simulation of a week of traffic is intractable and
// unnecessary: the paper's loss metrics (Figs. 7, 9, 12) are rate-driven.
// The fluid model advances in fixed ticks; per tick, every sub-class offers
// its share of its class's current rate to the instances of its itinerary,
// and each instance drops the excess over its capacity
// (vnf::loss_fraction). Instances that are still booting (ready_at in the
// future) drop everything routed to them — this is precisely the effect
// Fig. 7 measures when forwarding rules flip before the ClickOS VM is up.
//
// Approximation note: the offered load at an instance is accumulated
// without upstream attenuation (packets are received, then dropped), so a
// cascade of overloads slightly over-counts loss. The delivered fraction of
// a sub-class is the product of survival across its instances.
//
// The tick is dense (DESIGN.md §10): classes sit in one array in ascending
// id order, instances in stable slots behind an id -> slot index, and each
// class holds its plans' instances as slot numbers. A tick walks arrays,
// computes each instance's survival 1 - loss_fraction(offered, capacity)
// once, multiplies those factors along every sub-class, and lists the
// classes that blackholed demand. Slots change only where the structure
// does: install_class_plans resolves its own class, remove_instance clears
// the slots of the removed instance, and add_instance re-points only
// classes that lost that id. Rates, liveness and boot times are read
// through the slots, so changing them touches no slot.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "dataplane/types.h"
#include "vnf/capacity_model.h"
#include "vnf/nf_types.h"

namespace apple::sim {

struct TickStats {
  double time = 0.0;
  double offered_mbps = 0.0;    // total policied demand this tick
  double delivered_mbps = 0.0;  // demand surviving every chain stage
  double loss_rate = 0.0;       // 1 - delivered/offered (0 when idle)
  // Demand lost to faults rather than congestion: sub-classes routed
  // through a dead (crashed) instance, and classes severed by a link or
  // node failure. Always <= offered - delivered.
  double blackholed_mbps = 0.0;
};

class FlowSimulation {
 public:
  explicit FlowSimulation(double tick_seconds = 0.01);

  double tick_seconds() const { return tick_seconds_; }
  double now() const { return now_; }

  // --- instances ----------------------------------------------------------
  // Adds an instance; it serves traffic from `ready_at` onward.
  void add_instance(const vnf::VnfInstance& instance, double ready_at = 0.0);
  void remove_instance(vnf::InstanceId id);
  bool has_instance(vnf::InstanceId id) const;
  void set_ready_at(vnf::InstanceId id, double ready_at);

  // Fault injection (src/fault): a dead instance stays installed — its
  // plans keep referencing it so the blackhole window is visible — but its
  // capacity reads 0 and every sub-class routed through it is accounted as
  // blackholed until the plans are repaired.
  void set_instance_alive(vnf::InstanceId id, bool alive);
  bool instance_alive(vnf::InstanceId id) const;

  // A severed class (its fixed forwarding path crosses a failed link) keeps
  // offering traffic but delivers nothing until the link recovers.
  void set_class_severed(traffic::ClassId id, bool severed);
  bool class_severed(traffic::ClassId id) const;

  // Demand of `id` lost to faults during the last executed tick, in Mbps
  // (severed class, or sub-class plans through dead instances).
  double class_blackholed_mbps(traffic::ClassId id) const;
  // Classes with class_blackholed_mbps > 0 in the last executed tick,
  // ascending; every other class blackholed nothing. Valid until the next
  // step().
  std::span<const traffic::ClassId> blackholed_classes() const {
    return blackholed_;
  }

  // --- classes ------------------------------------------------------------
  // Current offered rate of a class (updated when replaying TM snapshots).
  void set_class_rate(traffic::ClassId id, double mbps);
  double class_rate(traffic::ClassId id) const;

  // Installs/replaces the sub-class plans of a class. Plan weights must sum
  // to ~1; every itinerary instance must already exist.
  void install_class_plans(traffic::ClassId id,
                           std::vector<dataplane::SubclassPlan> plans);
  const std::vector<dataplane::SubclassPlan>& plans_of(
      traffic::ClassId id) const;

  // --- execution ----------------------------------------------------------
  // Advances one tick and returns its stats. Throws std::out_of_range when
  // a plan carrying traffic on an unsevered class references an instance
  // that was removed since the plans were installed.
  TickStats step();
  // Advances until `horizon` (exclusive of a final partial tick).
  void run_until(double horizon);

  // Offered load at an instance during the last executed tick, in Mbps —
  // what the per-port packet counters of the vSwitch expose (Sec. VII-B).
  double instance_offered_mbps(vnf::InstanceId id) const;
  double instance_capacity_mbps(vnf::InstanceId id) const;
  std::vector<vnf::InstanceId> instance_ids() const;

 private:
  // Slot of a plan instance that is not installed (removed since the plans
  // were installed).
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct InstanceState {
    vnf::VnfInstance instance;
    double ready_at = 0.0;
    double offered = 0.0;   // last tick
    double survival = 1.0;  // last tick: 1 - loss_fraction(offered, capacity)
    bool alive = true;      // false after a fault-injected crash
  };
  // One sub-class plan's run of slots: slots[begin, end).
  struct PlanRun {
    double weight = 0.0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  struct ClassState {
    double rate_mbps = 0.0;
    std::vector<dataplane::SubclassPlan> plans;
    bool severed = false;       // forwarding path crosses a failed link
    double blackholed = 0.0;    // last tick, Mbps
    // Plan p's weight and its itinerary instances, in itinerary order, as
    // instances_ slots (kNoSlot: not installed).
    std::vector<PlanRun> runs;
    std::vector<std::uint32_t> slots;
    std::size_t missing = 0;  // slots equal to kNoSlot
  };

  // Slot of instance `id`, or kNoSlot.
  std::uint32_t slot_of(vnf::InstanceId id) const;
  // Instance `id`'s state; throws std::out_of_range when not installed.
  InstanceState& instance_at(vnf::InstanceId id);
  const InstanceState& instance_at(vnf::InstanceId id) const;
  // Class `id`'s state, nullptr when it does not exist.
  const ClassState* find_class(traffic::ClassId id) const;
  // Class `id`'s state, created in id order when it does not exist.
  ClassState& class_at(traffic::ClassId id);
  // Notes that `n` classes had their slots rewritten before the next tick.
  void count_resolved(std::size_t n);

  double tick_seconds_;
  double now_ = 0.0;
  // Stable slots: an instance keeps its slot until removed, and a removed
  // instance's slot is reused by a later add_instance.
  std::vector<InstanceState> instances_;
  std::vector<std::uint32_t> free_slots_;
  // (id, slot) ascending by id: the by-id accessors and instance_ids().
  std::vector<std::pair<vnf::InstanceId, std::uint32_t>> slot_index_;
  // Parallel arrays in ascending id order. The tick accumulates
  // floating-point offered/delivered sums in this order, so it is part of
  // the byte-identical replay contract.
  std::vector<traffic::ClassId> class_ids_;
  std::vector<ClassState> classes_;
  std::vector<traffic::ClassId> blackholed_;  // last tick, ascending
  // Some class's slots were rewritten since the last tick.
  bool slots_changed_ = false;
};

}  // namespace apple::sim
