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
// The tick reads each plan's instances through slots resolved once per
// structural change (an instance added or removed, plans installed), not
// through a map lookup per visit; rates, liveness and boot times are read
// through the slots, so changing them needs no re-resolution.
#pragma once

#include <map>
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
  // The tick's slots point into this object's own instance table, so a
  // copy would read the original's instances.
  FlowSimulation(const FlowSimulation&) = delete;
  FlowSimulation& operator=(const FlowSimulation&) = delete;

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
  struct InstanceState {
    vnf::VnfInstance instance;
    double ready_at = 0.0;
    double offered = 0.0;  // last tick
    bool alive = true;     // false after a fault-injected crash
  };
  struct ClassState {
    double rate_mbps = 0.0;
    std::vector<dataplane::SubclassPlan> plans;
    bool severed = false;       // forwarding path crosses a failed link
    double blackholed = 0.0;    // last tick, Mbps
    // Every plan's itinerary instances in itinerary order, resolved by
    // resolve_slots() (nullptr: no such instance). Plan p's run is
    // slots[slot_begin[p], slot_begin[p + 1]).
    std::vector<InstanceState*> slots;
    std::vector<std::size_t> slot_begin;
  };

  // Points every class's slots at the current instances_ nodes (map nodes
  // never move, so the pointers hold until an instance is removed).
  void resolve_slots();

  double tick_seconds_;
  double now_ = 0.0;
  // Ordered maps: the tick loop accumulates floating-point offered/
  // delivered sums across these tables, so their walk order is part of the
  // byte-identical replay contract (apple_analyze unordered-iter).
  std::map<vnf::InstanceId, InstanceState> instances_;
  std::map<traffic::ClassId, ClassState> classes_;
  // False after add_instance, remove_instance or install_class_plans; the
  // next step() re-resolves every class's slots.
  bool resolved_ = false;
};

}  // namespace apple::sim
