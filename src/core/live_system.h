// Live-system runtime of the control loop (paper Fig. 1, Sec. VI): the
// Resource Orchestrator's fleet and the fluid data plane serving one epoch,
// which AppleController::replay and core::replay_with_faults both run on.
// The orchestrator books each instance at the measured capacity Cap_n the
// plan packed against; the simulation serves it at the true loss knee,
// kMeasuredCapacityMargin above (Sec. IV-C) — the detector's head start.
#pragma once

#include <cstddef>
#include <vector>

#include "core/epoch_pipeline.h"
#include "orch/resource_orchestrator.h"
#include "sim/flow_sim.h"
#include "traffic/class_store.h"
#include "traffic/traffic_matrix.h"

namespace apple::core {

// Adopts `inventory` into `orchestrator` at `now` under the pipeline's ids,
// at measured capacity (no boot is charged), and returns the instances in
// (node, type) order. Throws std::logic_error when one is rejected.
std::vector<vnf::VnfInstance> adopt_fleet(
    orch::ResourceOrchestrator& orchestrator,
    const InstanceInventory& inventory, double now);

// Whole ticks per `interval`, at least one; both must be finite and > 0.
std::size_t ticks_per(double interval, double tick);

class LiveSystem {
 public:
  // Brings `epoch` up at t = 0: adopts its fleet, serves it and installs
  // every class's sub-class plans. `epoch` must be store-backed; `topo`
  // must outlive the system.
  LiveSystem(const net::Topology& topo, const Epoch& epoch, double tick);

  // Re-rates the carried classes (a copy of the epoch's store) against
  // `tm` and pushes every rate into the simulation, in store order.
  void rerate(const traffic::TrafficMatrix& tm,
              const traffic::ChainAssignment& assignment);

  // Node-repair swap at `now`: retires every served instance, then adopts
  // and serves `next`, whose ids must not collide with them. The carried
  // classes are unchanged. Returns the retired ids, ascending.
  std::vector<vnf::InstanceId> adopt(const Epoch& next, double now);

  orch::ResourceOrchestrator orchestrator;
  sim::FlowSimulation flow;

 private:
  void serve(const Epoch& epoch, double now);

  traffic::ClassStore classes_;
};

}  // namespace apple::core
