#include "core/live_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace apple::core {

std::vector<vnf::VnfInstance> adopt_fleet(
    orch::ResourceOrchestrator& orchestrator,
    const InstanceInventory& inventory, double now) {
  std::vector<vnf::VnfInstance> fleet;
  for (net::NodeId v = 0; v < inventory.by_node_type.size(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const auto type = static_cast<vnf::NfType>(n);
      for (const vnf::InstanceId id : inventory.by_node_type[v][n]) {
        fleet.push_back({id, type, v, vnf::spec_of(type).capacity_mbps});
        if (!orchestrator.adopt(fleet.back(), now).ok()) {
          throw std::logic_error(
              "orchestrator inventory diverged from placement");
        }
      }
    }
  }
  return fleet;
}

std::size_t ticks_per(double interval, double tick) {
  APPLE_CHECK(std::isfinite(interval) && interval > 0.0 &&
              std::isfinite(tick) && tick > 0.0);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(interval / tick)));
}

LiveSystem::LiveSystem(const net::Topology& topo, const Epoch& epoch,
                       double tick)
    : orchestrator(topo), flow(tick), classes_(epoch.store) {
  APPLE_CHECK_EQ(epoch.store.size(), epoch.classes.size());
  serve(epoch, 0.0);
}

void LiveSystem::rerate(const traffic::TrafficMatrix& tm,
                        const traffic::ChainAssignment& assignment) {
  traffic::update_rates(classes_, tm, assignment);
  for (std::size_t s = 0; s < classes_.num_shards(); ++s) {
    const traffic::ClassStore::Shard& shard = classes_.shard(s);
    for (std::size_t i = 0; i < shard.size(); ++i) {
      flow.set_class_rate(shard.ids[i], shard.rates[i]);
    }
  }
}

std::vector<vnf::InstanceId> LiveSystem::adopt(const Epoch& next,
                                               double now) {
  const std::vector<vnf::InstanceId> retired = flow.instance_ids();
  for (const vnf::InstanceId id : retired) {
    if (orchestrator.is_alive(id)) orchestrator.cancel(id);
  }
  serve(next, now);
  for (const vnf::InstanceId id : retired) flow.remove_instance(id);
  return retired;
}

void LiveSystem::serve(const Epoch& epoch, double now) {
  for (vnf::VnfInstance inst :
       adopt_fleet(orchestrator, epoch.inventory, now)) {
    inst.capacity_mbps = vnf::spec_of(inst.type).loss_knee_mbps();
    flow.add_instance(inst, now);
  }
  for (std::size_t h = 0; h < epoch.classes.size(); ++h) {
    flow.install_class_plans(epoch.classes[h].id, epoch.subclasses[h]);
  }
}

}  // namespace apple::core
