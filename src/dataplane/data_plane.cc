#include "dataplane/data_plane.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/sorted.h"
#include "obs/obs.h"

namespace apple::dataplane {

void DataPlane::register_instance(const vnf::VnfInstance& instance) {
  instances_[instance.id] = instance;
  ++version_;
}

void DataPlane::unregister_instance(vnf::InstanceId id) {
  if (instances_.erase(id) > 0) {
    ++version_;
    APPLE_OBS_COUNT("dataplane.pipeline.instances_unregistered");
  }
}

bool DataPlane::has_instance(vnf::InstanceId id) const {
  return instances_.contains(id);
}

std::optional<vnf::VnfInstance> DataPlane::instance(vnf::InstanceId id) const {
  const auto it = instances_.find(id);
  if (it == instances_.end()) return std::nullopt;
  return it->second;
}

void DataPlane::validate_plans(const net::Path& path,
                               const std::vector<SubclassPlan>& plans) const {
  if (plans.empty()) {
    throw std::invalid_argument("class needs at least one sub-class plan");
  }
  double weight = 0.0;
  for (const SubclassPlan& plan : plans) {
    if (plan.weight < 0.0) {
      throw std::invalid_argument("negative sub-class weight");
    }
    weight += plan.weight;
    // Itinerary switches must appear on the path in order — this is the
    // structural form of the precedence constraint Eq. (3).
    std::size_t path_pos = 0;
    for (const HostVisit& visit : plan.itinerary) {
      const auto it =
          std::find(path.begin() + static_cast<std::ptrdiff_t>(path_pos),
                    path.end(), visit.at_switch);
      if (it == path.end()) {
        throw std::invalid_argument(
            "itinerary visit off-path or out of order");
      }
      path_pos = static_cast<std::size_t>(it - path.begin());
      if (visit.instances.empty()) {
        throw std::invalid_argument("empty host visit");
      }
    }
  }
  if (std::abs(weight - 1.0) > 1e-6) {
    throw std::invalid_argument("sub-class weights must sum to 1");
  }
}

void DataPlane::install_class(const traffic::TrafficClass& cls,
                              std::vector<SubclassPlan> plans) {
  if (cls.path.empty()) throw std::invalid_argument("class has empty path");
  validate_plans(cls.path, plans);
  if (rule_fault_hook_ && rule_fault_hook_(cls.id)) {
    APPLE_OBS_COUNT("dataplane.pipeline.rule_install_failures");
    APPLE_OBS_EVENT_N("dataplane.rules.install_failure", cls.id);
    throw RuleInstallError("injected rule-install failure for class " +
                           std::to_string(cls.id));
  }
  APPLE_OBS_COUNT("dataplane.pipeline.classes_installed");
  APPLE_OBS_EVENT_N("dataplane.rules.install", cls.id);
  classes_[cls.id] = InstalledClass{cls, std::move(plans)};
  ++version_;
}

void DataPlane::update_class(traffic::ClassId class_id,
                             std::vector<SubclassPlan> plans) {
  auto it = classes_.find(class_id);
  if (it == classes_.end()) {
    throw std::invalid_argument("class not installed");
  }
  validate_plans(it->second.cls.path, plans);
  if (rule_fault_hook_ && rule_fault_hook_(class_id)) {
    APPLE_OBS_COUNT("dataplane.pipeline.rule_install_failures");
    APPLE_OBS_EVENT_N("dataplane.rules.install_failure", class_id);
    throw RuleInstallError("injected rule-install failure for class " +
                           std::to_string(class_id));
  }
  APPLE_OBS_EVENT_N("dataplane.rules.update", class_id);
  it->second.plans = std::move(plans);
  ++version_;
}

bool DataPlane::remove_class(traffic::ClassId class_id) {
  if (classes_.erase(class_id) == 0) return false;
  ++version_;
  APPLE_OBS_COUNT("dataplane.pipeline.classes_removed");
  APPLE_OBS_EVENT_N("dataplane.rules.remove", class_id);
  return true;
}

bool DataPlane::has_class(traffic::ClassId class_id) const {
  return classes_.contains(class_id);
}

std::vector<traffic::ClassId> DataPlane::class_ids() const {
  return common::sorted_keys(classes_);
}

const std::vector<SubclassPlan>& DataPlane::plans_of(
    traffic::ClassId class_id) const {
  return classes_.at(class_id).plans;
}

const net::Path& DataPlane::path_of(traffic::ClassId class_id) const {
  return classes_.at(class_id).cls.path;
}

const SubclassPlan& DataPlane::subclass_for(
    traffic::ClassId class_id, const hsa::PacketHeader& header) const {
  const InstalledClass& ic = classes_.at(class_id);
  const double u = hsa::flow_hash_unit(header);
  double cumulative = 0.0;
  for (const SubclassPlan& plan : ic.plans) {
    cumulative += plan.weight;
    if (u < cumulative) return plan;
  }
  return ic.plans.back();  // numeric guard: u ~ 1.0
}

DataPlane::WalkResult DataPlane::walk(traffic::ClassId class_id,
                                      const hsa::PacketHeader& header) const {
  WalkResult result;
  const auto it = classes_.find(class_id);
  if (it == classes_.end()) {
    result.error = "class not installed";
    return result;
  }
  const InstalledClass& ic = it->second;
  const net::Path& path = ic.cls.path;
  const SubclassPlan& plan = subclass_for(class_id, header);

  Packet& pkt = result.packet;
  pkt.header = header;
  pkt.class_id = class_id;

  std::size_t next_visit = 0;
  for (std::size_t hop = 0; hop < path.size(); ++hop) {
    const net::NodeId here = path[hop];
    pkt.switch_trace.push_back(here);

    if (hop == 0) {
      // Ingress classification (rows 2-3 of Table III): tag sub-class and
      // the first host id, or Fin for empty itineraries.
      pkt.subclass_tag = plan.subclass_id;
      pkt.subclass_tagged = true;
      pkt.host_tag = plan.itinerary.empty()
                         ? kHostTagFin
                         : host_tag_for(plan.itinerary.front().at_switch);
    }

    // Host-match rule: divert into the local APPLE host.
    while (pkt.host_tag != kHostTagFin &&
           switch_of_host_tag(pkt.host_tag) == here) {
      if (next_visit >= plan.itinerary.size()) {
        result.error = "host tag points past itinerary end";
        return result;
      }
      const HostVisit& visit = plan.itinerary[next_visit];
      if (visit.at_switch != here) {
        result.error = "host tag inconsistent with itinerary order";
        return result;
      }
      // vSwitch pipeline: <in_port, class, sub-class> rules chain the
      // packet through the local instances in policy order.
      for (const vnf::InstanceId inst : visit.instances) {
        if (!instances_.contains(inst)) {
          result.error = "packet reached unregistered instance";
          return result;
        }
        pkt.nf_trace.push_back(inst);
      }
      ++next_visit;
      // Leaving the host: the vSwitch re-tags the next host id (or Fin).
      pkt.host_tag = next_visit < plan.itinerary.size()
                         ? host_tag_for(plan.itinerary[next_visit].at_switch)
                         : kHostTagFin;
    }
  }

  if (next_visit != plan.itinerary.size()) {
    result.error = "itinerary not completed at egress";
    return result;
  }
  result.delivered = true;
  return result;
}

std::vector<vnf::NfType> DataPlane::traversed_types(
    const Packet& packet) const {
  std::vector<vnf::NfType> types;
  types.reserve(packet.nf_trace.size());
  for (const vnf::InstanceId id : packet.nf_trace) {
    types.push_back(instances_.at(id).type);
  }
  return types;
}

}  // namespace apple::dataplane
