// Executable data-plane model: walks packets through the network exactly as
// the installed tagging rules would (Fig. 2's per-switch pipeline and the
// vSwitch pipeline of Sec. V-B), recording the NF instances traversed.
//
// This is the verification backbone of the reproduction: property tests
// inject packets for every class and assert that (a) the traversed NF types
// equal the policy chain in order — policy enforcement; (b) the switches
// visited equal the class's original forwarding path — interference
// freedom.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataplane/types.h"
#include "hsa/classifier.h"
#include "net/routing.h"
#include "net/topology.h"
#include "traffic/flow_classes.h"
#include "vnf/nf_types.h"

namespace apple::dataplane {

// Thrown when a fault-injected TCAM/vSwitch rule installation fails
// (src/fault). Only raised while a rule-fault hook is installed; callers
// that never inject faults never see it.
class RuleInstallError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Consulted before install_class/update_class mutate state; returning true
// fails that installation with RuleInstallError (state is untouched, the
// caller retries like a controller re-pushing a rejected flow-mod).
using RuleFaultHook = std::function<bool(traffic::ClassId)>;

class DataPlane {
 public:
  explicit DataPlane(const net::Topology& topo) : topo_(&topo) {}

  // Registers a placed VNF instance so walks can resolve ids to NF types.
  // Re-registering an existing id overwrites it (a ClickOS reconfigure
  // keeps the id but changes the type).
  void register_instance(const vnf::VnfInstance& instance);

  // Drops a retired instance (epoch pipeline, paper Sec. VI). The caller
  // must have removed or re-installed every class whose plans referenced
  // it first; walks through a dangling id fail with a diagnostic.
  void unregister_instance(vnf::InstanceId id);

  bool has_instance(vnf::InstanceId id) const;
  std::optional<vnf::VnfInstance> instance(vnf::InstanceId id) const;

  // Installs (or clears, with nullptr) the fault hook over rule
  // installations.
  void set_rule_fault_hook(RuleFaultHook hook) {
    rule_fault_hook_ = std::move(hook);
  }

  // Installs a class's forwarding path and its sub-class plans. Weights of
  // the plans must sum to ~1; itinerary switches must appear on `path` in
  // order (throws std::invalid_argument otherwise). Throws RuleInstallError
  // when an installed rule-fault hook fails the installation.
  void install_class(const traffic::TrafficClass& cls,
                     std::vector<SubclassPlan> plans);

  // Replaces the sub-class plans of an installed class (fast failover
  // re-balancing installs new TCAM matching rules, Sec. VI).
  void update_class(traffic::ClassId class_id, std::vector<SubclassPlan> plans);

  // Deletes an installed class's rules (incremental re-optimization removes
  // classes that vanished from the traffic matrix). Returns false when the
  // class was not installed.
  bool remove_class(traffic::ClassId class_id);

  bool has_class(traffic::ClassId class_id) const;
  const std::vector<SubclassPlan>& plans_of(traffic::ClassId class_id) const;
  const net::Path& path_of(traffic::ClassId class_id) const;

  // Installed class ids in ascending order (deterministic iteration for
  // state comparisons).
  std::vector<traffic::ClassId> class_ids() const;
  std::size_t num_classes() const { return classes_.size(); }
  std::size_t num_instances() const { return instances_.size(); }

  // Structural version: moves on every call that changes what walk() and
  // traversed_types() read (an instance registered or dropped, a class
  // installed, updated or removed) and on nothing else — a rejected call,
  // the fault hook and walks leave it alone. Equal versions of one object
  // therefore walk every probe to the same result. Per-object and not part
  // of any equality or fingerprint.
  std::uint64_t version() const { return version_; }

  // Sub-class selection at the ingress switch: consistent hash of the flow
  // onto the cumulative weight ranges (Sec. V-A).
  const SubclassPlan& subclass_for(traffic::ClassId class_id,
                                   const hsa::PacketHeader& header) const;

  struct WalkResult {
    Packet packet;
    bool delivered = false;
    std::string error;  // empty on success
  };

  // Forwards one packet of the class end to end. The walk fails (with a
  // diagnostic) if the rules are inconsistent — e.g. a host tag pointing
  // behind the packet's current position.
  WalkResult walk(traffic::ClassId class_id,
                  const hsa::PacketHeader& header) const;

  // The NF types traversed by the packet, in order.
  std::vector<vnf::NfType> traversed_types(const Packet& packet) const;

 private:
  struct InstalledClass {
    traffic::TrafficClass cls;
    std::vector<SubclassPlan> plans;
  };

  void validate_plans(const net::Path& path,
                      const std::vector<SubclassPlan>& plans) const;

  const net::Topology* topo_;
  std::unordered_map<traffic::ClassId, InstalledClass> classes_;
  std::unordered_map<vnf::InstanceId, vnf::VnfInstance> instances_;
  RuleFaultHook rule_fault_hook_;
  std::uint64_t version_ = 0;
};

}  // namespace apple::dataplane
