// Sub-class assignment (paper Sec. V-A): turns the Optimization Engine's
// spatial distribution d^i_{h,j} into per-class sub-classes, each pinned to
// a concrete sequence of VNF instances, so the Rule Generator can emit
// forwarding rules.
//
// Decomposition: the prefix property (Eq. 3) guarantees that consuming the
// stages' per-position fractions front-to-back yields monotone itineraries
// — the c-th traffic unit of stage j is processed no earlier on the path
// than the c-th unit of stage j-1. Each greedy "cut" across all stages
// becomes one sub-class whose weight is the smallest remaining head
// fraction.
//
// Two classifier realizations (Sec. V-A):
//  * kConsistentHash — flows hash uniformly onto [0,1); one TCAM rule per
//    sub-class (needs programmable hashing).
//  * kPrefixSplit    — sub-class weights are quantized to dyadic fractions
//    and expressed as IP prefix rules (e.g. 10.1.1.128/25 = half of
//    10.1.1.0/24); costs popcount(weight) rules in TCAM.
#pragma once

#include <cstdint>
#include <vector>

#include "core/placement.h"
#include "dataplane/types.h"
#include "vnf/nf_types.h"

namespace apple::core {

enum class SubclassMethod { kConsistentHash, kPrefixSplit };

// kPrefixSplit quantizes weights to multiples of 1/256 (8 prefix bits).
struct AssignerOptions {
  SubclassMethod method = SubclassMethod::kConsistentHash;
};

// The concrete instance inventory of a placement: instance ids grouped by
// (switch, NF type), in fill order.
struct InstanceInventory {
  // by_node_type[v][n] = instance ids at switch v of type n.
  std::vector<std::array<std::vector<vnf::InstanceId>, vnf::kNumNfTypes>>
      by_node_type;

  const std::vector<vnf::InstanceId>& at(net::NodeId v, vnf::NfType n) const {
    return by_node_type.at(v)[static_cast<std::size_t>(n)];
  }
};

// Materializes an inventory for a plan by assigning fresh dense instance
// ids (1-based); useful for simulations that do not go through the
// Resource Orchestrator.
InstanceInventory materialize_inventory(const PlacementInput& input,
                                        const PlacementPlan& plan);

// Decomposes each class's distribution into sub-class plans. Instances of a
// (switch, type) bucket are load-balanced by capacity water-filling in
// inventory order. Throws std::invalid_argument when the plan's capacity
// does not cover a class (check_plan first).
std::vector<std::vector<dataplane::SubclassPlan>> assign_subclasses(
    const PlacementInput& input, const PlacementPlan& plan,
    const InstanceInventory& inventory, const AssignerOptions& options = {});

// TCAM rule count for a sub-class weight under `method` (Sec. V-A): 1 for
// hashing; the popcount of the dyadic expansion for prefix splitting.
std::size_t classifier_rules_for_weight(double weight, SubclassMethod method,
                                        std::uint32_t prefix_bits);

}  // namespace apple::core
