// Data-plane value types: packets with APPLE's two tag fields, and the
// sub-class itineraries the rule generator installs.
//
// Paper Sec. V-B: every packet carries two tags written into unused header
// bits (e.g. the 6-bit DS field and the 12-bit VLAN id):
//   * host tag — the next APPLE host that must process the packet; `Fin`
//     once every NF of the chain has been traversed; `Empty` when the
//     packet has just entered the network (not classified yet).
//   * sub-class tag — the sub-class within the packet's class; assigned
//     once at the ingress switch and never changed afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_vector.h"
#include "hsa/predicate.h"
#include "net/topology.h"
#include "traffic/flow_classes.h"
#include "vnf/nf_types.h"

namespace apple::dataplane {

using SubclassId = std::uint16_t;

// Host-tag field. Real switches would use a compact encoding; we reserve
// two sentinels and map APPLE hosts to (switch id + kHostTagBase).
using HostTag = std::uint16_t;
inline constexpr HostTag kHostTagEmpty = 0;  // just entered the network
inline constexpr HostTag kHostTagFin = 1;    // all required NFs done
inline constexpr HostTag kHostTagBase = 2;

constexpr HostTag host_tag_for(net::NodeId switch_id) {
  return static_cast<HostTag>(switch_id + kHostTagBase);
}
constexpr net::NodeId switch_of_host_tag(HostTag tag) {
  return static_cast<net::NodeId>(tag - kHostTagBase);
}

// A packet in flight.
struct Packet {
  hsa::PacketHeader header;
  traffic::ClassId class_id = 0;
  HostTag host_tag = kHostTagEmpty;
  SubclassId subclass_tag = 0;
  bool subclass_tagged = false;

  // Diagnostics for verification: every VNF instance traversed, in order,
  // and every switch visited.
  std::vector<vnf::InstanceId> nf_trace;
  std::vector<net::NodeId> switch_trace;
};

// One stop of a sub-class itinerary: the APPLE host attached to `at_switch`
// processes the packet with `instances` (consecutive chain stages), in
// order. Every catalog chain has at most 4 stages, so a visit's instance
// list stays inline (DESIGN.md §3); longer lists spill to the heap.
struct HostVisit {
  net::NodeId at_switch = net::kInvalidNode;
  common::InlineVector<vnf::InstanceId, 4> instances;
};

// A sub-class: the flows of a class that traverse the same VNF instance
// sequence (Sec. V-A). `weight` is d_c^s, the share of the class's traffic;
// weights of a class sum to 1.
struct SubclassPlan {
  traffic::ClassId class_id = 0;
  SubclassId subclass_id = 0;
  double weight = 0.0;
  // Host visits in path order; concatenated instance lists realize the
  // policy chain in order. Two visits stay inline: 98% of the 100k-class
  // epoch's sub-classes visit one or two hosts (DESIGN.md §3).
  common::InlineVector<HostVisit, 2> itinerary;

  // Number of TCAM prefix rules needed to express this sub-class with
  // wildcard matching (the second method of Sec. V-A). Computed by the
  // sub-class assigner; 1 for hash-based splitting on capable hardware.
  std::size_t classifier_prefix_rules = 1;
};

}  // namespace apple::dataplane
