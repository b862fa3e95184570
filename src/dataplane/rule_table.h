// Per-switch rule tables and TCAM accounting (paper Table III).
//
// A physical SDN switch runs APPLE's pipeline in TCAM:
//   1. host-match rules    — host tag == this switch's APPLE host
//                            -> forward to the host (1 entry per host tag).
//   2. classification rules — host tag Empty, match the sub-class wildcard
//                            -> tag sub-class id (+ host tag); installed at
//                            the *ingress* switch of each sub-class only.
//   3. pass-by rule        — anything else -> next table (routing etc.).
//
// The "no tagging" baseline for Fig. 10 has no tags to match on: every
// switch the flow can traverse (all equal-cost paths) must carry the
// sub-class's full wildcard classifier to decide whether to divert — the
// tagging savings come from classifying exactly once at the ingress.
//
// Flow-table pipelining (Sec. V-B): a switch that cannot pipeline the
// host-match and classification tables pays their cross-product.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/types.h"

namespace apple::dataplane {

// TCAM usage of one physical switch, split by rule role (Table III).
struct TcamUsage {
  std::size_t host_match = 0;      // rule type 1
  std::size_t classification = 0;  // rule type 2 (prefix rules)
  std::size_t pass_by = 0;         // rule type 3

  std::size_t total() const { return host_match + classification + pass_by; }
};

// Aggregates TCAM entries across the network for one placement epoch.
class TcamAccountant {
 public:
  explicit TcamAccountant(std::size_t num_switches)
      : switches_(num_switches) {}

  // Switches without table pipelining pay the cross-product (Sec. V-B).
  void set_pipelined(bool pipelined) { pipelined_ = pipelined; }

  // Accounts one sub-class under the APPLE tagging scheme.
  void add_tagged_subclass(const SubclassPlan& plan, net::NodeId ingress);

  // Accounts one sub-class under the no-tagging baseline: without tags,
  // every switch in `classify_at` (all switches on the class's equal-cost
  // paths) must carry the sub-class's wildcard classifier to decide whether
  // to divert the packet locally (paper Sec. IX-C).
  void add_untagged_subclass(const SubclassPlan& plan,
                             std::span<const net::NodeId> classify_at);

  // Incremental rule removal (epoch pipeline, paper Sec. VI): retracts
  // exactly what the matching add_* charged. Host-match entries are
  // refcounted across sub-classes sharing a host tag, so the entry only
  // disappears when its last user is removed; the pass-by entry follows the
  // presence of any remaining rule. Removing a sub-class that was never
  // added trips a contract check.
  void remove_tagged_subclass(const SubclassPlan& plan, net::NodeId ingress);
  void remove_untagged_subclass(const SubclassPlan& plan,
                                std::span<const net::NodeId> classify_at);

  // Per-switch usage including one pass-by entry per switch that carries
  // any APPLE rule, with the cross-product penalty when not pipelined.
  std::vector<TcamUsage> usage() const;

  // Network-wide entry total.
  std::size_t total() const;

 private:
  struct SwitchState {
    std::size_t classification = 0;
    // Number of sub-class itinerary visits to this switch's host. Switch v
    // only ever matches its own host tag host_tag_for(v), so the TCAM holds
    // one host-match entry while the count is positive; the refcount makes
    // removal exact.
    std::size_t host_tag_users = 0;

    bool any_rule() const { return classification > 0 || host_tag_users > 0; }
  };
  std::vector<SwitchState> switches_;
  bool pipelined_ = true;
};

// vSwitch rule count inside an APPLE host for one sub-class (Sec. V-B): one
// entry per <in_port, class, sub-class> step, i.e. |instances| + 1 per host
// visit (entry rule + one per hop between local instances).
std::size_t vswitch_rules_for(const SubclassPlan& plan);

}  // namespace apple::dataplane
