#include "dataplane/rule_table.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace apple::dataplane {

namespace {

void check_switch(std::size_t num, net::NodeId v) {
  if (v >= num) throw std::out_of_range("switch id out of range");
}

}  // namespace

void TcamAccountant::add_tagged_subclass(const SubclassPlan& plan,
                                         net::NodeId ingress) {
  check_switch(switches_.size(), ingress);
  // Sub-class plan contracts: a sub-class always needs at least one
  // classifier entry, and its traffic share d_c^s is a valid fraction.
  APPLE_CHECK_GE(plan.classifier_prefix_rules, 1u);
  APPLE_DCHECK(std::isfinite(plan.weight));
  APPLE_DCHECK_GE(plan.weight, -1e-9);
  APPLE_DCHECK_LE(plan.weight, 1.0 + 1e-9);
  // Ingress classifies once: wildcard prefix rules that tag sub-class id
  // and first host id (rows 2-3 of Table III).
  switches_[ingress].classification += plan.classifier_prefix_rules;
  // Every visited host switch recognizes its own host tag (row 1).
  for (const HostVisit& visit : plan.itinerary) {
    check_switch(switches_.size(), visit.at_switch);
    // Host tags must round-trip to the switch they encode (Sec. V-B): a
    // mismatch here would steer packets into the wrong APPLE host.
    APPLE_DCHECK_EQ(switch_of_host_tag(host_tag_for(visit.at_switch)),
                    visit.at_switch);
    ++switches_[visit.at_switch].host_tag_users;
  }
}

void TcamAccountant::remove_tagged_subclass(const SubclassPlan& plan,
                                            net::NodeId ingress) {
  check_switch(switches_.size(), ingress);
  APPLE_CHECK_GE(switches_[ingress].classification,
                 plan.classifier_prefix_rules);
  switches_[ingress].classification -= plan.classifier_prefix_rules;
  for (const HostVisit& visit : plan.itinerary) {
    check_switch(switches_.size(), visit.at_switch);
    std::size_t& users = switches_[visit.at_switch].host_tag_users;
    APPLE_CHECK_GT(users, 0u);
    --users;
  }
}

void TcamAccountant::add_untagged_subclass(
    const SubclassPlan& plan, std::span<const net::NodeId> classify_at) {
  APPLE_CHECK_GE(plan.classifier_prefix_rules, 1u);
  // Without tags every decision point re-classifies the sub-class: each
  // switch the flow can traverse must match the full wildcard rule set to
  // decide between "divert into my APPLE host" and "forward onward".
  for (const net::NodeId v : classify_at) {
    check_switch(switches_.size(), v);
    switches_[v].classification += plan.classifier_prefix_rules;
  }
}

void TcamAccountant::remove_untagged_subclass(
    const SubclassPlan& plan, std::span<const net::NodeId> classify_at) {
  APPLE_CHECK_GE(plan.classifier_prefix_rules, 1u);
  for (const net::NodeId v : classify_at) {
    check_switch(switches_.size(), v);
    APPLE_CHECK_GE(switches_[v].classification, plan.classifier_prefix_rules);
    switches_[v].classification -= plan.classifier_prefix_rules;
  }
}

std::vector<TcamUsage> TcamAccountant::usage() const {
  std::vector<TcamUsage> out(switches_.size());
  for (std::size_t v = 0; v < switches_.size(); ++v) {
    const SwitchState& s = switches_[v];
    TcamUsage& u = out[v];
    u.host_match = s.host_tag_users > 0 ? 1 : 0;
    u.classification = s.classification;
    if (!pipelined_ && u.host_match > 0 && u.classification > 0) {
      // Cross-product of the two tables preserves the semantics on
      // non-pipelined hardware (Sec. V-B).
      u.classification = u.classification * (u.host_match + 1);
    }
    u.pass_by = s.any_rule() ? 1 : 0;
  }
  return out;
}

std::size_t TcamAccountant::total() const {
  std::size_t sum = 0;
  for (const TcamUsage& u : usage()) sum += u.total();
  return sum;
}

std::size_t vswitch_rules_for(const SubclassPlan& plan) {
  std::size_t rules = 0;
  for (const HostVisit& visit : plan.itinerary) {
    rules += visit.instances.size() + 1;
  }
  return rules;
}

}  // namespace apple::dataplane
