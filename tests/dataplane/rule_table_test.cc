#include "dataplane/rule_table.h"

#include <gtest/gtest.h>

namespace apple::dataplane {
namespace {

SubclassPlan make_plan(traffic::ClassId cls, SubclassId sub, double weight,
                       std::vector<HostVisit> itinerary,
                       std::size_t prefix_rules = 1) {
  SubclassPlan plan;
  plan.class_id = cls;
  plan.subclass_id = sub;
  plan.weight = weight;
  for (HostVisit& visit : itinerary) plan.itinerary.push_back(std::move(visit));
  plan.classifier_prefix_rules = prefix_rules;
  return plan;
}

TEST(TcamAccountant, TaggedSubclassUsesIngressClassifierOnly) {
  TcamAccountant acct(4);
  // Sub-class visits hosts at switches 1 and 3; ingress is 0.
  const SubclassPlan plan =
      make_plan(0, 0, 1.0, {{1, {10}}, {3, {11}}}, /*prefix_rules=*/2);
  acct.add_tagged_subclass(plan, 0);
  const auto usage = acct.usage();
  EXPECT_EQ(usage[0].classification, 2u);
  EXPECT_EQ(usage[0].host_match, 0u);
  EXPECT_EQ(usage[1].host_match, 1u);
  EXPECT_EQ(usage[1].classification, 0u);
  EXPECT_EQ(usage[3].host_match, 1u);
  EXPECT_EQ(usage[2].total(), 0u);  // untouched transit switch
}

TEST(TcamAccountant, UntaggedSubclassClassifiesAlongWholePath) {
  TcamAccountant tagged(4), untagged(4);
  const SubclassPlan plan =
      make_plan(0, 0, 1.0, {{1, {10}}, {3, {11}}}, /*prefix_rules=*/4);
  tagged.add_tagged_subclass(plan, 0);
  const std::vector<net::NodeId> path{0, 1, 2, 3};
  untagged.add_untagged_subclass(plan, path);
  // Tagging: 4 (ingress) + 2 host-match + pass-by entries.
  // No tagging: 4 classifier entries at EVERY switch on the path.
  EXPECT_LT(tagged.total(), untagged.total());
  const auto u = untagged.usage();
  for (const net::NodeId v : path) {
    EXPECT_EQ(u[v].classification, 4u) << v;
  }
}

TEST(TcamAccountant, HostMatchDeduplicatedAcrossSubclasses) {
  TcamAccountant acct(3);
  acct.add_tagged_subclass(make_plan(0, 0, 1.0, {{1, {10}}}), 0);
  acct.add_tagged_subclass(make_plan(1, 0, 1.0, {{1, {11}}}), 2);
  const auto usage = acct.usage();
  // Both sub-classes divert at switch 1's host: one host-match entry.
  EXPECT_EQ(usage[1].host_match, 1u);
}

TEST(TcamAccountant, PassByOnlyWhereRulesExist) {
  TcamAccountant acct(3);
  acct.add_tagged_subclass(make_plan(0, 0, 1.0, {{1, {10}}}), 0);
  const auto usage = acct.usage();
  EXPECT_EQ(usage[0].pass_by, 1u);
  EXPECT_EQ(usage[1].pass_by, 1u);
  EXPECT_EQ(usage[2].pass_by, 0u);
}

TEST(TcamAccountant, CrossProductWithoutPipelining) {
  TcamAccountant pipelined(2), flat(2);
  flat.set_pipelined(false);
  // Switch 0 is both ingress (2 prefix rules) and a host stop.
  const SubclassPlan plan =
      make_plan(0, 0, 1.0, {{0, {10}}}, /*prefix_rules=*/2);
  pipelined.add_tagged_subclass(plan, 0);
  flat.add_tagged_subclass(plan, 0);
  EXPECT_GT(flat.total(), pipelined.total());
}

TEST(TcamAccountant, RejectsOutOfRangeSwitch) {
  TcamAccountant acct(2);
  EXPECT_THROW(
      acct.add_tagged_subclass(make_plan(0, 0, 1.0, {{5, {10}}}), 0),
      std::out_of_range);
  EXPECT_THROW(acct.add_tagged_subclass(make_plan(0, 0, 1.0, {}), 9),
               std::out_of_range);
  const std::vector<net::NodeId> bad_path{0, 9};
  EXPECT_THROW(
      acct.add_untagged_subclass(make_plan(0, 0, 1.0, {}), bad_path),
      std::out_of_range);
}

TEST(TcamAccountant, RemoveTaggedSubclassRestoresState) {
  TcamAccountant acct(4);
  const SubclassPlan a =
      make_plan(0, 0, 0.5, {{1, {10}}, {3, {11}}}, /*prefix_rules=*/2);
  const SubclassPlan b = make_plan(1, 0, 1.0, {{1, {12}}});
  acct.add_tagged_subclass(a, 0);
  acct.add_tagged_subclass(b, 2);
  acct.remove_tagged_subclass(a, 0);
  // Switch 1's host-match survives: sub-class b still diverts there.
  const auto usage = acct.usage();
  EXPECT_EQ(usage[0].total(), 0u);
  EXPECT_EQ(usage[1].host_match, 1u);
  EXPECT_EQ(usage[3].total(), 0u);
  acct.remove_tagged_subclass(b, 2);
  EXPECT_EQ(acct.total(), 0u);
}

TEST(TcamAccountant, RemoveUntaggedSubclassRestoresState) {
  TcamAccountant acct(4);
  const SubclassPlan plan =
      make_plan(0, 0, 1.0, {{1, {10}}}, /*prefix_rules=*/3);
  const std::vector<net::NodeId> path{0, 1, 2};
  acct.add_untagged_subclass(plan, path);
  acct.remove_untagged_subclass(plan, path);
  EXPECT_EQ(acct.total(), 0u);
}

TEST(VswitchRules, OneEntryPerStep) {
  // Two host visits with 2 and 1 instances: (2+1) + (1+1) = 5 entries.
  const SubclassPlan plan =
      make_plan(0, 0, 1.0, {{1, {10, 11}}, {3, {12}}});
  EXPECT_EQ(vswitch_rules_for(plan), 5u);
  EXPECT_EQ(vswitch_rules_for(make_plan(0, 0, 1.0, {})), 0u);
}

TEST(HostTags, RoundTrip) {
  EXPECT_EQ(switch_of_host_tag(host_tag_for(7)), 7u);
  EXPECT_NE(host_tag_for(0), kHostTagEmpty);
  EXPECT_NE(host_tag_for(0), kHostTagFin);
}

}  // namespace
}  // namespace apple::dataplane
