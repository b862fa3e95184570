#include "common/inline_vector.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace apple::common {
namespace {

using Small = InlineVector<int, 3>;

Small filled(int count) {
  Small v;
  for (int i = 0; i < count; ++i) v.push_back(10 * i);
  return v;
}

void expect_sequence(const Small& v, int count) {
  ASSERT_EQ(v.size(), static_cast<std::size_t>(count));
  int expected = 0;
  for (const int x : v) {
    EXPECT_EQ(x, expected);
    expected += 10;
  }
}

TEST(InlineVector, DefaultIsEmpty) {
  const Small v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.begin(), v.end());
}

// Capacity N holds inline; N + 1 spills; both keep insertion order.
TEST(InlineVector, SpillsPastInlineCapacityInOrder) {
  constexpr int kN = static_cast<int>(Small::kInlineCapacity);
  for (const int count : {kN, kN + 1, 3 * kN + 2}) {
    SCOPED_TRACE(count);
    const Small v = filled(count);
    expect_sequence(v, count);
    EXPECT_EQ(v.front(), 0);
    EXPECT_EQ(v.back(), 10 * (count - 1));
    EXPECT_EQ(v[static_cast<std::size_t>(count - 1)], 10 * (count - 1));
    EXPECT_FALSE(v.empty());
  }
}

TEST(InlineVector, CopyLeavesBothIndependent) {
  for (const int count : {2, 5}) {  // inline and spilled
    SCOPED_TRACE(count);
    Small source = filled(count);
    Small copy(source);
    expect_sequence(copy, count);
    expect_sequence(source, count);
    copy.front() = -1;
    EXPECT_EQ(source.front(), 0);

    Small assigned = filled(4);
    assigned = source;
    expect_sequence(assigned, count);
    expect_sequence(source, count);
  }
}

TEST(InlineVector, MoveLeavesSourceEmptyAndUsable) {
  for (const int count : {2, 5}) {  // inline and spilled
    SCOPED_TRACE(count);
    Small source = filled(count);
    Small moved(std::move(source));
    expect_sequence(moved, count);
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    source.push_back(7);
    ASSERT_EQ(source.size(), 1u);
    EXPECT_EQ(source[0], 7);

    Small target = filled(4);
    target = std::move(moved);
    expect_sequence(target, count);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    for (int i = 0; i < 5; ++i) moved.push_back(10 * i);
    expect_sequence(moved, 5);
  }
}

// Equality compares elements: equal inline contents, equal spilled contents,
// and a full inline sequence against its spilled extension.
TEST(InlineVector, EqualityIsElementWise) {
  EXPECT_EQ(filled(2), filled(2));
  EXPECT_EQ(filled(5), filled(5));
  EXPECT_NE(filled(2), filled(3));
  EXPECT_NE(filled(4), filled(5));
  Small other = filled(4);
  other.back() = 1;
  EXPECT_NE(filled(4), other);
  EXPECT_EQ(Small{}, Small{});
}

TEST(InlineVector, MutationThroughIteration) {
  for (const int count : {3, 4}) {  // inline and spilled
    SCOPED_TRACE(count);
    Small v = filled(count);
    for (int& x : v) x += 1;
    int expected = 1;
    for (const int x : v) {
      EXPECT_EQ(x, expected);
      expected += 10;
    }
  }
}

TEST(InlineVector, InitializerLists) {
  const Small inline_list{1, 2};
  ASSERT_EQ(inline_list.size(), 2u);
  EXPECT_EQ(inline_list[1], 2);
  const Small spilled_list{1, 2, 3, 4, 5};
  ASSERT_EQ(spilled_list.size(), 5u);
  EXPECT_EQ(spilled_list.back(), 5);
  Small assigned;
  assigned = {9};
  ASSERT_EQ(assigned.size(), 1u);
  EXPECT_EQ(assigned.front(), 9);
  const Small empty{};
  EXPECT_TRUE(empty.empty());
}

// The shape of a sub-class itinerary: an inline list of visits, each with
// its own inline list, spilling independently at both levels.
TEST(InlineVector, ContainerOfContainers) {
  struct Visit {
    int at = 0;
    InlineVector<std::string, 2> names;
    bool operator==(const Visit&) const = default;
  };
  InlineVector<Visit, 2> route;
  route = {{1, {"a"}}, {2, {"b", "c", "d"}}};
  route.push_back({3, {"e", "f"}});
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(route[1].names.size(), 3u);
  EXPECT_EQ(route[1].names.back(), "d");
  EXPECT_EQ(route.back().at, 3);

  InlineVector<Visit, 2> copy = route;
  copy[1].names.push_back("x");
  EXPECT_EQ(route[1].names.size(), 3u);
  EXPECT_NE(copy, route);

  InlineVector<Visit, 2> moved = std::move(copy);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved[1].names.back(), "x");
  moved[1] = route[1];
  EXPECT_EQ(moved, route);
}

}  // namespace
}  // namespace apple::common
