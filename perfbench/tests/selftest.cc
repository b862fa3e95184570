// Tests of the benchmark's own logic: the tail-percentile choice, the
// failed_ratio rules and the policy-stream client.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "policy_stream_gen.h"
#include "stats.h"

namespace perfbench {
namespace {

using apple::ctrl::PolicyRequest;
using apple::traffic::TrafficClass;

TEST(TailPercentile, CountsSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(10, 100.0), 0u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(TailPercentile, PicksHighestSupportedLadderStep) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(TailPercentile, MinSamplesMatchesTheLadder) {
  EXPECT_EQ(min_samples_for(kTailPercentile), 100u);
  EXPECT_EQ(tail_percentile(min_samples_for(kTailPercentile)),
            kTailPercentile);
  EXPECT_LT(tail_percentile(min_samples_for(kTailPercentile) - 1),
            kTailPercentile);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.9), 9.0);
}

TEST(FailedRatio, IspDriftCountsThrownEpochs) {
  const FailureTally t = isp_drift_failures(36, 0);
  EXPECT_EQ(t.attempted, 36u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_DOUBLE_EQ(isp_drift_failures(40, 2).ratio(), 0.05);
  EXPECT_DOUBLE_EQ(isp_drift_failures(0, 0).ratio(), 0.0);
}

TEST(FailedRatio, PolicyStreamCountsOnlyDirtyDomainsThatDidNotAdvance) {
  const std::vector<DomainBatchOutcome> outcomes = {
      {10, true, true},    // committed
      {20, true, false},   // bounced: all its requests failed
      {30, false, false},  // clean (no-op requests): not a failure
      {0, false, false},   // untouched
  };
  EXPECT_EQ(failed_requests(outcomes), 20u);
  const FailureTally t = policy_stream_failures(64, 4, 20);
  EXPECT_EQ(t.attempted, 64u);
  EXPECT_EQ(t.failed, 24u);
}

TEST(FailedRatio, ReplayLpCountsInfeasibleSegmentsAndUnrepairedFaults) {
  const FailureTally t = replay_lp_failures(12, 1, 96, 3);
  EXPECT_EQ(t.attempted, 108u);
  EXPECT_EQ(t.failed, 4u);
  EXPECT_DOUBLE_EQ(replay_lp_failures(12, 0, 96, 0).ratio(), 0.0);
}

std::vector<TrafficClass> population(std::size_t nodes, std::size_t chains,
                                     std::size_t stride) {
  std::vector<TrafficClass> out;
  std::size_t k = 0;
  for (apple::net::NodeId s = 0; s < nodes; ++s) {
    for (apple::net::NodeId d = 0; d < nodes; ++d) {
      if (s == d) continue;
      for (apple::traffic::ChainId c = 0; c < chains; ++c, ++k) {
        if (k % stride != 0) continue;
        TrafficClass cls;
        cls.src = s;
        cls.dst = d;
        cls.chain_id = c;
        cls.rate_mbps = 0.1 + static_cast<double>(k % 17);
        out.push_back(cls);
      }
    }
  }
  return out;
}

bool same(const PolicyRequest& a, const PolicyRequest& b) {
  return a.kind == b.kind && a.src == b.src && a.dst == b.dst &&
         a.chain_id == b.chain_id && a.rate_mbps == b.rate_mbps;
}

TEST(PolicyStream, SameSeedSameTrace) {
  const auto live = population(79, 32, 20);
  PolicyStreamGenerator a(7, live, 79, 32);
  PolicyStreamGenerator b(7, live, 79, 32);
  PolicyStreamGenerator c(8, live, 79, 32);
  bool differs = false;
  for (int i = 0; i < 5000; ++i) {
    const PolicyRequest ra = a.next();
    ASSERT_TRUE(same(ra, b.next())) << "request " << i;
    differs = differs || !same(ra, c.next());
  }
  EXPECT_TRUE(differs);
}

TEST(PolicyStream, MixAndPopulationStayNearBringUp) {
  const auto live = population(79, 32, 20);
  PolicyStreamGenerator gen(3, live, 79, 32);
  std::size_t adds = 0, removes = 0, modifies = 0;
  const std::size_t n = 600 * 64;
  for (std::size_t i = 0; i < n; ++i) {
    const PolicyRequest r = gen.next();
    ASSERT_NE(r.src, r.dst);
    ASSERT_LT(r.chain_id, 32u);
    switch (r.kind) {
      case PolicyRequest::Kind::kAdd:
        ++adds;
        break;
      case PolicyRequest::Kind::kRemove:
        ++removes;
        break;
      case PolicyRequest::Kind::kModify:
        ++modifies;
        ASSERT_GT(r.rate_mbps, 0.0);
        break;
    }
  }
  EXPECT_NEAR(static_cast<double>(modifies) / n, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(adds) / n, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(removes) / n, 0.2, 0.02);
  const double drift = (static_cast<double>(gen.live_size()) -
                        static_cast<double>(live.size())) /
                       static_cast<double>(live.size());
  EXPECT_LT(std::abs(drift), 0.05);
}

TEST(PolicyStream, AddsAreAbsentAndRemovesAreLive) {
  const auto live = population(12, 4, 3);
  PolicyStreamGenerator gen(11, live, 12, 4);
  std::set<ClassKey> keys;
  for (const TrafficClass& cls : live) keys.insert({cls.src, cls.dst, cls.chain_id});
  for (int i = 0; i < 2000; ++i) {
    const PolicyRequest r = gen.next();
    const ClassKey key{r.src, r.dst, r.chain_id};
    if (r.kind == PolicyRequest::Kind::kAdd) {
      ASSERT_TRUE(keys.insert(key).second);
    } else {
      ASSERT_EQ(keys.count(key), 1u);
      if (r.kind == PolicyRequest::Kind::kRemove) keys.erase(key);
    }
  }
  EXPECT_EQ(keys.size(), gen.live_size());
}

TEST(FoldOutcome, MatchesTheControllerFoldRules) {
  std::vector<TrafficClass> live(2);
  live[0].src = 0, live[0].dst = 1, live[0].chain_id = 0, live[0].rate_mbps = 5;
  live[1].src = 0, live[1].dst = 2, live[1].chain_id = 1, live[1].rate_mbps = 7;
  const auto req = [](PolicyRequest::Kind kind, apple::net::NodeId s,
                      apple::net::NodeId d, apple::traffic::ChainId c,
                      double rate) {
    PolicyRequest r;
    r.kind = kind;
    r.src = s;
    r.dst = d;
    r.chain_id = c;
    r.rate_mbps = rate;
    return r;
  };
  using K = PolicyRequest::Kind;
  const std::vector<PolicyRequest> requests = {
      req(K::kModify, 0, 1, 0, 5),  // same rate: no-op
      req(K::kModify, 0, 2, 1, 9),  // applied
      req(K::kModify, 1, 2, 0, 9),  // unknown key: dropped
      req(K::kAdd, 3, 4, 0, 1),     // routable: applied
      req(K::kAdd, 4, 3, 0, 1),     // unroutable: dropped
      req(K::kRemove, 5, 6, 0, 0),  // absent: dropped
  };
  const FoldCount fold = fold_outcome(
      live, requests, [](apple::net::NodeId s, apple::net::NodeId) {
        return s == 3;
      });
  EXPECT_EQ(fold.applied, 2u);
  EXPECT_EQ(fold.dropped, 4u);
  const std::vector<PolicyRequest> remove = {req(K::kRemove, 0, 1, 0, 0)};
  EXPECT_EQ(fold_outcome(live, remove, [](auto, auto) { return true; }).applied,
            1u);
}

}  // namespace
}  // namespace perfbench
