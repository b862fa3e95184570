#include "traffic/class_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "obs/metrics.h"
#include "traffic/flow_classes.h"
#include "traffic/synthesis.h"

namespace apple::traffic {
namespace {

TrafficMatrix gravity_for(const net::Topology& topo, double total = 2000.0) {
  return make_gravity_matrix(topo.num_nodes(), {.total_mbps = total, .seed = 3});
}

class ClassStoreTest : public ::testing::Test {
 protected:
  net::Topology topo_ = net::make_internet2();
  net::AllPairsPaths routing_{topo_};
  TrafficMatrix tm_ = gravity_for(topo_);
  ChainAssignment assign_ = uniform_chain_assignment(4, /*seed=*/7, 1.0);
};

TEST_F(ClassStoreTest, MatchesFlatBuildClassSet) {
  const ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  const auto flat = build_classes(topo_, routing_, tm_, assign_, 1e-6);
  ASSERT_EQ(store.size(), flat.size());

  // Same class set (different canonical order: shard-major vs row-major).
  const auto view = store.materialize_view();
  auto key = [](const TrafficClass& c) {
    return std::tuple(c.src, c.dst, c.chain_id, c.rate_mbps, c.path);
  };
  std::vector<decltype(key(flat[0]))> a, b;
  for (const auto& c : view) a.push_back(key(c));
  for (const auto& c : flat) b.push_back(key(c));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(ClassStoreTest, IdsAreDenseAlongIterationOrder) {
  const ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  const auto view = store.materialize_view();
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].id, static_cast<ClassId>(i));
  }
  // Offsets are the prefix sums of shard sizes.
  std::size_t running = 0;
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(store.shard_offset(s), running);
    running += store.shard(s).size();
  }
  EXPECT_EQ(running, store.size());
}

TEST_F(ClassStoreTest, EveryClassLandsInItsHashShard) {
  const ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    const ClassStore::Shard& sh = store.shard(s);
    for (std::size_t i = 0; i < sh.size(); ++i) {
      EXPECT_EQ(ClassStore::shard_of(sh.srcs[i], sh.dsts[i],
                                     store.num_shards()),
                s);
    }
  }
}

TEST_F(ClassStoreTest, WithinShardOrderIsScanOrder) {
  const ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    const ClassStore::Shard& sh = store.shard(s);
    for (std::size_t i = 1; i < sh.size(); ++i) {
      const auto prev = std::tuple(sh.srcs[i - 1], sh.dsts[i - 1],
                                   sh.chains[i - 1]);
      const auto cur = std::tuple(sh.srcs[i], sh.dsts[i], sh.chains[i]);
      EXPECT_LT(prev, cur);
    }
  }
}

TEST_F(ClassStoreTest, PathsInternOncePerOdPair) {
  const ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  std::set<std::pair<net::NodeId, net::NodeId>> pairs;
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    const ClassStore::Shard& sh = store.shard(s);
    for (std::size_t i = 0; i < sh.size(); ++i) {
      pairs.emplace(sh.srcs[i], sh.dsts[i]);
      // The interned span is the routed path.
      const auto nodes = store.paths().nodes(sh.paths[i]);
      const auto want = routing_.path(sh.srcs[i], sh.dsts[i]);
      ASSERT_TRUE(want.has_value());
      EXPECT_TRUE(std::equal(nodes.begin(), nodes.end(), want->begin(),
                             want->end()));
    }
  }
  EXPECT_EQ(store.paths().size(), pairs.size());
}

TEST_F(ClassStoreTest, ParallelBuildIsByteIdenticalAcrossWorkerCounts) {
  const ClassStore serial = build_class_store(topo_, routing_, tm_, assign_);
  const std::uint64_t want = serial.fingerprint();
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    // A pool of w - 1 threads plus the calling thread: w lanes.
    exec::ThreadPool pool(workers - 1);
    StoreBuildOptions opt;
    opt.pool = &pool;
    const ClassStore store =
        build_class_store(topo_, routing_, tm_, assign_, opt);
    EXPECT_EQ(store.fingerprint(), want) << workers << " workers";
    // Field-level identity, not just hash equality.
    for (std::size_t s = 0; s < store.num_shards(); ++s) {
      EXPECT_EQ(store.shard(s).ids, serial.shard(s).ids);
      EXPECT_EQ(store.shard(s).srcs, serial.shard(s).srcs);
      EXPECT_EQ(store.shard(s).dsts, serial.shard(s).dsts);
      EXPECT_EQ(store.shard(s).chains, serial.shard(s).chains);
      EXPECT_EQ(store.shard(s).paths, serial.shard(s).paths);
      EXPECT_EQ(store.shard(s).rates, serial.shard(s).rates);
    }
  }
}

TEST_F(ClassStoreTest, ExternalPoolBuildMatchesSerial) {
  const ClassStore serial = build_class_store(topo_, routing_, tm_, assign_);
  exec::ThreadPool pool(3);
  StoreBuildOptions opt;
  opt.pool = &pool;
  const ClassStore pooled =
      build_class_store(topo_, routing_, tm_, assign_, opt);
  EXPECT_EQ(pooled.fingerprint(), serial.fingerprint());
  const auto serial_view = serial.materialize_view();
  const auto pooled_view = pooled.materialize_view();
  ASSERT_EQ(serial_view.size(), pooled_view.size());
  for (std::size_t i = 0; i < serial_view.size(); ++i) {
    EXPECT_EQ(serial_view[i].id, pooled_view[i].id);
    EXPECT_EQ(serial_view[i].path, pooled_view[i].path);
  }
}

TEST_F(ClassStoreTest, PoliciedFractionZeroYieldsEmptyStore) {
  const ChainAssignment none = uniform_chain_assignment(4, 7, 0.0);
  const ClassStore store = build_class_store(topo_, routing_, tm_, none);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.paths().size(), 0u);
  EXPECT_EQ(store.total_rate(), 0.0);
}

TEST_F(ClassStoreTest, PoliciedFractionOneCoversEveryDemandedPair) {
  const ChainAssignment all = uniform_chain_assignment(4, 7, 1.0);
  const ClassStore store = build_class_store(topo_, routing_, tm_, all);
  std::size_t demanded = 0;
  for (net::NodeId s = 0; s < topo_.num_nodes(); ++s) {
    for (net::NodeId d = 0; d < topo_.num_nodes(); ++d) {
      if (s != d && tm_.at(s, d) >= 1e-6) ++demanded;
    }
  }
  EXPECT_EQ(store.size(), demanded);  // one chain per pair
}

TEST_F(ClassStoreTest, MinRateBoundaryIsInclusive) {
  net::Topology topo = net::make_line(2);
  const net::AllPairsPaths routing(topo);
  TrafficMatrix tm(2);
  tm.set(0, 1, 5.0);
  tm.set(1, 0, 4.999);
  const ChainAssignment one = uniform_chain_assignment(1, 0, 1.0);
  StoreBuildOptions opt;
  opt.min_rate_mbps = 5.0;
  const ClassStore store = build_class_store(topo, routing, tm, one, opt);
  // Exactly-at-threshold survives; below does not.
  ASSERT_EQ(store.size(), 1u);
  const auto view = store.materialize_view();
  EXPECT_EQ(view[0].src, 0u);
  EXPECT_EQ(view[0].dst, 1u);
  EXPECT_DOUBLE_EQ(view[0].rate_mbps, 5.0);
}

TEST_F(ClassStoreTest, UnreachableOdPairsAreSkipped) {
  // Two disconnected line segments: (0,1) and (2,3) have paths, every
  // cross pair is unreachable.
  net::Topology topo("split");
  for (int i = 0; i < 4; ++i) topo.add_node("s" + std::to_string(i), 8.0);
  topo.add_link(0, 1);
  topo.add_link(2, 3);
  const net::AllPairsPaths routing(topo);
  TrafficMatrix tm(4);
  for (net::NodeId s = 0; s < 4; ++s) {
    for (net::NodeId d = 0; d < 4; ++d) {
      if (s != d) tm.set(s, d, 10.0);
    }
  }
  const ChainAssignment one = uniform_chain_assignment(1, 0, 1.0);
  const ClassStore store = build_class_store(topo, routing, tm, one);
  EXPECT_EQ(store.size(), 4u);  // 0<->1 and 2<->3 only
  const auto view = store.materialize_view();
  for (const TrafficClass& cls : view) {
    EXPECT_EQ(cls.src / 2, cls.dst / 2) << "crossed the partition";
  }
}

TEST_F(ClassStoreTest, UpdateRatesMatchesRebuildOnNewMatrix) {
  ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  TrafficMatrix moved = tm_;
  for (net::NodeId s = 0; s < topo_.num_nodes(); ++s) {
    for (net::NodeId d = 0; d < topo_.num_nodes(); ++d) {
      if (s != d) moved.set(s, d, tm_.at(s, d) * 1.25);
    }
  }
  update_rates(store, moved, assign_);
  const ClassStore rebuilt =
      build_class_store(topo_, routing_, moved, assign_);
  // Same classes, same rates (ids/chains/paths preserved by update_rates).
  ASSERT_EQ(store.size(), rebuilt.size());
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    EXPECT_EQ(store.shard(s).rates, rebuilt.shard(s).rates);
    EXPECT_EQ(store.shard_fingerprint(s), rebuilt.shard_fingerprint(s));
  }
}

TEST_F(ClassStoreTest, SetIdRewritesOneClass) {
  ClassStore store = build_class_store(topo_, routing_, tm_, assign_);
  ASSERT_GT(store.size(), 0u);
  std::size_t shard = 0;
  while (store.shard(shard).size() == 0) ++shard;
  const std::uint64_t before = store.shard_fingerprint(shard);
  store.set_id(shard, 0, 424242);
  EXPECT_EQ(store.shard(shard).ids[0], 424242u);
  // Ids are excluded from shard fingerprints (the diff's clean-shard probe
  // must survive epoch id carry-over).
  EXPECT_EQ(store.shard_fingerprint(shard), before);
}

TEST_F(ClassStoreTest, ShardCountIsConfigurable) {
  StoreBuildOptions opt;
  opt.num_shards = 7;
  const ClassStore store =
      build_class_store(topo_, routing_, tm_, assign_, opt);
  EXPECT_EQ(store.num_shards(), 7u);
  EXPECT_THROW(
      {
        StoreBuildOptions bad;
        bad.num_shards = 0;
        build_class_store(topo_, routing_, tm_, assign_, bad);
      },
      std::invalid_argument);
}

// The one-shard build over an explicit class list keeps the list's order
// and ids, whatever they are.
TEST_F(ClassStoreTest, OneShardBuildKeepsGivenOrderAndIds) {
  std::vector<TrafficClass> classes =
      build_classes(topo_, routing_, tm_, assign_);
  ASSERT_GT(classes.size(), 2u);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    classes[i].id = static_cast<ClassId>(1000 + 3 * (classes.size() - i));
  }
  const ClassStore store = build_class_store(classes);
  EXPECT_EQ(store.num_shards(), 1u);
  EXPECT_EQ(store.size(), classes.size());
  EXPECT_EQ(store.shard_offset(0), 0u);
  const auto view = store.materialize_view();
  ASSERT_EQ(view.size(), classes.size());
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].id, classes[i].id);
    EXPECT_EQ(view[i].src, classes[i].src);
    EXPECT_EQ(view[i].dst, classes[i].dst);
    EXPECT_EQ(view[i].chain_id, classes[i].chain_id);
    EXPECT_EQ(view[i].path, classes[i].path);
    EXPECT_EQ(view[i].rate_mbps, classes[i].rate_mbps);
  }
  EXPECT_TRUE(build_class_store(std::vector<TrafficClass>{}).empty());
}

// With one shard the matrix build is build_classes: same classes, same
// row-major order, same ids — and so is the one-shard build of that list.
TEST_F(ClassStoreTest, OneShardBuildOfBuildClassesMatchesOneShardMatrixBuild) {
  const ChainAssignment fan = scaled_chain_assignment(4, 3, 7, 1.0);
  const std::vector<TrafficClass> classes =
      build_classes(topo_, routing_, tm_, fan);
  const ClassStore from_list = build_class_store(classes);
  const ClassStore from_matrix =
      build_class_store(topo_, routing_, tm_, fan, {.num_shards = 1});
  EXPECT_EQ(from_list.fingerprint(), from_matrix.fingerprint());
  EXPECT_EQ(from_list.paths().size(), from_matrix.paths().size());
}

TEST_F(ClassStoreTest, OneShardBuildInternsEachPairsPathOnce) {
  // Three chains per pair: every pair's classes share one interned path.
  const ChainAssignment fan = scaled_chain_assignment(4, 3, 7, 1.0);
  const std::vector<TrafficClass> classes =
      build_classes(topo_, routing_, tm_, fan);
  std::set<std::pair<net::NodeId, net::NodeId>> pairs;
  for (const TrafficClass& cls : classes) pairs.emplace(cls.src, cls.dst);
  ASSERT_LT(pairs.size(), classes.size());

  const ClassStore store = build_class_store(classes);
  EXPECT_EQ(store.paths().size(), pairs.size());
  const ClassStore::Shard& sh = store.shard(0);
  for (std::size_t i = 0; i < sh.size(); ++i) {
    EXPECT_EQ(sh.paths[i], store.paths().find(sh.srcs[i], sh.dsts[i]));
    const auto nodes = store.paths().nodes(sh.paths[i]);
    EXPECT_TRUE(std::equal(nodes.begin(), nodes.end(),
                           classes[i].path.begin(), classes[i].path.end()));
  }
}

TEST(ClassStoreOneShardTest, ThrowsWhenThePairOrderDescends) {
  std::vector<TrafficClass> classes(2);
  classes[0] = {0, 1, 2, {1, 2}, 0, 10.0};
  classes[1] = {1, 0, 2, {0, 1, 2}, 0, 10.0};  // (0, 2) after (1, 2)
  EXPECT_THROW(build_class_store(classes), std::invalid_argument);
  // Equal pairs and ascending pairs are fine.
  std::swap(classes[0], classes[1]);
  EXPECT_EQ(build_class_store(classes).size(), 2u);
}

TEST(ClassStoreOneShardTest, ThrowsWhenOnePairCarriesTwoPaths) {
  std::vector<TrafficClass> classes(2);
  classes[0] = {0, 0, 2, {0, 1, 2}, 0, 10.0};
  classes[1] = {1, 0, 2, {0, 2}, 1, 10.0};  // same pair, another path
  EXPECT_THROW(build_class_store(classes), std::invalid_argument);
  classes[1].path = {0, 1, 2};
  EXPECT_EQ(build_class_store(classes).paths().size(), 1u);
}

TEST_F(ClassStoreTest, OneShardBuildCountsNoClassesBuilt) {
  const std::vector<TrafficClass> classes =
      build_classes(topo_, routing_, tm_, assign_);
  const obs::Counter& built =
      obs::default_registry().counter("traffic.classes.built");
  const std::uint64_t before = built.value();
  const ClassStore store = build_class_store(classes);
  EXPECT_EQ(store.size(), classes.size());
  EXPECT_EQ(built.value(), before);
}

// 100k-class parallel build on the AS-3679 scale scenario: the shard
// assembly races are exactly what tsan runs this suite for.
TEST(ClassStoreScaleTest, HundredThousandClassParallelBuildIsDeterministic) {
  const net::Topology topo = net::make_as3679();
  const net::AllPairsPaths routing(topo);
  const TrafficMatrix tm = make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 20000.0, .seed = 1});
  const ChainAssignment assign =
      scaled_chain_assignment(32, /*chains_per_pair=*/18, /*seed=*/0, 1.0);
  StoreBuildOptions opt;
  opt.num_shards = 64;
  const ClassStore serial = build_class_store(topo, routing, tm, assign, opt);
  EXPECT_GE(serial.size(), 100000u);
  exec::ThreadPool pool(7);  // 8 lanes
  StoreBuildOptions par = opt;
  par.pool = &pool;
  const ClassStore parallel =
      build_class_store(topo, routing, tm, assign, par);
  EXPECT_EQ(parallel.fingerprint(), serial.fingerprint());
}

}  // namespace
}  // namespace apple::traffic
