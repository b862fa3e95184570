// Sharded, arena-backed SoA store for traffic equivalence classes — the
// only class container of the control loop (DESIGN.md Sec. 15): every
// epoch carries one, and the engine reads its materialized view.
//
// Layout:
//  * Classes live in `num_shards` shards, partitioned deterministically by
//    a SplitMix64 hash of the (ingress, egress) pair — every class of one
//    OD pair lands in one shard, so incremental diffs can skip shards whose
//    traffic did not move (core::diff_classes).
//  * Each shard is structure-of-arrays: ids / srcs / dsts / chain ids /
//    path ids / rates in parallel vectors, so re-rating and diffing scan
//    dense homogeneous arrays instead of striding over an AoS struct with
//    an embedded heap-allocated path.
//  * Forwarding paths are interned once per (src, dst) into a shared
//    PathPool whose node lists sit back-to-back in one arena vector —
//    classes of the same pair share one PathId instead of owning a
//    std::vector<NodeId> copy each.
//
// Two builders: the traffic-matrix build below, and a one-shard build over
// an explicit class list that keeps the list's order and ids (the
// multi-domain controller's per-domain stores; small hand-built cases).
//
// Determinism contract: the store's iteration order — shard 0..S-1, within
// a shard ascending (src, dst) scan order with one pair's classes in its
// chain mix's order — and the dense class ids assigned along it are a pure
// function of (topology, matrix, assignment, options.num_shards). On a
// pool the matrix build fans the OD scan and the per-shard assembly out
// over exec::parallel_for with per-slot output buffers merged in
// deterministic order, so the result is byte-identical to the serial build
// for every pool width (gated by bench_class_scale across {1,2,4,8}).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "net/routing.h"
#include "net/topology.h"
#include "traffic/flow_classes.h"
#include "traffic/traffic_matrix.h"

namespace apple::exec {
class ThreadPool;
}  // namespace apple::exec

namespace apple::traffic {

using PathId = std::uint32_t;
inline constexpr PathId kNoPathId = static_cast<PathId>(-1);

// Interned forwarding paths, keyed by (src, dst): one node-list copy per OD
// pair regardless of how many classes ride it, stored contiguously in one
// arena. Interning is serial by design (the build's OD scan interns in
// deterministic scan order); reads are safe from any thread once built.
class PathPool {
 public:
  // Interns `path` under (src, dst); repeated interning of a pair returns
  // the existing id (the path argument is then ignored — routes are fixed
  // within one build).
  PathId intern(net::NodeId src, net::NodeId dst, const net::Path& path);

  // Id interned for (src, dst), or kNoPathId.
  PathId find(net::NodeId src, net::NodeId dst) const;

  std::span<const net::NodeId> nodes(PathId id) const;
  // Order-sensitive hash of the node list; equal across pools that interned
  // the same path under different ids (used by shard fingerprints).
  std::uint64_t content_hash(PathId id) const;

  std::size_t size() const { return spans_.size(); }
  std::size_t arena_nodes() const { return arena_.size(); }

 private:
  struct PathSpan {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
    std::uint64_t hash = 0;
  };
  std::vector<net::NodeId> arena_;  // all node lists, back to back
  std::vector<PathSpan> spans_;     // indexed by PathId
  // std::map keeps lookups deterministic-order-free of hashing concerns and
  // the pair count is bounded by n^2.
  std::map<std::pair<net::NodeId, net::NodeId>, PathId> by_od_;
};

struct StoreBuildOptions {
  // Shard count of the resulting store. Part of the store's identity: two
  // stores are only diffable shard-against-shard when their counts match.
  std::size_t num_shards = 64;
  // Optional external pool to run on (e.g. the bench's long-lived pool, so
  // thread spawn cost stays out of the measured section). The build then
  // uses pool->num_threads() + 1 lanes; null builds serially.
  exec::ThreadPool* pool = nullptr;
  // OD pairs (and per-chain class rates) below this are dropped, matching
  // build_classes.
  double min_rate_mbps = 1e-6;
};

// The sharded class container. Build with build_class_store; mutate only
// via update_rates (re-rating) and set_id (the epoch pipeline's id
// carry-over) so the layout invariants hold.
class ClassStore {
 public:
  struct Shard {
    std::vector<ClassId> ids;
    std::vector<net::NodeId> srcs;
    std::vector<net::NodeId> dsts;
    std::vector<ChainId> chains;
    std::vector<PathId> paths;
    std::vector<double> rates;

    std::size_t size() const { return ids.size(); }
  };

  ClassStore() = default;

  std::size_t num_shards() const { return shards_.size(); }
  const Shard& shard(std::size_t s) const { return shards_[s]; }
  // Global index of shard s's first class in the stable iteration order.
  std::size_t shard_offset(std::size_t s) const { return offsets_[s]; }
  std::size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  const PathPool& paths() const { return paths_; }
  double total_rate() const;

  // The deterministic shard partition: every class of one (ingress, egress)
  // pair lands in shard mix64(src, dst) % num_shards.
  static std::size_t shard_of(net::NodeId src, net::NodeId dst,
                              std::size_t num_shards) {
    return detail::mix64((static_cast<std::uint64_t>(src) << 32) | dst) %
           num_shards;
  }

  // Content fingerprint of one shard over (src, dst, chain, path nodes,
  // rate bits) — ids excluded, so a shard whose classes carried over ids
  // from an earlier epoch still fingerprints equal to a freshly built one
  // (the clean-shard fast path of the store diff).
  std::uint64_t shard_fingerprint(std::size_t s) const;
  // Whole-store fingerprint including ids — the byte-identity gate of
  // bench_class_scale and the serial-vs-parallel tests.
  std::uint64_t fingerprint() const;

  // Flat AoS view in stable iteration order (span-of-struct for
  // PlacementInput and the other engine stages); paths are materialized as
  // owned copies.
  std::vector<TrafficClass> materialize_view() const;

  // Rewrites one class id (epoch pipeline id carry-over: survivors keep
  // their previous epoch's id, added classes take fresh ones).
  void set_id(std::size_t shard, std::size_t index, ClassId id) {
    shards_[shard].ids[index] = id;
  }

 private:
  friend ClassStore build_class_store(const net::Topology& topo,
                                      const net::AllPairsPaths& routing,
                                      const TrafficMatrix& tm,
                                      const ChainAssignment& chains_for,
                                      const StoreBuildOptions& options);
  friend ClassStore build_class_store(std::span<const TrafficClass> classes);
  friend void update_rates(ClassStore& store, const TrafficMatrix& tm,
                           const ChainAssignment& chains_for);

  std::vector<Shard> shards_;
  std::vector<std::size_t> offsets_;  // shards_.size() + 1 prefix sums
  std::size_t total_ = 0;
  PathPool paths_;
};

// Builds the sharded store from a traffic matrix: same class semantics as
// build_classes (OD scan, min-rate filtering, unreachable pairs skipped),
// different canonical order — shard-major instead of row-major — with dense
// ids assigned along the stable iteration order. `chains_for` must be safe
// to call concurrently when `options.pool` is set.
ClassStore build_class_store(const net::Topology& topo,
                             const net::AllPairsPaths& routing,
                             const TrafficMatrix& tm,
                             const ChainAssignment& chains_for,
                             const StoreBuildOptions& options = {});

// One-shard store over an explicit class list, e.g. a multi-domain
// controller's key-sorted domain slice or a hand-built test case: the
// classes keep their given order and ids, and each (src, dst) pair's path
// is interned once. Throws std::invalid_argument when the (src, dst) order
// ever descends (the store diff merges ascending pair runs) or when one
// pair carries two different paths. Counts nothing in
// traffic.classes.built: the classes were built elsewhere.
ClassStore build_class_store(std::span<const TrafficClass> classes);

// Re-rates the store in place against a different snapshot (ids, paths,
// chains and order preserved), one assignment lookup per OD pair. A class
// whose chain left its pair's mix is re-rated to 0, never dropped.
void update_rates(ClassStore& store, const TrafficMatrix& tm,
                  const ChainAssignment& chains_for);

}  // namespace apple::traffic
