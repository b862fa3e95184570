// Equivalence classes of traffic (paper Sec. IV-A).
//
// The Optimization Engine never reasons about individual flows: flows with
// the same forwarding path and the same policy chain are aggregated into an
// equivalence class h ∈ H. At traffic-matrix granularity a class is one
// (source, destination, chain) triple routed on the fixed shortest path;
// packet-level classification into these classes is done by the atomic
// predicate machinery in src/hsa.
//
// `TrafficClass` is one class as the engine reads it (PlacementInput spans
// them). The only class container is traffic::ClassStore
// (traffic/class_store.h); the flat `build_classes` below is the serial
// reference semantics of its matrix build and the input of callers that
// hand a class list to the multi-domain controller.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/inline_vector.h"
#include "net/routing.h"
#include "net/topology.h"
#include "traffic/traffic_matrix.h"

namespace apple::traffic {

using ClassId = std::uint32_t;
using ChainId = std::uint32_t;

namespace detail {

// SplitMix64: small, deterministic, well-mixed integer hash. Shared by the
// chain assignments below and ClassStore's shard partition — both must be a
// pure function of their inputs (DESIGN.md Sec. 15 determinism contract).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace detail

// One equivalence class h: all flows sharing `path` and `chain_id`.
struct TrafficClass {
  ClassId id = 0;
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;
  net::Path path;        // P_h = <p_h^i>, ingress first
  ChainId chain_id = 0;  // index into the policy-chain catalog
  double rate_mbps = 0;  // T_h
};

// The (chain, traffic share) mix of one OD pair. The assignment is called
// for every OD pair of every build/update, and the common answers are "no
// policy" (empty) or a single chain, so neither may touch the heap. Mixes
// wider than the inline buffer spill to a vector (scale scenarios fan one
// pair out over many chains).
using ChainMix = common::InlineVector<std::pair<ChainId, double>, 4>;

// Returns the (chain, traffic share) mix for an OD pair; shares must sum to
// at most 1 (the remainder is unpolicied traffic APPLE ignores). Assignments
// must be pure functions of (src, dst): the parallel class build
// (traffic/class_store.h) calls them concurrently from pool workers.
using ChainAssignment =
    std::function<ChainMix(net::NodeId src, net::NodeId dst)>;

// Deterministic default assignment: a `policied_fraction` of OD pairs gets
// exactly one chain, chosen by hashing (src, dst) over `num_chains`
// templates; the rest carry no NF policy. Real networks police specific
// traffic subsets (paper Sec. IX-A synthesizes policies from middlebox
// case studies), so evaluation scenarios typically use a fraction < 1.
ChainAssignment uniform_chain_assignment(std::size_t num_chains,
                                         std::uint64_t seed = 0,
                                         double policied_fraction = 1.0);

// Scale-scenario assignment: each policied OD pair fans out over
// `chains_per_pair` distinct chains with equal shares (contiguous run of
// the catalog starting at a hashed offset). With chains_per_pair == 1 the
// shape matches uniform_chain_assignment (one chain, share 1), which is how
// AppleController drives both from one config knob. Used to synthesize
// 100k+ class workloads on AS-scale topologies (bench_class_scale,
// apple_cli --scale-classes).
ChainAssignment scaled_chain_assignment(std::size_t num_chains,
                                        std::size_t chains_per_pair,
                                        std::uint64_t seed = 0,
                                        double policied_fraction = 1.0);

// Builds equivalence classes from a traffic matrix. OD pairs whose demand is
// below `min_rate_mbps` are dropped (they would round to zero instances
// anyway and only inflate the ILP).
std::vector<TrafficClass> build_classes(const net::Topology& topo,
                                        const net::AllPairsPaths& routing,
                                        const TrafficMatrix& tm,
                                        const ChainAssignment& chains_for,
                                        double min_rate_mbps = 1e-6);

// Total policied demand over all classes.
double total_rate(std::span<const TrafficClass> classes);

}  // namespace apple::traffic
