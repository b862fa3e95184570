#include "net/routing.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "obs/obs.h"

namespace apple::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ShortestPathTree::ShortestPathTree(const Topology& topo, NodeId source)
    : source_(source),
      dist_(topo.num_nodes(), kInf),
      prev_(topo.num_nodes(), kInvalidNode) {
  if (source >= topo.num_nodes()) {
    throw std::out_of_range("source node does not exist");
  }
  dist_[source] = 0.0;
  using Entry = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist_[u]) continue;  // stale entry
    for (LinkId l : topo.incident_links(u)) {
      const Link& link = topo.link(l);
      if (!link.up) continue;  // failed links carry no routes
      const NodeId v = link.other(u);
      const double nd = d + link.weight;
      // Strict improvement, or equal distance with a lower-id predecessor:
      // the latter makes tie-breaking deterministic.
      if (nd < dist_[v] || (nd == dist_[v] && u < prev_[v])) {
        dist_[v] = nd;
        prev_[v] = u;
        heap.emplace(nd, v);
      }
    }
  }
}

bool ShortestPathTree::reachable(NodeId dst) const {
  return dst < dist_.size() && dist_[dst] < kInf;
}

std::optional<Path> ShortestPathTree::path_to(NodeId dst) const {
  if (!reachable(dst)) return std::nullopt;
  Path reversed;
  for (NodeId n = dst; n != kInvalidNode; n = prev_[n]) {
    reversed.push_back(n);
    if (n == source_) break;
  }
  std::reverse(reversed.begin(), reversed.end());
  if (reversed.front() != source_) return std::nullopt;
  return reversed;
}

AllPairsPaths::AllPairsPaths(const Topology& topo) {
  APPLE_OBS_SPAN("net.routing.all_pairs_build");
  trees_.reserve(topo.num_nodes());
  for (NodeId s = 0; s < topo.num_nodes(); ++s) trees_.emplace_back(topo, s);
  APPLE_OBS_COUNT_N("net.routing.trees_built", trees_.size());
}

std::optional<Path> AllPairsPaths::path(NodeId src, NodeId dst) const {
  return trees_.at(src).path_to(dst);
}

double AllPairsPaths::distance(NodeId src, NodeId dst) const {
  return trees_.at(src).distance(dst);
}

std::vector<NodeId> ecmp_node_union(const AllPairsPaths& paths,
                                    std::size_t num_nodes, NodeId src,
                                    NodeId dst) {
  std::vector<NodeId> out;
  const double total = paths.distance(src, dst);
  if (total == std::numeric_limits<double>::infinity()) return out;
  for (NodeId u = 0; u < num_nodes; ++u) {
    if (paths.distance(src, u) + paths.distance(u, dst) <= total + 1e-9) {
      out.push_back(u);
    }
  }
  return out;
}

std::size_t hop_count(const Path& path) {
  return path.empty() ? 0 : path.size() - 1;
}

bool path_alive(const Topology& topo, const Path& path) {
  if (path.empty()) return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (path[i - 1] >= topo.num_nodes() || path[i] >= topo.num_nodes()) {
      return false;
    }
    // The path is alive when SOME parallel up link joins each hop
    // (find_link returns the first match, which may be a down member of a
    // multigraph bundle).
    bool hop_alive = false;
    for (const LinkId l : topo.incident_links(path[i - 1])) {
      const Link& link = topo.link(l);
      if (link.up && link.other(path[i - 1]) == path[i]) {
        hop_alive = true;
        break;
      }
    }
    if (!hop_alive) return false;
  }
  return true;
}

bool is_valid_simple_path(const Topology& topo, const Path& path) {
  if (path.empty()) return false;
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] >= topo.num_nodes()) return false;
    if (!seen.insert(path[i]).second) return false;
    if (i > 0 && !topo.find_link(path[i - 1], path[i]).has_value()) {
      return false;
    }
  }
  return true;
}

}  // namespace apple::net
