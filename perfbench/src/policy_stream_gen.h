// The policy-stream client: a seeded generator of add / modify / remove
// requests over a live class population, and the benchmark's own replay of
// the controller's batch fold (used to tell dirty domains from clean ones
// when counting failed requests).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "ctrl/admission.h"
#include "traffic/flow_classes.h"

namespace perfbench {

using ClassKey =
    std::tuple<apple::net::NodeId, apple::net::NodeId, apple::traffic::ChainId>;

// Request mix in percent; the rest are removes of a live key.
inline constexpr unsigned kModifyPercent = 60;
inline constexpr unsigned kAddPercent = 20;

// Closed-loop client of one request stream. It keeps its own view of the
// live (src, dst, chain) population: modifies and removes pick a live key,
// adds pick an absent one, and every new rate is the rate of a randomly
// drawn live class, so the rate distribution stays the bring-up one. The
// stream is a pure function of (seed, initial population, sizes).
class PolicyStreamGenerator {
 public:
  PolicyStreamGenerator(std::uint64_t seed,
                        std::span<const apple::traffic::TrafficClass> live,
                        std::size_t num_nodes, std::size_t num_chains);

  apple::ctrl::PolicyRequest next();

  std::size_t live_size() const { return keys_.size(); }

 private:
  std::uint64_t draw(std::uint64_t bound);  // uniform in [0, bound)
  double draw_rate();
  void insert(const ClassKey& key, double rate);
  void erase_at(std::size_t index);

  std::uint64_t state_;
  std::size_t num_nodes_;
  std::size_t num_chains_;
  std::vector<ClassKey> keys_;  // live keys, random-access for draws
  std::vector<double> rates_;   // aligned with keys_
  std::map<ClassKey, std::size_t> index_;
};

// How a batch's requests for one domain fold into its live class set:
// requests that change it and requests that are no-ops. `live` is the
// domain's class list before the batch, in (src, dst, chain) order as the
// controller keeps it (std::logic_error otherwise); `requests` hold at most
// one request per key (the admission queue coalesces).
struct FoldCount {
  std::size_t applied = 0;
  std::size_t dropped = 0;
};

FoldCount fold_outcome(
    std::span<const apple::traffic::TrafficClass> live,
    std::span<const apple::ctrl::PolicyRequest> requests,
    const std::function<bool(apple::net::NodeId, apple::net::NodeId)>&
        routable);

}  // namespace perfbench
