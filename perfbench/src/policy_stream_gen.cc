#include "policy_stream_gen.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

using apple::ctrl::PolicyRequest;
using apple::traffic::TrafficClass;

ClassKey key_of(const TrafficClass& cls) {
  return {cls.src, cls.dst, cls.chain_id};
}

}  // namespace

PolicyStreamGenerator::PolicyStreamGenerator(
    std::uint64_t seed, std::span<const TrafficClass> live,
    std::size_t num_nodes, std::size_t num_chains)
    : state_(seed), num_nodes_(num_nodes), num_chains_(num_chains) {
  if (live.empty() || num_nodes < 2 || num_chains == 0) {
    throw std::invalid_argument("policy stream needs a live population");
  }
  for (const TrafficClass& cls : live) insert(key_of(cls), cls.rate_mbps);
}

std::uint64_t PolicyStreamGenerator::draw(std::uint64_t bound) {
  // SplitMix64 step: deterministic on every platform, unlike the standard
  // distributions.
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state_;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x % bound;
}

double PolicyStreamGenerator::draw_rate() { return rates_[draw(rates_.size())]; }

void PolicyStreamGenerator::insert(const ClassKey& key, double rate) {
  if (index_.emplace(key, keys_.size()).second) {
    keys_.push_back(key);
    rates_.push_back(rate);
  }
}

void PolicyStreamGenerator::erase_at(std::size_t index) {
  index_.erase(keys_[index]);
  const std::size_t last = keys_.size() - 1;
  if (index != last) {
    keys_[index] = keys_[last];
    rates_[index] = rates_[last];
    index_[keys_[index]] = index;
  }
  keys_.pop_back();
  rates_.pop_back();
}

PolicyRequest PolicyStreamGenerator::next() {
  PolicyRequest r;
  const std::uint64_t roll = draw(100);
  if (roll < kModifyPercent || keys_.size() <= 1) {
    const std::size_t i = draw(keys_.size());
    r.kind = PolicyRequest::Kind::kModify;
    std::tie(r.src, r.dst, r.chain_id) = keys_[i];
    r.rate_mbps = draw_rate();
    rates_[i] = r.rate_mbps;
  } else if (roll < kModifyPercent + kAddPercent) {
    ClassKey key;
    do {
      const auto src = static_cast<apple::net::NodeId>(draw(num_nodes_));
      auto dst = static_cast<apple::net::NodeId>(draw(num_nodes_ - 1));
      if (dst >= src) ++dst;
      key = {src, dst, static_cast<apple::traffic::ChainId>(draw(num_chains_))};
    } while (index_.count(key) != 0);
    r.kind = PolicyRequest::Kind::kAdd;
    std::tie(r.src, r.dst, r.chain_id) = key;
    r.rate_mbps = draw_rate();
    insert(key, r.rate_mbps);
  } else {
    const std::size_t i = draw(keys_.size());
    r.kind = PolicyRequest::Kind::kRemove;
    std::tie(r.src, r.dst, r.chain_id) = keys_[i];
    erase_at(i);
  }
  return r;
}

FoldCount fold_outcome(
    std::span<const TrafficClass> live, std::span<const PolicyRequest> requests,
    const std::function<bool(apple::net::NodeId, apple::net::NodeId)>&
        routable) {
  const auto by_key = [](const TrafficClass& a, const TrafficClass& b) {
    return key_of(a) < key_of(b);
  };
  // The controller keeps every domain's classes in key order.
  if (!std::is_sorted(live.begin(), live.end(), by_key)) {
    throw std::logic_error("domain classes are not in key order");
  }
  FoldCount out;
  for (const PolicyRequest& r : requests) {
    const ClassKey key{r.src, r.dst, r.chain_id};
    const auto it = std::lower_bound(
        live.begin(), live.end(), key,
        [](const TrafficClass& cls, const ClassKey& k) { return key_of(cls) < k; });
    const bool present = it != live.end() && key_of(*it) == key;
    bool changes = false;
    switch (r.kind) {
      case PolicyRequest::Kind::kAdd:
        changes = present ? it->rate_mbps != r.rate_mbps : routable(r.src, r.dst);
        break;
      case PolicyRequest::Kind::kModify:
        changes = present && it->rate_mbps != r.rate_mbps;
        break;
      case PolicyRequest::Kind::kRemove:
        changes = present;
        break;
    }
    ++(changes ? out.applied : out.dropped);
  }
  return out;
}

}  // namespace perfbench
