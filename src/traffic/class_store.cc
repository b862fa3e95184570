#include "traffic/class_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"

namespace apple::traffic {

namespace {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

inline std::uint64_t rate_bits(double rate) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(rate));
  std::memcpy(&bits, &rate, sizeof(bits));
  return bits;
}

// Runs body(i) for every i in [0, count): on the pool when given one,
// serially otherwise. Both produce identical results because every body
// writes only slot i's output.
void for_each_index(std::size_t count, exec::ThreadPool* pool,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    exec::parallel_for(*pool, 0, count, body);
  } else {
    for (std::size_t i = 0; i < count; ++i) body(i);
  }
}

}  // namespace

PathId PathPool::intern(net::NodeId src, net::NodeId dst,
                        const net::Path& path) {
  const auto [it, inserted] =
      by_od_.emplace(std::make_pair(src, dst),
                     static_cast<PathId>(spans_.size()));
  if (!inserted) return it->second;
  PathSpan span;
  span.offset = static_cast<std::uint32_t>(arena_.size());
  span.length = static_cast<std::uint32_t>(path.size());
  std::uint64_t h = kFnvOffset;
  for (const net::NodeId v : path) h = fnv_step(h, v);
  span.hash = h;
  arena_.insert(arena_.end(), path.begin(), path.end());
  spans_.push_back(span);
  return it->second;
}

PathId PathPool::find(net::NodeId src, net::NodeId dst) const {
  const auto it = by_od_.find({src, dst});
  return it == by_od_.end() ? kNoPathId : it->second;
}

std::span<const net::NodeId> PathPool::nodes(PathId id) const {
  APPLE_CHECK_LT(id, spans_.size());
  const PathSpan& s = spans_[id];
  return {arena_.data() + s.offset, s.length};
}

std::uint64_t PathPool::content_hash(PathId id) const {
  APPLE_CHECK_LT(id, spans_.size());
  return spans_[id].hash;
}

double ClassStore::total_rate() const {
  double sum = 0.0;
  for (const Shard& sh : shards_) {
    for (const double r : sh.rates) sum += r;
  }
  return sum;
}

std::uint64_t ClassStore::shard_fingerprint(std::size_t s) const {
  const Shard& sh = shards_[s];
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < sh.size(); ++i) {
    h = fnv_step(h, sh.srcs[i]);
    h = fnv_step(h, sh.dsts[i]);
    h = fnv_step(h, sh.chains[i]);
    h = fnv_step(h, paths_.content_hash(sh.paths[i]));
    h = fnv_step(h, rate_bits(sh.rates[i]));
  }
  return h;
}

std::uint64_t ClassStore::fingerprint() const {
  std::uint64_t h = fnv_step(kFnvOffset, shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    h = fnv_step(h, shard_fingerprint(s));
    for (const ClassId id : shards_[s].ids) h = fnv_step(h, id);
  }
  return h;
}

std::vector<TrafficClass> ClassStore::materialize_view() const {
  std::vector<TrafficClass> view(total_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    const std::size_t offset = offsets_[s];
    for (std::size_t i = 0; i < sh.size(); ++i) {
      TrafficClass& cls = view[offset + i];
      cls.id = sh.ids[i];
      cls.src = sh.srcs[i];
      cls.dst = sh.dsts[i];
      cls.chain_id = sh.chains[i];
      cls.rate_mbps = sh.rates[i];
      const std::span<const net::NodeId> nodes = paths_.nodes(sh.paths[i]);
      cls.path.assign(nodes.begin(), nodes.end());
    }
  }
  return view;
}

ClassStore build_class_store(const net::Topology& topo,
                             const net::AllPairsPaths& routing,
                             const TrafficMatrix& tm,
                             const ChainAssignment& chains_for,
                             const StoreBuildOptions& options) {
  APPLE_OBS_SPAN("traffic.store.build");
  if (tm.size() != topo.num_nodes()) {
    throw std::invalid_argument("traffic matrix size != topology size");
  }
  if (options.num_shards == 0) {
    throw std::invalid_argument("need at least one shard");
  }
  const std::size_t n = topo.num_nodes();
  const double min_rate = options.min_rate_mbps;

  // Phase 1 — the OD scan, fanned out over source rows: demand filtering,
  // assignment lookup, path resolution and the shard hash are the per-pair
  // work. Each row writes only its own slot, so the fan-out is
  // worker-count-invariant.
  struct OdEntry {
    net::NodeId dst = net::kInvalidNode;
    std::uint32_t shard = 0;
    PathId path_id = kNoPathId;  // assigned by the serial intern pass
    double demand = 0.0;
    ChainMix mix;
    net::Path path;
  };
  std::vector<std::vector<OdEntry>> rows(n);
  const auto scan_row = [&](std::size_t row) {
    const net::NodeId s = static_cast<net::NodeId>(row);
    std::vector<OdEntry>& out = rows[row];
    for (net::NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const double demand = tm.at(s, d);
      if (demand < min_rate) continue;
      ChainMix mix = chains_for(s, d);
      bool usable = false;
      for (const auto& [chain, share] : mix) {
        if (demand * share >= min_rate) {
          usable = true;
          break;
        }
      }
      if (!usable) continue;
      auto path = routing.path(s, d);
      if (!path) continue;  // unreachable OD pair carries no traffic
      OdEntry entry;
      entry.dst = d;
      entry.shard = static_cast<std::uint32_t>(
          ClassStore::shard_of(s, d, options.num_shards));
      entry.demand = demand;
      entry.mix = std::move(mix);
      entry.path = std::move(*path);
      out.push_back(std::move(entry));
    }
  };
  for_each_index(n, options.pool, scan_row);

  // Phase 2a — serial path interning in scan order (one intern per OD
  // pair; cheap relative to the class appends below).
  ClassStore store;
  store.shards_.resize(options.num_shards);
  for (net::NodeId s = 0; s < n; ++s) {
    for (OdEntry& entry : rows[s]) {
      entry.path_id = store.paths_.intern(s, entry.dst, entry.path);
    }
  }

  // Phase 2b — per-shard class assembly, fanned out over shards: shard s
  // walks every row's entries in scan order and appends only its own
  // OD pairs, so within a shard the append order is the global
  // (src, dst, chain) scan order restricted to that shard — the store's
  // stable iteration order — for every worker count.
  const auto fill_shard = [&](std::size_t shard) {
    ClassStore::Shard& sh = store.shards_[shard];
    for (net::NodeId s = 0; s < n; ++s) {
      for (const OdEntry& entry : rows[s]) {
        if (entry.shard != shard) continue;
        for (const auto& [chain, share] : entry.mix) {
          const double rate = entry.demand * share;
          if (rate < min_rate) continue;
          sh.ids.push_back(0);  // assigned below, once offsets are known
          sh.srcs.push_back(s);
          sh.dsts.push_back(entry.dst);
          sh.chains.push_back(chain);
          sh.paths.push_back(entry.path_id);
          sh.rates.push_back(rate);
        }
      }
    }
  };
  for_each_index(options.num_shards, options.pool, fill_shard);

  // Phase 3 — shard offsets, then dense ids along the stable iteration
  // order (per-shard fill, embarrassingly parallel).
  store.offsets_.resize(options.num_shards + 1, 0);
  for (std::size_t sh = 0; sh < options.num_shards; ++sh) {
    store.offsets_[sh + 1] = store.offsets_[sh] + store.shards_[sh].size();
  }
  store.total_ = store.offsets_[options.num_shards];
  const auto fill_ids = [&](std::size_t sh) {
    ClassStore::Shard& shard = store.shards_[sh];
    const std::size_t offset = store.offsets_[sh];
    for (std::size_t i = 0; i < shard.size(); ++i) {
      shard.ids[i] = static_cast<ClassId>(offset + i);
    }
  };
  for_each_index(options.num_shards, options.pool, fill_ids);

  APPLE_OBS_COUNT_N("traffic.classes.built", store.total_);
  APPLE_OBS_COUNT_N("traffic.store.paths_interned", store.paths_.size());
  return store;
}

ClassStore build_class_store(std::span<const TrafficClass> classes) {
  APPLE_OBS_SPAN("traffic.store.build");
  ClassStore store;
  store.shards_.resize(1);
  ClassStore::Shard& sh = store.shards_[0];
  sh.ids.reserve(classes.size());
  sh.srcs.reserve(classes.size());
  sh.dsts.reserve(classes.size());
  sh.chains.reserve(classes.size());
  sh.paths.reserve(classes.size());
  sh.rates.reserve(classes.size());
  PathId path_id = kNoPathId;  // the current pair's interned path
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const TrafficClass& cls = classes[i];
    const bool new_pair = i == 0 || cls.src != classes[i - 1].src ||
                          cls.dst != classes[i - 1].dst;
    if (new_pair) {
      if (i > 0 && std::pair(cls.src, cls.dst) <
                       std::pair(classes[i - 1].src, classes[i - 1].dst)) {
        throw std::invalid_argument(
            "build_class_store: (src, dst) order descends");
      }
      path_id = store.paths_.intern(cls.src, cls.dst, cls.path);
    } else {
      const std::span<const net::NodeId> interned = store.paths_.nodes(path_id);
      if (!std::equal(interned.begin(), interned.end(), cls.path.begin(),
                      cls.path.end())) {
        throw std::invalid_argument(
            "build_class_store: one (src, dst) pair carries two paths");
      }
    }
    sh.ids.push_back(cls.id);
    sh.srcs.push_back(cls.src);
    sh.dsts.push_back(cls.dst);
    sh.chains.push_back(cls.chain_id);
    sh.paths.push_back(path_id);
    sh.rates.push_back(cls.rate_mbps);
  }
  store.offsets_ = {0, classes.size()};
  store.total_ = classes.size();
  APPLE_OBS_COUNT_N("traffic.store.paths_interned", store.paths_.size());
  return store;
}

void update_rates(ClassStore& store, const TrafficMatrix& tm,
                  const ChainAssignment& chains_for) {
  APPLE_OBS_SPAN("traffic.store.update_rates");
  for (ClassStore::Shard& sh : store.shards_) {
    // Shards iterate in ascending (src, dst) order, so one pair's
    // classes are consecutive: a last-pair memo gives exactly one
    // assignment lookup per OD pair.
    constexpr std::uint64_t kNoPair = ~0ULL;
    std::uint64_t last_key = kNoPair;
    ChainMix mix;
    double demand = 0.0;
    for (std::size_t i = 0; i < sh.size(); ++i) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(sh.srcs[i]) << 32) | sh.dsts[i];
      if (key != last_key) {
        mix = chains_for(sh.srcs[i], sh.dsts[i]);
        demand = tm.at(sh.srcs[i], sh.dsts[i]);
        last_key = key;
      }
      double share = 0.0;
      for (const auto& [chain, sshare] : mix) {
        if (chain == sh.chains[i]) share += sshare;
      }
      sh.rates[i] = demand * share;
    }
  }
}

}  // namespace apple::traffic
