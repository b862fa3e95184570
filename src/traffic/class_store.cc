#include "traffic/class_store.h"

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

// Runs body(i) for every i in [0, count): serially, on an external pool, or
// on a freshly spawned pool of `num_workers` lanes. The three paths produce
// identical results because every body writes only slot i's output.
void for_each_index(std::size_t count, std::size_t num_workers,
                    exec::ThreadPool* pool,
                    const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    exec::parallel_for(*pool, 0, count, body);
  } else if (num_workers > 1) {
    exec::ThreadPool local(num_workers - 1);
    exec::parallel_for(local, 0, count, body);
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

std::vector<TrafficClass> ClassStore::materialize_view(
    exec::ThreadPool* pool) const {
  std::vector<TrafficClass> view(total_);
  const auto fill_shard = [&](std::size_t s) {
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
  };
  for_each_index(shards_.size(), 1, pool, fill_shard);
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
  for_each_index(n, options.num_workers, options.pool, scan_row);

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
  for_each_index(options.num_shards, options.num_workers, options.pool,
                 fill_shard);

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
  for_each_index(options.num_shards, options.num_workers, options.pool,
                 fill_ids);

  APPLE_OBS_COUNT_N("traffic.classes.built", store.total_);
  APPLE_OBS_COUNT_N("traffic.store.paths_interned", store.paths_.size());
  return store;
}

void RateAgingOptions::validate() const {
  if (!(decay >= 0.0 && decay <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("RateAgingOptions.decay must lie in [0, 1]");
  }
  if (!(min_class_rate_mbps >= 0.0) ||
      min_class_rate_mbps > 1e30) {  // also rejects NaN / inf
    throw std::invalid_argument(
        "RateAgingOptions.min_class_rate_mbps must be finite and >= 0");
  }
}

void update_rates(ClassStore& store, const TrafficMatrix& tm,
                  const ChainAssignment& chains_for, exec::ThreadPool* pool) {
  update_rates(store, tm, chains_for, RateAgingOptions{}, pool);
}

std::size_t update_rates(ClassStore& store, const TrafficMatrix& tm,
                         const ChainAssignment& chains_for,
                         const RateAgingOptions& aging,
                         exec::ThreadPool* pool) {
  APPLE_OBS_SPAN("traffic.store.update_rates");
  aging.validate();
  if (store.num_shards() == 0) return 0;
  const double decay = aging.decay;
  const double floor = aging.min_class_rate_mbps;
  // One eviction count per shard: every lane writes only its own slots, so
  // the fan-out is worker-count-invariant like the build's.
  std::vector<std::size_t> evicted(store.num_shards(), 0);
  const auto rerate_shard = [&](std::size_t s) {
    ClassStore::Shard& sh = store.shards_[s];
    // Shards iterate in ascending (src, dst) order, so one pair's
    // classes are consecutive: a last-pair memo gives exactly one
    // assignment lookup per OD pair.
    constexpr std::uint64_t kNoPair = ~0ULL;
    std::uint64_t last_key = kNoPair;
    ChainMix mix;
    double demand = 0.0;
    std::size_t keep = 0;
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
      const double fresh = demand * share;
      const double aged =
          decay == 0.0 ? fresh : decay * sh.rates[i] + (1.0 - decay) * fresh;
      if (floor > 0.0 && aged < floor) continue;  // evict
      sh.ids[keep] = sh.ids[i];
      sh.srcs[keep] = sh.srcs[i];
      sh.dsts[keep] = sh.dsts[i];
      sh.chains[keep] = sh.chains[i];
      sh.paths[keep] = sh.paths[i];
      sh.rates[keep] = aged;
      ++keep;
    }
    evicted[s] = sh.size() - keep;
    sh.ids.resize(keep);
    sh.srcs.resize(keep);
    sh.dsts.resize(keep);
    sh.chains.resize(keep);
    sh.paths.resize(keep);
    sh.rates.resize(keep);
  };
  for_each_index(store.num_shards(), 1, pool, rerate_shard);

  std::size_t dropped = 0;
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    dropped += evicted[s];
    store.offsets_[s + 1] = store.offsets_[s] + store.shards_[s].size();
  }
  store.total_ = store.offsets_[store.num_shards()];
  APPLE_OBS_COUNT_N("traffic.store.classes_aged_out", dropped);
  return dropped;
}

}  // namespace apple::traffic
