#include "core/subclass_assigner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace apple::core {

namespace {

constexpr double kEps = 1e-9;
// Per-stage fraction the supply builder may leave unassigned (ledger
// take/frac round-trips drift at 100k-class scale); the decomposition
// folds a remainder of this order into the last sub-class instead of
// treating it as missing supply.
constexpr double kFracSlack = 1e-5;
// The decomposition stops cutting once less than this weight remains; the
// remainder folds into the last sub-class.
constexpr double kMinWeight = 1e-9;
// Dyadic resolution of kPrefixSplit: weights are rounded to multiples of
// 2^-kPrefixBits (8 bits = 1/256 granularity).
constexpr std::uint32_t kPrefixBits = 8;

// One indivisible supply unit of a chain stage: `frac` of the class handled
// by `instance` at path position `pos`.
struct SupplyUnit {
  std::size_t pos = 0;
  vnf::InstanceId instance = 0;
  double frac = 0.0;
};

}  // namespace

InstanceInventory materialize_inventory(const PlacementInput& input,
                                        const PlacementPlan& plan) {
  InstanceInventory inv;
  inv.by_node_type.resize(input.topology->num_nodes());
  vnf::InstanceId next = 1;
  for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      for (std::uint32_t k = 0; k < plan.instance_count[v][n]; ++k) {
        inv.by_node_type[v][n].push_back(next++);
      }
    }
  }
  return inv;
}

std::size_t classifier_rules_for_weight(double weight, SubclassMethod method,
                                        std::uint32_t prefix_bits) {
  if (method == SubclassMethod::kConsistentHash) return 1;
  if (prefix_bits == 0 || prefix_bits > 30) {
    throw std::invalid_argument("prefix_bits must be in [1,30]");
  }
  const std::uint32_t scale = 1u << prefix_bits;
  const std::uint32_t quantized = static_cast<std::uint32_t>(std::clamp(
      std::lround(weight * scale), 1L, static_cast<long>(scale)));
  // A dyadic fraction k/2^bits decomposes into popcount(k) aligned prefix
  // blocks (e.g. 3/8 = 1/4 + 1/8 -> two prefixes).
  return static_cast<std::size_t>(std::popcount(quantized));
}

std::vector<std::vector<dataplane::SubclassPlan>> assign_subclasses(
    const PlacementInput& input, const PlacementPlan& plan,
    const InstanceInventory& inventory, const AssignerOptions& options) {
  input.validate();
  const std::size_t num_nodes = input.topology->num_nodes();

  // Remaining capacity ledger shared across classes, one entry per
  // inventory slot: bucket b = v * kNumNfTypes + n owns
  // ledger[slot_start[b] .. slot_start[b + 1]), aligned with
  // inventory.by_node_type[v][n].
  std::vector<double> ledger;
  std::vector<std::size_t> slot_start{0};
  slot_start.reserve(num_nodes * vnf::kNumNfTypes + 1);
  for (net::NodeId v = 0; v < num_nodes; ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      ledger.insert(ledger.end(), inventory.by_node_type[v][n].size(),
                    vnf::spec_of(static_cast<vnf::NfType>(n)).capacity_mbps);
      slot_start.push_back(ledger.size());
    }
  }

  std::vector<std::vector<dataplane::SubclassPlan>> result(
      input.classes.size());

  // Scratch reused across classes: every stage's supply units back to back
  // (stage j owns supply[stage_end[j - 1] .. stage_end[j])), the per-stage
  // head unit and its consumed fraction, and the instance sequence of each
  // sub-class emitted so far, row-major [sub-class][stage].
  std::vector<SupplyUnit> supply;
  std::vector<std::size_t> stage_end;
  std::vector<std::size_t> head;
  std::vector<double> consumed;
  std::vector<vnf::InstanceId> sequences;

  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    const ClassDistribution& dist = plan.distribution[h];
    std::vector<dataplane::SubclassPlan>& subs = result[h];

    if (chain.empty()) {
      dataplane::SubclassPlan plain;
      plain.class_id = cls.id;
      plain.subclass_id = 0;
      plain.weight = 1.0;
      subs.push_back(std::move(plain));
      continue;
    }

    // Build per-stage supply lists by consuming the capacity ledger in
    // inventory order at each (position, type) bucket.
    supply.clear();
    stage_end.clear();
    for (std::size_t j = 0; j < chain.size(); ++j) {
      const vnf::NfType type = chain[j];
      const std::size_t stage_begin = supply.size();
      for (std::size_t i = 0; i < cls.path.size(); ++i) {
        double frac = dist(i, j);
        if (frac <= kEps) continue;
        const auto& bucket = inventory.at(cls.path[i], type);
        if (bucket.empty()) {
          if (cls.rate_mbps <= kEps) {
            // Zero-rate class at an instance-less position: relocate to the
            // first downstream position that has an instance.
            continue;
          }
          throw std::invalid_argument(
              "class " + std::to_string(h) + ": d assigns load at switch " +
              std::to_string(cls.path[i]) + " but no " +
              std::string(vnf::to_string(type)) + " instance exists there");
        }
        if (cls.rate_mbps <= kEps) {
          supply.push_back(SupplyUnit{i, bucket.front(), frac});
          continue;
        }
        double* residuals =
            ledger.data() +
            slot_start[cls.path[i] * vnf::kNumNfTypes +
                       static_cast<std::size_t>(type)];
        for (std::size_t k = 0; k < bucket.size(); ++k) {
          if (frac <= kEps) break;
          double& residual = residuals[k];
          if (residual <= kEps) continue;
          const double take_mbps =
              std::min(residual, frac * cls.rate_mbps);
          const double take_frac = take_mbps / cls.rate_mbps;
          residual -= take_mbps;
          supply.push_back(SupplyUnit{i, bucket[k], take_frac});
          frac -= take_frac;
        }
        if (frac > 1e-6) {
          throw std::invalid_argument(
              "class " + std::to_string(h) +
              ": instance capacity at switch " +
              std::to_string(cls.path[i]) + " cannot absorb d (Eq. 5 broken)");
        }
      }
      // Zero-rate relocation: if nothing was supplied (all buckets empty),
      // fall back to the first instance of the right type on the path.
      if (supply.size() == stage_begin) {
        bool placed = false;
        for (std::size_t i = 0; i < cls.path.size() && !placed; ++i) {
          const auto& bucket = inventory.at(cls.path[i], chain[j]);
          if (!bucket.empty()) {
            supply.push_back(SupplyUnit{i, bucket.front(), 1.0});
            placed = true;
          }
        }
        if (!placed) {
          throw std::invalid_argument(
              "class " + std::to_string(h) + ": no " +
              std::string(vnf::to_string(chain[j])) +
              " instance anywhere on the path");
        }
      }
      stage_end.push_back(supply.size());
    }

    // Greedy cut decomposition across stages. The prefix property (Eq. 3)
    // keeps the per-stage head positions monotone, so each cut is a valid
    // in-order itinerary.
    head.assign(1, 0);  // each stage's head starts at its first unit
    head.insert(head.end(), stage_end.begin(), stage_end.end() - 1);
    consumed.assign(chain.size(), 0.0);
    sequences.clear();
    double remaining = 1.0;
    while (remaining > kMinWeight) {
      double w = remaining;
      bool exhausted = false;
      for (std::size_t j = 0; j < chain.size(); ++j) {
        if (head[j] >= stage_end[j]) {
          // A stage may come up short by the builder's floating-point
          // slack; that remainder folds into the last sub-class below.
          // Anything larger means the placement really under-supplied.
          if (remaining <= kFracSlack && !subs.empty()) {
            exhausted = true;
            break;
          }
          throw std::logic_error("sub-class decomposition ran out of supply");
        }
        w = std::min(w, supply[head[j]].frac - consumed[j]);
      }
      if (exhausted) break;
      if (w <= kEps) {
        // Exhausted head unit(s): advance them and retry; bail out if no
        // progress is possible (degenerate fractions).
        bool advanced = false;
        for (std::size_t j = 0; j < chain.size(); ++j) {
          if (head[j] < stage_end[j] &&
              supply[head[j]].frac - consumed[j] <= kEps) {
            ++head[j];
            consumed[j] = 0.0;
            advanced = true;
          }
        }
        if (!advanced) break;
        continue;
      }

      // Merge cuts with identical instance sequences: scan this class's
      // own sub-classes (few per class) for the cut's sequence.
      std::size_t match = 0;
      for (; match < subs.size(); ++match) {
        const vnf::InstanceId* seq = sequences.data() + match * chain.size();
        std::size_t j = 0;
        while (j < chain.size() && seq[j] == supply[head[j]].instance) ++j;
        if (j == chain.size()) break;
      }
      if (match == subs.size()) {
        dataplane::SubclassPlan sub;
        sub.class_id = cls.id;
        sub.subclass_id = static_cast<dataplane::SubclassId>(subs.size());
        sub.weight = w;
        // Group consecutive stages at the same switch into one host visit.
        for (std::size_t j = 0; j < chain.size(); ++j) {
          const SupplyUnit& unit = supply[head[j]];
          sequences.push_back(unit.instance);
          if (!sub.itinerary.empty() &&
              sub.itinerary.back().at_switch == cls.path[unit.pos]) {
            sub.itinerary.back().instances.push_back(unit.instance);
          } else {
            dataplane::HostVisit visit;
            visit.at_switch = cls.path[unit.pos];
            visit.instances.push_back(unit.instance);
            sub.itinerary.push_back(std::move(visit));
          }
        }
        subs.push_back(std::move(sub));
      } else {
        subs[match].weight += w;
      }

      remaining -= w;
      for (std::size_t j = 0; j < chain.size(); ++j) {
        consumed[j] += w;
        if (consumed[j] >= supply[head[j]].frac - kEps) {
          ++head[j];
          consumed[j] = 0.0;
        }
      }
    }
    // Absorb the residual weight into the last sub-class so weights sum to
    // exactly 1.
    if (!subs.empty()) {
      subs.back().weight += remaining;
    }
    // Classifier TCAM cost per sub-class (Sec. V-A).
    for (dataplane::SubclassPlan& sub : subs) {
      sub.classifier_prefix_rules =
          classifier_rules_for_weight(sub.weight, options.method, kPrefixBits);
    }
  }
  return result;
}

}  // namespace apple::core
