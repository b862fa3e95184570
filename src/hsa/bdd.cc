#include "hsa/bdd.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/check.h"

namespace apple::hsa {

namespace {

constexpr std::uint32_t kTerminalVar = 0xffffffffu;

std::uint64_t hash_triple(std::uint32_t var, BddRef lo, BddRef hi) {
  std::uint64_t h = var;
  h = h * 0x9e3779b97f4a7c15ULL + lo;
  h = h * 0x9e3779b97f4a7c15ULL + hi;
  return h;
}

}  // namespace

BddManager::BddManager(std::uint32_t num_vars) : num_vars_(num_vars) {
  nodes_.emplace_back(kTerminalVar, kBddFalse, kBddFalse);  // false
  nodes_.emplace_back(kTerminalVar, kBddTrue, kBddTrue);    // true
}

BddRef BddManager::make_node(std::uint32_t var, BddRef lo, BddRef hi) {
  // ROBDD structural invariants: children are interned refs, the tested
  // variable is in range, and the variable order is strictly increasing
  // toward the terminals (terminals carry kTerminalVar = 2^32-1, so the
  // comparison also admits them).
  APPLE_DCHECK_LT(lo, nodes_.size());
  APPLE_DCHECK_LT(hi, nodes_.size());
  APPLE_DCHECK_LT(var, num_vars_);
  APPLE_DCHECK_GT(nodes_[lo].var, var);
  APPLE_DCHECK_GT(nodes_[hi].var, var);
  if (lo == hi) return lo;  // reduction rule
  const std::uint64_t key = hash_triple(var, lo, hi);
  // Collision-safe: verify on hit, probe linearly on mismatch. In practice
  // the mixed key makes collisions vanishingly rare; we keep a map from the
  // exact triple encoded in 64 bits to stay simple: var < 2^24 and refs can
  // exceed 2^20, so verify explicitly.
  auto [it, inserted] = unique_.try_emplace(key, 0);
  if (!inserted) {
    const Node& n = nodes_[it->second];
    if (n.var == var && n.lo == lo && n.hi == hi) return it->second;
    // Extremely unlikely 64-bit hash collision; fall through and intern a
    // fresh node keyed by a perturbed key.
    std::uint64_t k2 = key;
    while (true) {
      k2 = k2 * 0x9e3779b97f4a7c15ULL + 1;
      auto [it2, ins2] = unique_.try_emplace(k2, 0);
      if (ins2) {
        it = it2;
        break;
      }
      const Node& n2 = nodes_[it2->second];
      if (n2.var == var && n2.lo == lo && n2.hi == hi) return it2->second;
    }
  }
  const BddRef ref = static_cast<BddRef>(nodes_.size());
  nodes_.emplace_back(var, lo, hi);
  it->second = ref;
  return ref;
}

BddRef BddManager::var(std::uint32_t v) {
  if (v >= num_vars_) throw std::out_of_range("bdd variable out of range");
  return make_node(v, kBddFalse, kBddTrue);
}

BddRef BddManager::nvar(std::uint32_t v) {
  if (v >= num_vars_) throw std::out_of_range("bdd variable out of range");
  return make_node(v, kBddTrue, kBddFalse);
}

bool BddManager::terminal_apply(Op op, bool a, bool b) {
  switch (op) {
    case Op::kAnd:
      return a && b;
    case Op::kOr:
      return a || b;
    case Op::kXor:
      return a != b;
  }
  return false;
}

BddRef BddManager::apply(Op op, BddRef f, BddRef g) {
  // Operands must be refs previously interned by this manager.
  APPLE_DCHECK_LT(f, nodes_.size());
  APPLE_DCHECK_LT(g, nodes_.size());
  // Terminal short-cuts.
  if (f <= kBddTrue && g <= kBddTrue) {
    return terminal_apply(op, f == kBddTrue, g == kBddTrue) ? kBddTrue
                                                            : kBddFalse;
  }
  switch (op) {
    case Op::kAnd:
      if (f == g) return f;
      if (f == kBddFalse || g == kBddFalse) return kBddFalse;
      if (f == kBddTrue) return g;
      if (g == kBddTrue) return f;
      break;
    case Op::kOr:
      if (f == g) return f;
      if (f == kBddTrue || g == kBddTrue) return kBddTrue;
      if (f == kBddFalse) return g;
      if (g == kBddFalse) return f;
      break;
    case Op::kXor:
      if (f == g) return kBddFalse;
      if (f == kBddFalse) return g;
      if (g == kBddFalse) return f;
      break;
  }
  // Commutative ops: canonicalize operand order for better cache hits.
  if (f > g) std::swap(f, g);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(f) << 34) |
      (static_cast<std::uint64_t>(g) << 2) | static_cast<std::uint64_t>(op);
  if (auto it = op_cache_.find(key); it != op_cache_.end()) return it->second;

  const Node nf = nodes_[f];  // by value: recursion can reallocate nodes_
  const Node ng = nodes_[g];
  const std::uint32_t top = std::min(nf.var, ng.var);
  const BddRef f_lo = nf.var == top ? nf.lo : f;
  const BddRef f_hi = nf.var == top ? nf.hi : f;
  const BddRef g_lo = ng.var == top ? ng.lo : g;
  const BddRef g_hi = ng.var == top ? ng.hi : g;
  const BddRef lo = apply(op, f_lo, g_lo);
  const BddRef hi = apply(op, f_hi, g_hi);
  const BddRef result = make_node(top, lo, hi);
  op_cache_.emplace(key, result);
  return result;
}

BddRef BddManager::apply_and(BddRef f, BddRef g) { return apply(Op::kAnd, f, g); }
BddRef BddManager::apply_or(BddRef f, BddRef g) { return apply(Op::kOr, f, g); }
BddRef BddManager::apply_xor(BddRef f, BddRef g) { return apply(Op::kXor, f, g); }

BddRef BddManager::negate(BddRef f) {
  APPLE_DCHECK_LT(f, nodes_.size());
  if (f == kBddFalse) return kBddTrue;
  if (f == kBddTrue) return kBddFalse;
  if (auto it = not_cache_.find(f); it != not_cache_.end()) return it->second;
  const Node n = nodes_[f];  // by value: recursion can reallocate nodes_
  const BddRef lo = negate(n.lo);
  const BddRef hi = negate(n.hi);
  const BddRef result = make_node(n.var, lo, hi);
  not_cache_.emplace(f, result);
  not_cache_.emplace(result, f);
  return result;
}

bool BddManager::evaluate(BddRef f, const std::vector<bool>& assignment) const {
  if (assignment.size() < num_vars_) {
    throw std::invalid_argument("assignment shorter than variable count");
  }
  APPLE_CHECK_LT(f, nodes_.size());
  while (f > kBddTrue) {
    const Node& n = nodes_[f];
    f = assignment[n.var] ? n.hi : n.lo;
  }
  return f == kBddTrue;
}

BddManager::NodeView BddManager::node_view(BddRef f) const {
  if (f <= kBddTrue) {
    throw std::invalid_argument("terminals have no node view");
  }
  const Node& n = nodes_.at(f);
  return NodeView{n.var, n.lo, n.hi};
}

double BddManager::sat_count(BddRef f) const {
  APPLE_CHECK_LT(f, nodes_.size());
  // Fraction-based count avoids tracking variable gaps: density(f) is the
  // probability a uniform assignment satisfies f.
  std::unordered_map<BddRef, double> memo;
  const auto density = [&](auto&& self, BddRef r) -> double {
    if (r == kBddFalse) return 0.0;
    if (r == kBddTrue) return 1.0;
    if (auto it = memo.find(r); it != memo.end()) return it->second;
    const Node& n = nodes_[r];
    const double d = 0.5 * self(self, n.lo) + 0.5 * self(self, n.hi);
    memo.emplace(r, d);
    return d;
  };
  return density(density, f) * std::pow(2.0, static_cast<double>(num_vars_));
}

}  // namespace apple::hsa
