// Reduced Ordered Binary Decision Diagrams with hash-consing.
//
// This is the engine behind APPLE's flow aggregation: the paper classifies
// flows into equivalence classes with atomic-predicate analysis (Sec. IV-A,
// citing Yang & Lam ICNP'13 and AP Classifier CoNEXT'15), which represents
// packet-header predicates as BDDs. We implement a compact ROBDD manager:
// nodes are interned so that structural equality is pointer (index)
// equality, and binary operations are memoized.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace apple::hsa {

// Reference to a BDD node owned by a BddManager. 0 and 1 are the constant
// false/true terminals.
using BddRef = std::uint32_t;

inline constexpr BddRef kBddFalse = 0;
inline constexpr BddRef kBddTrue = 1;

class BddManager {
 public:
  // `num_vars` fixes the variable order: variable 0 is tested first.
  explicit BddManager(std::uint32_t num_vars);

  std::uint32_t num_vars() const { return num_vars_; }
  // Number of interned internal nodes (excluding terminals).
  std::size_t num_nodes() const { return nodes_.size() - 2; }

  // Literal BDDs.
  BddRef var(std::uint32_t v);   // f = x_v
  BddRef nvar(std::uint32_t v);  // f = !x_v

  // Boolean operations (memoized).
  BddRef apply_and(BddRef f, BddRef g);
  BddRef apply_or(BddRef f, BddRef g);
  BddRef apply_xor(BddRef f, BddRef g);
  BddRef negate(BddRef f);
  // f AND NOT g.
  BddRef diff(BddRef f, BddRef g) { return apply_and(f, negate(g)); }

  bool is_false(BddRef f) const { return f == kBddFalse; }
  bool is_true(BddRef f) const { return f == kBddTrue; }

  // True when f implies g (f AND NOT g is empty).
  bool implies(BddRef f, BddRef g) { return is_false(diff(f, g)); }
  // True when f and g share no satisfying assignment.
  bool disjoint(BddRef f, BddRef g) { return is_false(apply_and(f, g)); }

  // Evaluates f under a complete assignment (bits indexed by variable).
  bool evaluate(BddRef f, const std::vector<bool>& assignment) const;

  // Read-only structural view of an internal node (f must not be a
  // terminal). Used by the TCAM materializer to walk paths.
  struct NodeView {
    std::uint32_t var;
    BddRef lo;
    BddRef hi;
  };
  NodeView node_view(BddRef f) const;

  // Number of satisfying assignments over all num_vars variables, as a
  // double (the 104-variable header space overflows integers).
  double sat_count(BddRef f) const;

 private:
  struct Node {
    std::uint32_t var;  // variable tested at this node
    BddRef lo;          // cofactor for var = 0
    BddRef hi;          // cofactor for var = 1
  };

  enum class Op : std::uint8_t { kAnd, kOr, kXor };

  BddRef make_node(std::uint32_t var, BddRef lo, BddRef hi);
  BddRef apply(Op op, BddRef f, BddRef g);
  static bool terminal_apply(Op op, bool a, bool b);

  std::uint32_t num_vars_;
  std::vector<Node> nodes_;  // [0]=false, [1]=true sentinels
  std::unordered_map<std::uint64_t, BddRef> unique_;
  std::unordered_map<std::uint64_t, BddRef> op_cache_;
  std::unordered_map<BddRef, BddRef> not_cache_;
};

}  // namespace apple::hsa
