// Atomic predicates (Yang & Lam, ICNP'13), the aggregation substrate the
// paper cites in Sec. IV-A.
//
// Given a set of predicates P_1..P_k, the atomic predicates are the unique
// minimal set of non-empty, pairwise-disjoint predicates {a_1..a_m} such
// that every P_i is a disjoint union of atoms. Two packets belong to the
// same equivalence class iff they satisfy the same atom, which is exactly
// the class granularity APPLE's Optimization Engine operates on.
//
// The refinement runs serially in the caller's manager (hash-consed
// managers are not shareable across threads; see DESIGN.md Sec. 15).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hsa/bdd.h"

namespace apple::hsa {

struct AtomicPredicates {
  // Disjoint, jointly-exhaustive atoms (their OR is `true`).
  std::vector<BddRef> atoms;
  // membership[i] lists the atom indices whose union is predicate i.
  std::vector<std::vector<std::size_t>> membership;
};

// Computes the atomic predicates of `predicates`. Empty input yields the
// single atom `true` with no memberships. Atom order is the nested
// inside-before-outside order of the refinement (see atomic.cc).
AtomicPredicates compute_atomic_predicates(BddManager& mgr,
                                           std::span<const BddRef> predicates);

// Index of the unique atom containing the header-space point `point`
// (a predicate with exactly one satisfying assignment, e.g. built with
// PredicateBuilder::from_header).
std::size_t atom_of_point(BddManager& mgr, const AtomicPredicates& atoms,
                          BddRef point);

}  // namespace apple::hsa
