#include "hsa/atomic.h"

#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace apple::hsa {

namespace {

// Refinement of `predicates` in `mgr`, tracking per atom the sorted list of
// predicate indices the atom lies inside (its signature). Atom order is the
// nested inside-before-outside order: after processing P_0..P_i, the atoms
// are ordered by their in/out signature over those predicates, "inside"
// first at every step.
std::pair<std::vector<BddRef>, std::vector<std::vector<std::size_t>>> refine(
    BddManager& mgr, std::span<const BddRef> predicates) {
  std::vector<BddRef> atoms{kBddTrue};
  std::vector<std::vector<std::size_t>> sigs{{}};
  for (std::size_t i = 0; i < predicates.size(); ++i) {
    const BddRef p = predicates[i];
    std::vector<BddRef> next_atoms;
    std::vector<std::vector<std::size_t>> next_sigs;
    next_atoms.reserve(atoms.size() * 2);
    next_sigs.reserve(atoms.size() * 2);
    for (std::size_t a = 0; a < atoms.size(); ++a) {
      const BddRef inside = mgr.apply_and(atoms[a], p);
      const BddRef outside = mgr.diff(atoms[a], p);
      if (!mgr.is_false(inside)) {
        next_atoms.push_back(inside);
        next_sigs.push_back(sigs[a]);
        next_sigs.back().push_back(i);
      }
      if (!mgr.is_false(outside)) {
        next_atoms.push_back(outside);
        next_sigs.push_back(std::move(sigs[a]));
      }
    }
    atoms = std::move(next_atoms);
    sigs = std::move(next_sigs);
  }
  return {std::move(atoms), std::move(sigs)};
}

}  // namespace

AtomicPredicates compute_atomic_predicates(
    BddManager& mgr, std::span<const BddRef> predicates) {
  APPLE_OBS_SPAN("hsa.atomic.compute");
  auto [atoms, sigs] = refine(mgr, predicates);
  AtomicPredicates out;
  out.atoms = std::move(atoms);
  // Atom-major iteration keeps each membership list ascending.
  out.membership.resize(predicates.size());
  for (std::size_t j = 0; j < sigs.size(); ++j) {
    for (const std::size_t i : sigs[j]) out.membership[i].push_back(j);
  }
  APPLE_OBS_COUNT_N("hsa.atomic.atoms_computed", out.atoms.size());
  return out;
}

std::size_t atom_of_point(BddManager& mgr, const AtomicPredicates& atoms,
                          BddRef point) {
  if (mgr.is_false(point)) {
    throw std::invalid_argument("empty point predicate");
  }
  for (std::size_t j = 0; j < atoms.atoms.size(); ++j) {
    if (mgr.implies(point, atoms.atoms[j])) return j;
  }
  throw std::logic_error("atoms do not cover the point — broken invariant");
}

}  // namespace apple::hsa
