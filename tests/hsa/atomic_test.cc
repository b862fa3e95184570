#include "hsa/atomic.h"

#include <gtest/gtest.h>

#include <random>

#include "hsa/predicate.h"

namespace apple::hsa {
namespace {

class AtomicTest : public ::testing::Test {
 protected:
  BddManager mgr_ = make_header_space_manager();
  PredicateBuilder b_{mgr_};
};

TEST_F(AtomicTest, EmptyInputYieldsSingleTrueAtom) {
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, {});
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_EQ(atoms.atoms[0], kBddTrue);
  EXPECT_TRUE(atoms.membership.empty());
}

TEST_F(AtomicTest, SinglePredicateSplitsSpaceInTwo) {
  const std::vector<BddRef> preds{b_.cidr(Field::kSrcIp, "10.0.0.0/8")};
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  ASSERT_EQ(atoms.atoms.size(), 2u);
  ASSERT_EQ(atoms.membership.size(), 1u);
  ASSERT_EQ(atoms.membership[0].size(), 1u);
  EXPECT_EQ(atoms.atoms[atoms.membership[0][0]], preds[0]);
}

TEST_F(AtomicTest, TrivialTruePredicate) {
  const std::vector<BddRef> preds{kBddTrue};
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  ASSERT_EQ(atoms.atoms.size(), 1u);
  EXPECT_EQ(atoms.membership[0], (std::vector<std::size_t>{0}));
}

TEST_F(AtomicTest, OverlappingPredicatesMakeThreeAtoms) {
  // Two overlapping /8s cannot overlap; use src and dst fields to overlap.
  const std::vector<BddRef> preds{
      b_.cidr(Field::kSrcIp, "10.0.0.0/8"),
      b_.exact(Field::kProto, 6),
  };
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  // Atoms: 10/8&tcp, 10/8&!tcp, !10/8&tcp, !10/8&!tcp -> 4.
  EXPECT_EQ(atoms.atoms.size(), 4u);
  EXPECT_EQ(atoms.membership[0].size(), 2u);
  EXPECT_EQ(atoms.membership[1].size(), 2u);
}

TEST_F(AtomicTest, NestedPredicates) {
  const std::vector<BddRef> preds{
      b_.cidr(Field::kSrcIp, "10.1.1.0/24"),
      b_.cidr(Field::kSrcIp, "10.1.1.128/25"),  // subset of the first
  };
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  // Atoms: /25, /24 minus /25, rest -> 3.
  ASSERT_EQ(atoms.atoms.size(), 3u);
  EXPECT_EQ(atoms.membership[0].size(), 2u);
  EXPECT_EQ(atoms.membership[1].size(), 1u);
}

TEST_F(AtomicTest, AtomsAreDisjointAndExhaustive) {
  const std::vector<BddRef> preds{
      b_.cidr(Field::kSrcIp, "10.0.0.0/8"),
      b_.cidr(Field::kDstIp, "192.168.0.0/16"),
      b_.exact(Field::kProto, 17),
      b_.range(Field::kDstPort, 80, 443),
  };
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  BddRef all = kBddFalse;
  for (std::size_t i = 0; i < atoms.atoms.size(); ++i) {
    EXPECT_FALSE(mgr_.is_false(atoms.atoms[i]));  // non-empty
    for (std::size_t j = i + 1; j < atoms.atoms.size(); ++j) {
      EXPECT_TRUE(mgr_.disjoint(atoms.atoms[i], atoms.atoms[j]));
    }
    all = mgr_.apply_or(all, atoms.atoms[i]);
  }
  EXPECT_TRUE(mgr_.is_true(all));  // exhaustive
}

TEST_F(AtomicTest, MembershipReconstructsPredicates) {
  const std::vector<BddRef> preds{
      b_.cidr(Field::kSrcIp, "10.0.0.0/9"),
      b_.cidr(Field::kSrcIp, "10.0.0.0/8"),
      b_.exact(Field::kDstPort, 53),
  };
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    BddRef rebuilt = kBddFalse;
    for (const std::size_t a : atoms.membership[i]) {
      rebuilt = mgr_.apply_or(rebuilt, atoms.atoms[a]);
    }
    EXPECT_EQ(rebuilt, preds[i]) << "predicate " << i;
  }
}

TEST_F(AtomicTest, AtomOfPointFindsContainingAtom) {
  const std::vector<BddRef> preds{b_.cidr(Field::kSrcIp, "10.0.0.0/8")};
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, preds);
  PacketHeader h;
  h.src_ip = parse_ipv4("10.5.5.5");
  const std::size_t inside = atom_of_point(mgr_, atoms, b_.from_header(h));
  h.src_ip = parse_ipv4("11.5.5.5");
  const std::size_t outside = atom_of_point(mgr_, atoms, b_.from_header(h));
  EXPECT_NE(inside, outside);
  EXPECT_TRUE(mgr_.implies(atoms.atoms[inside], preds[0]));
  EXPECT_TRUE(mgr_.disjoint(atoms.atoms[outside], preds[0]));
}

TEST_F(AtomicTest, AtomOfPointRejectsEmpty) {
  const AtomicPredicates atoms = compute_atomic_predicates(mgr_, {});
  EXPECT_THROW(atom_of_point(mgr_, atoms, kBddFalse), std::invalid_argument);
}

// Property sweep: random predicate sets keep the partition invariants.
class AtomicRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(AtomicRandomSweep, PartitionInvariants) {
  BddManager mgr = make_header_space_manager();
  const PredicateBuilder b(mgr);
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> ip(0, 0xffffffffu);
  std::uniform_int_distribution<std::uint32_t> plen(4, 24);
  std::vector<BddRef> preds;
  for (int i = 0; i < 6; ++i) {
    preds.push_back(b.prefix(Field::kSrcIp, ip(rng), plen(rng)));
  }
  const AtomicPredicates atoms = compute_atomic_predicates(mgr, preds);
  // Disjoint + exhaustive + every membership list rebuilds its predicate.
  double total = 0.0;
  for (const BddRef a : atoms.atoms) total += mgr.sat_count(a);
  EXPECT_DOUBLE_EQ(total, std::pow(2.0, 104.0));
  for (std::size_t i = 0; i < preds.size(); ++i) {
    BddRef rebuilt = kBddFalse;
    for (const std::size_t a : atoms.membership[i]) {
      rebuilt = mgr.apply_or(rebuilt, atoms.atoms[a]);
    }
    EXPECT_EQ(rebuilt, preds[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicRandomSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace apple::hsa
