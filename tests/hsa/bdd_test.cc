#include "hsa/bdd.h"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace apple::hsa {
namespace {

TEST(Bdd, TerminalsAreFixed) {
  BddManager mgr(4);
  EXPECT_TRUE(mgr.is_false(kBddFalse));
  EXPECT_TRUE(mgr.is_true(kBddTrue));
  EXPECT_EQ(mgr.num_nodes(), 0u);
}

TEST(Bdd, VarAndNvarAreComplements) {
  BddManager mgr(4);
  const BddRef x = mgr.var(1);
  const BddRef nx = mgr.nvar(1);
  EXPECT_EQ(mgr.negate(x), nx);
  EXPECT_EQ(mgr.negate(nx), x);
  EXPECT_TRUE(mgr.is_false(mgr.apply_and(x, nx)));
  EXPECT_TRUE(mgr.is_true(mgr.apply_or(x, nx)));
}

TEST(Bdd, HashConsingGivesStructuralIdentity) {
  BddManager mgr(4);
  const BddRef a = mgr.apply_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.apply_and(mgr.var(1), mgr.var(0));
  EXPECT_EQ(a, b);  // commutativity via canonical form
}

TEST(Bdd, VarOutOfRangeThrows) {
  BddManager mgr(4);
  EXPECT_THROW(mgr.var(4), std::out_of_range);
  EXPECT_THROW(mgr.nvar(9), std::out_of_range);
}

TEST(Bdd, BasicIdentities) {
  BddManager mgr(4);
  const BddRef x = mgr.var(0);
  EXPECT_EQ(mgr.apply_and(x, kBddTrue), x);
  EXPECT_EQ(mgr.apply_and(x, kBddFalse), kBddFalse);
  EXPECT_EQ(mgr.apply_or(x, kBddFalse), x);
  EXPECT_EQ(mgr.apply_or(x, kBddTrue), kBddTrue);
  EXPECT_EQ(mgr.apply_xor(x, x), kBddFalse);
  EXPECT_EQ(mgr.apply_xor(x, kBddFalse), x);
}

TEST(Bdd, DeMorgan) {
  BddManager mgr(4);
  const BddRef x = mgr.var(0);
  const BddRef y = mgr.var(2);
  EXPECT_EQ(mgr.negate(mgr.apply_and(x, y)),
            mgr.apply_or(mgr.negate(x), mgr.negate(y)));
}

TEST(Bdd, ImpliesAndDisjoint) {
  BddManager mgr(4);
  const BddRef x = mgr.var(0);
  const BddRef y = mgr.var(1);
  const BddRef xy = mgr.apply_and(x, y);
  EXPECT_TRUE(mgr.implies(xy, x));
  EXPECT_FALSE(mgr.implies(x, xy));
  EXPECT_TRUE(mgr.disjoint(x, mgr.negate(x)));
  EXPECT_FALSE(mgr.disjoint(x, y));
}

TEST(Bdd, SatCount) {
  BddManager mgr(4);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kBddTrue), 16.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(kBddFalse), 0.0);
  EXPECT_DOUBLE_EQ(mgr.sat_count(mgr.var(0)), 8.0);
  const BddRef xy = mgr.apply_and(mgr.var(0), mgr.var(3));
  EXPECT_DOUBLE_EQ(mgr.sat_count(xy), 4.0);
  const BddRef x_or_y = mgr.apply_or(mgr.var(0), mgr.var(1));
  EXPECT_DOUBLE_EQ(mgr.sat_count(x_or_y), 12.0);
}

TEST(Bdd, Evaluate) {
  BddManager mgr(3);
  const BddRef f =
      mgr.apply_or(mgr.apply_and(mgr.var(0), mgr.var(1)), mgr.var(2));
  EXPECT_TRUE(mgr.evaluate(f, {true, true, false}));
  EXPECT_TRUE(mgr.evaluate(f, {false, false, true}));
  EXPECT_FALSE(mgr.evaluate(f, {true, false, false}));
  EXPECT_THROW(mgr.evaluate(f, {true}), std::invalid_argument);
}

TEST(Bdd, XorTruthTable) {
  BddManager mgr(2);
  const BddRef f = mgr.apply_xor(mgr.var(0), mgr.var(1));
  EXPECT_FALSE(mgr.evaluate(f, {false, false}));
  EXPECT_TRUE(mgr.evaluate(f, {false, true}));
  EXPECT_TRUE(mgr.evaluate(f, {true, false}));
  EXPECT_FALSE(mgr.evaluate(f, {true, true}));
}

// Property: random expressions evaluated via the BDD agree with direct
// evaluation of the same random assignment.
class BddRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomEquivalence, MatchesDirectEvaluation) {
  const int kVars = 8;
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> pick_var(0, kVars - 1);
  std::uniform_int_distribution<int> pick_op(0, 2);
  BddManager mgr(kVars);

  // Random formula: fold literals with random ops; mirror as a lambda tree.
  struct Term {
    int var;
    bool neg;
    int op;  // op joining with the accumulator (0=and, 1=or, 2=xor)
  };
  std::vector<Term> terms;
  std::bernoulli_distribution flip(0.5);
  for (int i = 0; i < 12; ++i) {
    terms.push_back(Term{pick_var(rng), flip(rng), pick_op(rng)});
  }
  BddRef f = mgr.var(terms[0].var);
  if (terms[0].neg) f = mgr.negate(f);
  for (std::size_t i = 1; i < terms.size(); ++i) {
    BddRef lit = mgr.var(terms[i].var);
    if (terms[i].neg) lit = mgr.negate(lit);
    switch (terms[i].op) {
      case 0:
        f = mgr.apply_and(f, lit);
        break;
      case 1:
        f = mgr.apply_or(f, lit);
        break;
      default:
        f = mgr.apply_xor(f, lit);
        break;
    }
  }

  for (int trial = 0; trial < 64; ++trial) {
    std::vector<bool> bits(kVars);
    for (int v = 0; v < kVars; ++v) bits[v] = flip(rng);
    bool expected = bits[terms[0].var] != terms[0].neg;
    for (std::size_t i = 1; i < terms.size(); ++i) {
      const bool lit = bits[terms[i].var] != terms[i].neg;
      switch (terms[i].op) {
        case 0:
          expected = expected && lit;
          break;
        case 1:
          expected = expected || lit;
          break;
        default:
          expected = expected != lit;
          break;
      }
    }
    EXPECT_EQ(mgr.evaluate(f, bits), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomEquivalence, ::testing::Range(1, 9));

}  // namespace
}  // namespace apple::hsa
