#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <random>

namespace apple::lp {
namespace {

// Textbook LP:
//   max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (x,y >= 0)
// optimum x=2, y=6, objective 36. We minimize, so negate.
TEST(Simplex, TextbookMaximization) {
  LpModel m;
  const VarId x = m.add_var(-3.0);
  const VarId y = m.add_var(-5.0);
  m.add_row(Sense::kLessEqual, 4.0, {{x, 1.0}});
  m.add_row(Sense::kLessEqual, 12.0, {{y, 2.0}});
  m.add_row(Sense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_NEAR(s.x[y], 6.0, 1e-9);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y s.t. x + y = 10, x - y = 2  ->  x=6, y=4.
  LpModel m;
  const VarId x = m.add_var(1.0);
  const VarId y = m.add_var(1.0);
  m.add_row(Sense::kEqual, 10.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEqual, 2.0, {{x, 1.0}, {y, -1.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[x], 6.0, 1e-9);
  EXPECT_NEAR(s.x[y], 4.0, 1e-9);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
}

TEST(Simplex, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1  ->  x=4, y=0, obj 8.
  LpModel m;
  const VarId x = m.add_var(2.0);
  const VarId y = m.add_var(3.0);
  m.add_row(Sense::kGreaterEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kGreaterEqual, 1.0, {{x, 1.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.x[x], 4.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible) {
  LpModel m;
  const VarId x = m.add_var(1.0);
  m.add_row(Sense::kLessEqual, 1.0, {{x, 1.0}});
  m.add_row(Sense::kGreaterEqual, 2.0, {{x, 1.0}});
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpModel m;
  const VarId x = m.add_var(-1.0);  // maximize x with no upper limit
  m.add_row(Sense::kGreaterEqual, 0.0, {{x, 1.0}});
  EXPECT_EQ(SimplexSolver().solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LpModel m;
  const VarId x = m.add_var(1.0);
  m.add_row(Sense::kLessEqual, -3.0, {{x, -1.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate corner: several constraints meet at the optimum.
  LpModel m;
  const VarId x = m.add_var(-1.0);
  const VarId y = m.add_var(-1.0);
  m.add_row(Sense::kLessEqual, 0.0, {{x, 1.0}, {y, -1.0}});
  m.add_row(Sense::kLessEqual, 0.0, {{x, -1.0}, {y, 1.0}});
  m.add_row(Sense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -4.0, 1e-9);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicate equality: phase 1 must cope with a redundant row.
  LpModel m;
  const VarId x = m.add_var(1.0);
  const VarId y = m.add_var(2.0);
  m.add_row(Sense::kEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 4.0, 1e-9);  // x=4, y=0
}

TEST(Simplex, ZeroObjectiveFeasibilityProblem) {
  LpModel m;
  const VarId x = m.add_var(0.0);
  m.add_row(Sense::kEqual, 7.0, {{x, 1.0}});
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[x], 7.0, 1e-9);
}

TEST(Simplex, EmptyModelIsTriviallyOptimal) {
  LpModel m;
  m.add_var(1.0);
  const LpSolution s = SimplexSolver().solve(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

// Property sweep: random feasible transportation-style LPs; the solution
// must satisfy every constraint and match a brute-force greedy lower bound
// check (solution feasible => objective >= LP optimum is automatic; here we
// verify feasibility and optimality via complementary checks).
class SimplexRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomSweep, RandomTransportationProblemsAreSolvedFeasibly) {
  std::mt19937_64 rng(GetParam());
  std::uniform_real_distribution<double> cost(1.0, 10.0);
  std::uniform_real_distribution<double> amount(1.0, 5.0);
  const int sources = 3, sinks = 4;
  LpModel m;
  std::vector<std::vector<VarId>> ship(sources, std::vector<VarId>(sinks));
  for (int s = 0; s < sources; ++s) {
    for (int d = 0; d < sinks; ++d) ship[s][d] = m.add_var(cost(rng));
  }
  std::vector<double> supply(sources);
  double total = 0.0;
  for (int s = 0; s < sources; ++s) {
    supply[s] = amount(rng);
    total += supply[s];
  }
  // Sinks must jointly absorb all supply; per-sink demand = total/sinks.
  for (int s = 0; s < sources; ++s) {
    std::vector<std::pair<VarId, double>> terms;
    for (int d = 0; d < sinks; ++d) terms.emplace_back(ship[s][d], 1.0);
    m.add_row(Sense::kEqual, supply[s], terms);
  }
  for (int d = 0; d < sinks; ++d) {
    std::vector<std::pair<VarId, double>> terms;
    for (int s = 0; s < sources; ++s) terms.emplace_back(ship[s][d], 1.0);
    m.add_row(Sense::kEqual, total / sinks, terms);
  }
  const LpSolution sol = SimplexSolver().solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_LE(m.max_violation(sol.x), 1e-7);
  // Objective is bounded below by (min cost) * total shipped.
  double min_cost = 1e9;
  for (int s = 0; s < sources; ++s) {
    for (int d = 0; d < sinks; ++d) {
      min_cost = std::min(min_cost, m.var(ship[s][d]).objective);
    }
  }
  EXPECT_GE(sol.objective, min_cost * total - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomSweep,
                         ::testing::Range(1, 13));

// The textbook LP of TextbookMaximization, reused by the SolveContext
// tests below: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
LpModel textbook(VarId& x, VarId& y) {
  LpModel m;
  x = m.add_var(-3.0);
  y = m.add_var(-5.0);
  m.add_row(Sense::kLessEqual, 4.0, {{x, 1.0}});
  m.add_row(Sense::kLessEqual, 12.0, {{y, 2.0}});
  m.add_row(Sense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  return m;
}

TEST(SimplexBounds, UpperBoundOverlayChangesOptimum) {
  VarId x, y;
  const LpModel m = textbook(x, y);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SolveContext ctx;
  const std::vector<double> lower{0.0, 0.0};
  const std::vector<double> upper{kInf, 3.0};  // y <= 3
  ctx.lower = lower;
  ctx.upper = upper;
  const LpSolution sol = SimplexSolver().solve(m, ctx);
  ASSERT_TRUE(sol.optimal());
  // With y capped at 3: x = 4, y = 3, objective -(12 + 15) = -27.
  EXPECT_NEAR(sol.x[x], 4.0, 1e-6);
  EXPECT_NEAR(sol.x[y], 3.0, 1e-6);
  EXPECT_NEAR(sol.objective, -27.0, 1e-6);
}

TEST(SimplexBounds, FixedVariableIsSubstitutedAway) {
  VarId x, y;
  const LpModel m = textbook(x, y);
  SolveContext ctx;
  const std::vector<double> lower{2.0, 0.0};
  const std::vector<double> upper{2.0, 6.0};  // x fixed at 2
  ctx.lower = lower;
  ctx.upper = upper;
  const LpSolution sol = SimplexSolver().solve(m, ctx);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-6);
  EXPECT_NEAR(sol.objective, -36.0, 1e-6);
}

TEST(SimplexBounds, LowerBoundShiftKeepsConstraintsConsistent) {
  VarId x, y;
  const LpModel m = textbook(x, y);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SolveContext ctx;
  const std::vector<double> lower{3.0, 0.0};  // x >= 3
  const std::vector<double> upper{kInf, kInf};
  ctx.lower = lower;
  ctx.upper = upper;
  const LpSolution sol = SimplexSolver().solve(m, ctx);
  ASSERT_TRUE(sol.optimal());
  EXPECT_GE(sol.x[x], 3.0 - 1e-9);
  EXPECT_LE(m.max_violation(sol.x), 1e-7);
  // x = 3 leaves 2y <= 9: y = 4.5, objective -(9 + 22.5) = -31.5.
  EXPECT_NEAR(sol.objective, -31.5, 1e-6);
}

TEST(SimplexBounds, CrossedBoundsAreInfeasible) {
  VarId x, y;
  const LpModel m = textbook(x, y);
  SolveContext ctx;
  const std::vector<double> lower{3.0, 0.0};
  const std::vector<double> upper{2.0, 6.0};  // 3 > 2: empty box
  ctx.lower = lower;
  ctx.upper = upper;
  const LpSolution sol = SimplexSolver().solve(m, ctx);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
}

TEST(SimplexDeadline, ExpiredDeadlineStopsTheSolve) {
  VarId x, y;
  const LpModel m = textbook(x, y);
  SimplexOptions opt;
  opt.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  opt.deadline_poll_pivots = 1;
  const LpSolution sol = SimplexSolver(opt).solve(m);
  EXPECT_EQ(sol.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(sol.iterations, 0u);
}

TEST(SimplexDeadline, FutureDeadlineDoesNotInterfere) {
  VarId x, y;
  const LpModel m = textbook(x, y);
  SimplexOptions opt;
  opt.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  const LpSolution sol = SimplexSolver(opt).solve(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -36.0, 1e-6);
}

}  // namespace
}  // namespace apple::lp
