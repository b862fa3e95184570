// Worker-count parity and determinism of the parallel branch-and-bound
// engine: any num_workers must produce the same status and objective as the
// serial path, and the identical incumbent and node count on repeated runs
// with a fixed worker count.
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "lp/mip.h"

namespace apple::lp {
namespace {

constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};

MipResult solve_with(const LpModel& m, std::size_t workers) {
  MipOptions opt;
  opt.num_workers = workers;
  return MipSolver(opt).solve(m);
}

// Random weighted set cover (always feasible: every element is coverable).
LpModel random_set_cover(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> cost(1.0, 5.0);
  std::bernoulli_distribution member(0.45);
  const int num_sets = 10, num_elems = 8;
  LpModel m;
  std::vector<VarId> use;
  for (int s = 0; s < num_sets; ++s) {
    const VarId v = m.add_var(cost(rng), true);
    use.push_back(v);
    m.add_row(Sense::kLessEqual, 1.0, {{v, 1.0}});
  }
  for (int e = 0; e < num_elems; ++e) {
    std::vector<std::pair<VarId, double>> row;
    for (int s = 0; s < num_sets; ++s) {
      if (member(rng)) row.emplace_back(use[s], 1.0);
    }
    if (row.empty()) row.emplace_back(use[0], 1.0);
    m.add_row(Sense::kGreaterEqual, 1.0, row);
  }
  return m;
}

// Infeasible by construction: binaries must sum both >= k+1 and <= k.
LpModel random_infeasible(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> size(3, 7);
  const int n = size(rng);
  const int k = n / 2;
  LpModel m;
  std::vector<std::pair<VarId, double>> sum;
  for (int i = 0; i < n; ++i) {
    const VarId v = m.add_var(1.0, true);
    sum.emplace_back(v, 1.0);
    m.add_row(Sense::kLessEqual, 1.0, {{v, 1.0}});
  }
  m.add_row(Sense::kGreaterEqual, static_cast<double>(k + 1), sum);
  m.add_row(Sense::kLessEqual, static_cast<double>(k), sum);
  return m;
}

// Unbounded: an integer variable with negative cost and no upper bound,
// plus unrelated noise constraints.
LpModel random_unbounded(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> cost(0.5, 2.0);
  LpModel m;
  const VarId free_var = m.add_var(-cost(rng), true);
  const VarId other = m.add_var(cost(rng), true);
  m.add_row(Sense::kLessEqual, 3.0, {{other, 1.0}});
  m.add_row(Sense::kGreaterEqual, 1.0, {{free_var, 1.0}, {other, 1.0}});
  return m;
}

class MipParallelSweep : public ::testing::TestWithParam<int> {};

TEST_P(MipParallelSweep, FeasibleParityAcrossWorkerCounts) {
  const LpModel m = random_set_cover(static_cast<std::uint64_t>(GetParam()));
  const MipResult serial = solve_with(m, 1);
  ASSERT_EQ(serial.status, SolveStatus::kOptimal);
  EXPECT_TRUE(serial.proven_optimal);
  for (const std::size_t w : kWorkerCounts) {
    const MipResult r = solve_with(m, w);
    ASSERT_EQ(r.status, serial.status) << "workers=" << w;
    EXPECT_NEAR(r.objective, serial.objective, 1e-5) << "workers=" << w;
    EXPECT_TRUE(r.proven_optimal) << "workers=" << w;
    EXPECT_LE(m.max_violation(r.x), 1e-6) << "workers=" << w;
  }
}

TEST_P(MipParallelSweep, InfeasibleParityAcrossWorkerCounts) {
  const LpModel m = random_infeasible(static_cast<std::uint64_t>(GetParam()));
  for (const std::size_t w : kWorkerCounts) {
    const MipResult r = solve_with(m, w);
    EXPECT_EQ(r.status, SolveStatus::kInfeasible) << "workers=" << w;
    EXPECT_FALSE(r.has_solution()) << "workers=" << w;
  }
}

TEST_P(MipParallelSweep, UnboundedParityAcrossWorkerCounts) {
  const LpModel m = random_unbounded(static_cast<std::uint64_t>(GetParam()));
  for (const std::size_t w : kWorkerCounts) {
    const MipResult r = solve_with(m, w);
    EXPECT_EQ(r.status, SolveStatus::kUnbounded) << "workers=" << w;
  }
}

TEST_P(MipParallelSweep, DeterministicModeRepeatsBitwise) {
  const LpModel m = random_set_cover(static_cast<std::uint64_t>(GetParam()));
  for (const std::size_t w : kWorkerCounts) {
    const MipResult a = solve_with(m, w);
    const MipResult b = solve_with(m, w);
    ASSERT_EQ(a.status, b.status) << "workers=" << w;
    EXPECT_EQ(a.objective, b.objective) << "workers=" << w;  // bitwise
    EXPECT_EQ(a.nodes_explored, b.nodes_explored) << "workers=" << w;
    EXPECT_EQ(a.x, b.x) << "workers=" << w;  // identical incumbent
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipParallelSweep, ::testing::Range(1, 11));

// Mixed-integer problem where branching interacts with continuous
// variables; checks the warm-started bound overlay keeps the relaxation
// chain consistent at every worker count.
TEST(MipParallel, MixedIntegerParity) {
  LpModel m;
  const VarId xi = m.add_var(-3.0, true);
  const VarId yc = m.add_var(-2.0, false);
  m.add_row(Sense::kLessEqual, 7.3, {{xi, 2.0}, {yc, 1.0}});
  m.add_row(Sense::kLessEqual, 4.1, {{xi, 1.0}, {yc, 1.0}});
  const MipResult serial = solve_with(m, 1);
  ASSERT_EQ(serial.status, SolveStatus::kOptimal);
  for (const std::size_t w : kWorkerCounts) {
    const MipResult r = solve_with(m, w);
    ASSERT_EQ(r.status, SolveStatus::kOptimal);
    EXPECT_NEAR(r.objective, serial.objective, 1e-6);
    const double frac = r.x[xi] - std::floor(r.x[xi]);
    EXPECT_LT(std::min(frac, 1.0 - frac), 1e-6);
  }
}

// A search deep enough (hundreds of nodes) that every worker count
// actually runs multi-node rounds, not just the root.
TEST(MipParallel, DeepSearchParityAndDeterminism) {
  LpModel m;
  std::vector<std::pair<VarId, double>> row;
  for (int i = 0; i < 9; ++i) {
    const VarId v = m.add_var(-1.0, true);
    row.emplace_back(v, 2.0);
    m.add_row(Sense::kLessEqual, 1.0, {{v, 1.0}});
  }
  m.add_row(Sense::kLessEqual, 9.0, row);
  const MipResult serial = solve_with(m, 1);
  ASSERT_EQ(serial.status, SolveStatus::kOptimal);
  EXPECT_NEAR(serial.objective, -4.0, 1e-6);
  ASSERT_GT(serial.nodes_explored, 100u);  // genuinely deep
  for (const std::size_t w : kWorkerCounts) {
    const MipResult a = solve_with(m, w);
    const MipResult b = solve_with(m, w);
    ASSERT_EQ(a.status, SolveStatus::kOptimal) << "workers=" << w;
    EXPECT_NEAR(a.objective, serial.objective, 1e-6) << "workers=" << w;
    EXPECT_TRUE(a.proven_optimal) << "workers=" << w;
    EXPECT_EQ(a.nodes_explored, b.nodes_explored) << "workers=" << w;
    EXPECT_EQ(a.x, b.x) << "workers=" << w;
  }
}

// The node limit must be honored identically regardless of worker count:
// a round never solves more nodes than the remaining budget. The symmetric
// knapsack (9 binaries, pairwise-identical, capacity 4.5) needs hundreds
// of nodes to close, so 3 can never prove optimality.
TEST(MipParallel, NodeLimitRespectedPerRound) {
  LpModel m;
  std::vector<std::pair<VarId, double>> row;
  for (int i = 0; i < 9; ++i) {
    const VarId v = m.add_var(-1.0, true);
    row.emplace_back(v, 2.0);
    m.add_row(Sense::kLessEqual, 1.0, {{v, 1.0}});
  }
  m.add_row(Sense::kLessEqual, 9.0, row);
  for (const std::size_t w : kWorkerCounts) {
    MipOptions opt;
    opt.num_workers = w;
    opt.max_nodes = 3;
    const MipResult r = MipSolver(opt).solve(m);
    EXPECT_LE(r.nodes_explored, 3u) << "workers=" << w;
    EXPECT_FALSE(r.proven_optimal) << "workers=" << w;
  }
}

}  // namespace
}  // namespace apple::lp
