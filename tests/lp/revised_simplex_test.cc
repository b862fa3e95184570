#include "lp/revised_simplex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "lp/mip.h"
#include "lp/simplex.h"
#include "obs/metrics.h"

namespace apple::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The revised engine alone, without SimplexSolver's dense fallback: a
// solve that fell back would make the parity checks below compare the
// dense tableau with itself.
LpSolution solve_revised(const LpModel& m, const SolveContext& ctx = {}) {
  RevisedSimplex solver(m, SimplexOptions{});
  LpSolution out = solver.solve(ctx.lower, ctx.upper);
  EXPECT_FALSE(solver.numerical_trouble());
  return out;
}

// Random feasible transportation LP: sources ship to sinks, supply equals
// demand, costs positive — always bounded and feasible, heavy in equality
// rows (the degenerate case that stresses anti-cycling).
LpModel make_transportation(std::mt19937_64& rng, int sources, int sinks) {
  std::uniform_real_distribution<double> cost(1.0, 10.0);
  std::uniform_real_distribution<double> amount(1.0, 5.0);
  LpModel m;
  std::vector<std::vector<VarId>> ship(sources, std::vector<VarId>(sinks));
  for (int s = 0; s < sources; ++s) {
    for (int d = 0; d < sinks; ++d) ship[s][d] = m.add_var(cost(rng));
  }
  double total = 0.0;
  for (int s = 0; s < sources; ++s) {
    const double supply = amount(rng);
    total += supply;
    std::vector<std::pair<VarId, double>> terms;
    for (int d = 0; d < sinks; ++d) terms.emplace_back(ship[s][d], 1.0);
    m.add_row(Sense::kEqual, supply, terms);
  }
  for (int d = 0; d < sinks; ++d) {
    std::vector<std::pair<VarId, double>> terms;
    for (int s = 0; s < sources; ++s) terms.emplace_back(ship[s][d], 1.0);
    m.add_row(Sense::kEqual, total / sinks, terms);
  }
  return m;
}

// Random covering/packing LP with mixed row senses; feasible (x = 1 works:
// each >= row's rhs is below its coefficient sum) and bounded below.
LpModel make_mixed_rows(std::mt19937_64& rng, int vars, int rows) {
  std::uniform_real_distribution<double> cost(0.5, 5.0);
  std::uniform_real_distribution<double> coef(0.2, 2.0);
  std::uniform_int_distribution<int> pick(0, vars - 1);
  std::uniform_int_distribution<int> sense(0, 2);
  LpModel m;
  std::vector<VarId> xs;
  for (int v = 0; v < vars; ++v) xs.push_back(m.add_var(cost(rng)));
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<VarId, double>> terms;
    double sum = 0.0;
    const int width = 2 + pick(rng) % 4;
    for (int t = 0; t < width; ++t) {
      const double c = coef(rng);
      terms.emplace_back(xs[static_cast<std::size_t>(pick(rng))], c);
      sum += c;
    }
    switch (sense(rng)) {
      case 0:
        m.add_row(Sense::kLessEqual, sum * 2.0, terms);
        break;
      case 1:
        m.add_row(Sense::kGreaterEqual, sum * 0.5, terms);
        break;
      default:
        m.add_row(Sense::kEqual, sum * 0.75, terms);
        break;
    }
  }
  return m;
}

TEST(RevisedSimplex, TextbookParityWithDense) {
  LpModel m;
  const VarId x = m.add_var(-3.0);
  const VarId y = m.add_var(-5.0);
  m.add_row(Sense::kLessEqual, 4.0, {{x, 1.0}});
  m.add_row(Sense::kLessEqual, 12.0, {{y, 2.0}});
  m.add_row(Sense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  const LpSolution s = solve_revised(m);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_NEAR(s.x[y], 6.0, 1e-9);
}

class RevisedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RevisedSweep, TransportationParityWithDense) {
  std::mt19937_64 rng(GetParam());
  const LpModel m = make_transportation(rng, 4, 5);
  const LpSolution dense = solve_dense(m);
  const LpSolution revised = solve_revised(m);
  ASSERT_EQ(dense.status, revised.status);
  ASSERT_TRUE(revised.optimal());
  EXPECT_NEAR(dense.objective, revised.objective, 1e-6);
  EXPECT_LE(m.max_violation(revised.x), 1e-7);
}

TEST_P(RevisedSweep, MixedRowParityWithDense) {
  std::mt19937_64 rng(GetParam() * 977 + 13);
  const LpModel m = make_mixed_rows(rng, 12, 10);
  const LpSolution dense = solve_dense(m);
  const LpSolution revised = solve_revised(m);
  ASSERT_EQ(dense.status, revised.status);
  if (dense.optimal()) {
    EXPECT_NEAR(dense.objective, revised.objective, 1e-6);
    EXPECT_LE(m.max_violation(revised.x), 1e-6);
  }
}

TEST_P(RevisedSweep, BoundOverlayParityWithDense) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  const LpModel m = make_transportation(rng, 4, 4);
  std::uniform_real_distribution<double> lo(0.0, 0.4);
  std::uniform_real_distribution<double> hi(0.8, 3.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> lower(m.num_vars(), 0.0);
  std::vector<double> upper(m.num_vars(), kInf);
  for (std::size_t v = 0; v < m.num_vars(); ++v) {
    if (coin(rng) < 0.5) lower[v] = lo(rng);
    if (coin(rng) < 0.5) upper[v] = hi(rng);
    if (coin(rng) < 0.1) upper[v] = lower[v];  // fixed variable
  }
  SolveContext ctx;
  ctx.lower = lower;
  ctx.upper = upper;
  const LpSolution dense = solve_dense(m, ctx);
  const LpSolution revised = solve_revised(m, ctx);
  ASSERT_EQ(dense.status, revised.status);
  if (dense.optimal()) {
    EXPECT_NEAR(dense.objective, revised.objective, 1e-6);
    for (std::size_t v = 0; v < m.num_vars(); ++v) {
      EXPECT_GE(revised.x[v], lower[v] - 1e-7);
      EXPECT_LE(revised.x[v], upper[v] + 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RevisedSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(RevisedSimplex, InfeasibleModelDetected) {
  LpModel m;
  const VarId x = m.add_var(1.0);
  const VarId y = m.add_var(1.0);
  m.add_row(Sense::kLessEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  m.add_row(Sense::kGreaterEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  const LpSolution s = solve_revised(m);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, UnboundedModelDetected) {
  LpModel m;
  const VarId x = m.add_var(-1.0);
  const VarId y = m.add_var(0.0);
  m.add_row(Sense::kLessEqual, 0.0, {{x, 1.0}, {y, -1.0}});
  const LpSolution s = solve_revised(m);
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, CrossedOverlayBoundsAreInfeasible) {
  LpModel m;
  const VarId x = m.add_var(1.0);
  m.add_row(Sense::kLessEqual, 5.0, {{x, 1.0}});
  std::vector<double> lower{2.0};
  std::vector<double> upper{1.0};
  SolveContext ctx;
  ctx.lower = lower;
  ctx.upper = upper;
  const LpSolution s = solve_revised(m, ctx);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, SolvesAreBitwiseDeterministic) {
  std::mt19937_64 rng(42);
  const LpModel m = make_transportation(rng, 5, 6);
  RevisedSimplex a(m, SimplexOptions{});
  RevisedSimplex b(m, SimplexOptions{});
  const LpSolution sa = a.solve({}, {});
  const LpSolution sb = b.solve({}, {});
  ASSERT_TRUE(sa.optimal());
  ASSERT_TRUE(sb.optimal());
  ASSERT_EQ(sa.x.size(), sb.x.size());
  EXPECT_EQ(sa.iterations, sb.iterations);
  EXPECT_EQ(0, std::memcmp(sa.x.data(), sb.x.data(),
                           sa.x.size() * sizeof(double)));
  EXPECT_EQ(std::memcmp(&sa.objective, &sb.objective, sizeof(double)), 0);
}

// The B&B warm-restart contract: after a bound tightening the parent basis
// is dual feasible, so solve_warm must agree with a cold solve of the same
// overlay and should get there in a handful of dual pivots.
TEST(RevisedSimplex, DualWarmRestartMatchesColdSolveOnNodeSequences) {
  std::size_t warm_solves = 0;
  std::size_t dual_engaged = 0;
  std::vector<std::size_t> dual_pivots_per_warm;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const LpModel m = make_transportation(rng, 4, 5);
    RevisedSimplex warm_solver(m, SimplexOptions{});
    RevisedSimplex cold_solver(m, SimplexOptions{});
    std::vector<double> lower(m.num_vars(), 0.0);
    std::vector<double> upper(m.num_vars(), kInf);

    LpSolution parent = warm_solver.solve(lower, upper);
    ASSERT_TRUE(parent.optimal());
    SimplexBasis basis = warm_solver.basis();

    // Walk a B&B-like chain: repeatedly clamp the most fractional-looking
    // positive variable below its parent value, warm-restarting each time.
    std::uniform_int_distribution<std::size_t> pick(0, m.num_vars() - 1);
    for (int depth = 0; depth < 6; ++depth) {
      std::size_t v = pick(rng);
      bool found = false;
      for (std::size_t probe = 0; probe < m.num_vars(); ++probe) {
        const std::size_t cand = (v + probe) % m.num_vars();
        if (parent.x[cand] > lower[cand] + 0.5 && upper[cand] == kInf) {
          v = cand;
          found = true;
          break;
        }
      }
      if (!found) break;
      upper[v] = std::floor(parent.x[v] - 0.25);
      if (upper[v] < lower[v]) upper[v] = lower[v];

      const LpSolution warm = warm_solver.solve_warm(lower, upper, basis);
      ++warm_solves;
      dual_pivots_per_warm.push_back(warm_solver.stats().dual_pivots);
      if (warm_solver.stats().dual_pivots > 0) ++dual_engaged;
      const LpSolution cold = cold_solver.solve(lower, upper);
      ASSERT_EQ(warm.status, cold.status) << "seed=" << seed;
      if (!warm.optimal()) break;
      EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "seed=" << seed;
      // Warm restarts must be cheap: a handful of pivots, not a re-solve.
      EXPECT_LE(warm.iterations, cold.iterations + 5) << "seed=" << seed;
      parent = warm;
      basis = warm_solver.basis();
    }
  }
  ASSERT_GT(warm_solves, 0u);
  // The dual phase must actually engage (not silently cold-start), and the
  // median warm node must finish in <= 10 dual pivots (the ISSUE gate).
  EXPECT_GT(dual_engaged, 0u);
  std::sort(dual_pivots_per_warm.begin(), dual_pivots_per_warm.end());
  const std::size_t median =
      dual_pivots_per_warm[dual_pivots_per_warm.size() / 2];
  EXPECT_LE(median, 10u);
}

TEST(RevisedSimplex, ExpiredDeadlineStopsBeforePricing) {
  std::mt19937_64 rng(9);
  const LpModel m = make_transportation(rng, 5, 5);
  SimplexOptions opt;
  opt.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const LpSolution s = SimplexSolver(opt).solve(m);
  EXPECT_EQ(s.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(s.iterations, 0u);
}

// Satellite regression: a large LP with a near-future deadline must come
// back around the deadline (the BTRAN/FTRAN pricing loop polls it), not
// after running to optimality unchecked.
TEST(RevisedSimplex, DeadlineHonoredWithinToleranceOnLargeLp) {
  std::mt19937_64 rng(1234);
  const LpModel m = make_transportation(rng, 40, 40);  // 1600 cols, 80 rows
  SimplexOptions opt;
  opt.deadline_poll_pivots = 16;
  const auto start = std::chrono::steady_clock::now();
  opt.deadline = start + std::chrono::milliseconds(30);
  const LpSolution s = SimplexSolver(opt).solve(m);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Either the deadline fired (and the solve obeyed it promptly), or the
  // instance finished inside the budget — both respect the deadline. What
  // must never happen is a solve that blows far past it.
  EXPECT_LT(elapsed, 5.0);
  if (s.status != SolveStatus::kIterationLimit) {
    EXPECT_TRUE(s.optimal());
  }
}

// Independent MIP reference for a covering model (nonnegative
// coefficients, >= rows, positive costs): every integer variable is
// bounded by the value at which it alone satisfies each row it appears in
// (more only adds cost), so enumerating all integer assignments in that
// box and solving each continuous remainder on the dense tableau finds
// the optimum without any branch-and-bound.
double enumerated_covering_optimum(const LpModel& m) {
  const std::size_t n = m.num_vars();
  std::vector<VarId> ints;
  std::vector<double> cap(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (m.var(static_cast<VarId>(v)).integer) {
      ints.push_back(static_cast<VarId>(v));
    }
  }
  for (const Row& row : m.rows()) {
    for (const auto& [v, coef] : row.terms) {
      double& c = cap[static_cast<std::size_t>(v)];
      c = std::max(c, std::ceil(row.rhs / coef));
    }
  }
  std::vector<double> lower(n, 0.0);
  std::vector<double> upper(n, kInf);
  for (const VarId v : ints) upper[static_cast<std::size_t>(v)] = 0.0;
  double best = kInf;
  while (true) {
    SolveContext ctx;
    ctx.lower = lower;
    ctx.upper = upper;
    const LpSolution rest = solve_dense(m, ctx);
    if (rest.optimal()) best = std::min(best, rest.objective);
    // Odometer step over the integer box.
    std::size_t k = 0;
    for (; k < ints.size(); ++k) {
      const auto v = static_cast<std::size_t>(ints[k]);
      if (lower[v] < cap[v]) {
        lower[v] = upper[v] = lower[v] + 1.0;
        break;
      }
      lower[v] = upper[v] = 0.0;
    }
    if (k == ints.size()) return best;
  }
}

// MIP parity: the revised engine with dual warm restarts must reproduce the
// enumerated optimum for every worker count, and the dual warm restart
// must engage.
TEST(RevisedSimplex, MipParityAcrossWorkersAndDualEngagement) {
  std::mt19937_64 rng(77);
  LpModel m;
  std::uniform_real_distribution<double> cost(1.0, 4.0);
  std::vector<VarId> xs;
  for (int v = 0; v < 8; ++v) xs.push_back(m.add_var(cost(rng), v % 2 == 0));
  for (int r = 0; r < 6; ++r) {
    std::vector<std::pair<VarId, double>> terms;
    double sum = 0.0;
    for (int t = 0; t < 3; ++t) {
      const double c = cost(rng);
      terms.emplace_back(xs[static_cast<std::size_t>((r + t * 3) % 8)], c);
      sum += c;
    }
    m.add_row(Sense::kGreaterEqual, sum * 0.9, terms);
  }

  const double reference = enumerated_covering_optimum(m);
  ASSERT_LT(reference, kInf);

#if defined(APPLE_ENABLE_METRICS) && APPLE_ENABLE_METRICS
  const std::uint64_t dual_before =
      obs::default_registry().counter("lp.simplex.dual_pivots").value();
#endif
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    MipOptions mip;
    mip.num_workers = workers;
    const MipResult got = MipSolver(mip).solve(m);
    ASSERT_EQ(got.status, SolveStatus::kOptimal) << "workers=" << workers;
    EXPECT_NEAR(got.objective, reference, 1e-6) << "workers=" << workers;
  }
#if defined(APPLE_ENABLE_METRICS) && APPLE_ENABLE_METRICS
  const std::uint64_t dual_after =
      obs::default_registry().counter("lp.simplex.dual_pivots").value();
  EXPECT_GT(dual_after, dual_before)
      << "dual simplex never engaged across the B&B warm restarts";
#endif
}

}  // namespace
}  // namespace apple::lp
