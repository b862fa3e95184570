// Linear/integer program model, built by the Optimization Engine and solved
// by the simplex / branch-and-bound solvers in this module. The paper solves
// the placement ILP of Sec. IV-D with CPLEX; this module is the from-scratch
// replacement (see DESIGN.md substitution table).
//
// Canonical form accepted here:
//   minimize    c' x
//   subject to  a_r' x  {<=, >=, =}  b_r     for each row r
//               x >= 0 (all variables), x_i integer for integer variables
//
// Upper bounds must be expressed as rows when needed; the APPLE placement
// model never needs them (the d-variables are bounded by their completion
// equalities, the q-variables by the resource rows).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace apple::lp {

using VarId = std::int32_t;
using RowId = std::int32_t;

enum class Sense { kLessEqual, kGreaterEqual, kEqual };

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* to_string(SolveStatus s);

struct Variable {
  double objective = 0.0;
  bool integer = false;
  std::string name;
};

struct Row {
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
  std::vector<std::pair<VarId, double>> terms;  // sorted by VarId, merged
  std::string name;
};

class LpModel {
 public:
  // Adds a variable with x >= 0 and the given objective coefficient.
  VarId add_var(double objective, bool integer = false, std::string name = {});

  // Adds a constraint row. Duplicate variable terms are merged; zero
  // coefficients are dropped.
  RowId add_row(Sense sense, double rhs,
                std::span<const std::pair<VarId, double>> terms,
                std::string name = {});
  RowId add_row(Sense sense, double rhs,
                std::initializer_list<std::pair<VarId, double>> terms,
                std::string name = {});

  std::size_t num_vars() const { return vars_.size(); }
  std::size_t num_rows() const { return rows_.size(); }
  const Variable& var(VarId v) const { return vars_.at(v); }
  const Row& row(RowId r) const { return rows_.at(r); }
  std::span<const Variable> vars() const { return vars_; }
  std::span<const Row> rows() const { return rows_; }

  bool has_integer_vars() const;

  // Objective value of an assignment (no feasibility check).
  double objective_value(std::span<const double> x) const;

  // Max constraint violation of an assignment (0 when feasible).
  double max_violation(std::span<const double> x) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Row> rows_;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  std::size_t iterations = 0;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

}  // namespace apple::lp
