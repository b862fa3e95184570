// Placement problem types shared by the Optimization Engine, the sub-class
// assigner and the baselines: the inputs of paper Sec. IV-C and the
// solution variables of Sec. IV-D (d^i_{h,j} and q^v_n).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/topology.h"
#include "traffic/flow_classes.h"
#include "vnf/nf_types.h"

namespace apple::core {

// Inputs of the optimization problem (Sec. IV-C): topology (A_v via
// host_cores), classes (P_h, T_h, chain ids), and the chain catalog C_h.
// The VNF capacity/resource vectors (Cap_n, R_n) come from vnf::nf_catalog.
struct PlacementInput {
  const net::Topology* topology = nullptr;
  std::span<const traffic::TrafficClass> classes;
  std::span<const vnf::PolicyChain> chains;  // indexed by TrafficClass::chain_id

  const vnf::PolicyChain& chain_of(const traffic::TrafficClass& cls) const {
    return chains[cls.chain_id];
  }

  // Throws std::invalid_argument when ids/paths are inconsistent.
  void validate() const;
};

// Traffic distribution of one class: (i, j) is d^i_{h,j}, the share of the
// class processed for chain stage j at the host of the i-th path switch.
// One row-major [path position][chain stage] block per class; the accessor
// is unchecked, like std::vector::operator[] (check_plan verifies shapes).
class ClassDistribution {
 public:
  ClassDistribution() = default;
  // All-zero distribution of a class with `positions` path switches and a
  // `stages`-long chain.
  ClassDistribution(std::size_t positions, std::size_t stages)
      : positions_(positions), stages_(stages), d_(positions * stages, 0.0) {}

  std::size_t positions() const { return positions_; }
  std::size_t stages() const { return stages_; }
  double& operator()(std::size_t i, std::size_t j) {
    return d_[i * stages_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return d_[i * stages_ + j];
  }

  bool operator==(const ClassDistribution&) const = default;

 private:
  std::size_t positions_ = 0;
  std::size_t stages_ = 0;
  std::vector<double> d_;
};

// A full placement: q (instances per switch per NF type) and d.
struct PlacementPlan {
  // instance_count[v][n] = q_n^v.
  std::vector<std::array<std::uint32_t, vnf::kNumNfTypes>> instance_count;
  // distribution[h] aligned with PlacementInput::classes order.
  std::vector<ClassDistribution> distribution;

  bool feasible = false;
  std::string infeasibility_reason;
  double solve_seconds = 0.0;
  double lower_bound = 0.0;  // proven bound on total instances (0 = none)
  std::string strategy;

  // Objective of Eq. (1): total number of VNF instances.
  std::uint64_t total_instances() const;
  // Total CPU cores consumed (Fig. 11 metric).
  double total_cores() const;
  std::uint32_t instances_of(net::NodeId v, vnf::NfType n) const {
    return instance_count[v][static_cast<std::size_t>(n)];
  }
};

// Verifies a plan against the constraints of Sec. IV-D: completion (Eq. 4),
// precedence (Eq. 2-3), capacity (Eq. 5), resources (Eq. 6), bounds
// (Eq. 7-8). Returns an empty string when every constraint holds, otherwise
// a human-readable description of the first violation. `tolerance` absorbs
// floating-point noise.
std::string check_plan(const PlacementInput& input, const PlacementPlan& plan,
                       double tolerance = 1e-6);

}  // namespace apple::core
