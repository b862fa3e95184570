#include "core/ilp_builder.h"

#include <cmath>
#include <string>

#include "obs/obs.h"

namespace apple::core {

IlpBuilder::IlpBuilder(const PlacementInput& input, bool integral_q) {
  APPLE_OBS_SPAN("core.ilp.build");
  input.validate();
  const net::Topology& topo = *input.topology;

  // Which (v, n) pairs can receive load at all? Only switches that appear
  // on some class path whose chain contains n need a q variable.
  std::vector<std::array<bool, vnf::kNumNfTypes>> needed(
      topo.num_nodes(), std::array<bool, vnf::kNumNfTypes>{});
  for (const traffic::TrafficClass& cls : input.classes) {
    const vnf::PolicyChain& chain = input.chain_of(cls);
    for (const net::NodeId v : cls.path) {
      if (!topo.node(v).has_host()) continue;
      for (const vnf::NfType n : chain) {
        needed[v][static_cast<std::size_t>(n)] = true;
      }
    }
  }

  // q variables (Eq. 1 objective, Eq. 7 integrality).
  q_index_.assign(topo.num_nodes(), {kInvalidVar, kInvalidVar, kInvalidVar,
                                     kInvalidVar});
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (!needed[v][n]) continue;
      q_index_[v][n] = model_.add_var(
          /*objective=*/1.0, integral_q,
          "q_v" + std::to_string(v) + "_" +
              std::string(vnf::to_string(static_cast<vnf::NfType>(n))));
    }
  }

  // d variables. Hosts-less switches cannot process: their d vars are not
  // created (treated as 0).
  d_index_.resize(input.classes.size());
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    d_index_[h].assign(cls.path.size(),
                       std::vector<lp::VarId>(chain.size(), kInvalidVar));
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      if (!topo.node(cls.path[i]).has_host()) continue;
      for (std::size_t j = 0; j < chain.size(); ++j) {
        d_index_[h][i][j] = model_.add_var(
            0.0, false,
            "d_h" + std::to_string(h) + "_i" + std::to_string(i) + "_j" +
                std::to_string(j));
      }
    }
  }

  // Eq. 4 (completion) and Eq. 2+3 (precedence via prefix sums).
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    for (std::size_t j = 0; j < chain.size(); ++j) {
      std::vector<std::pair<lp::VarId, double>> row;
      for (std::size_t i = 0; i < cls.path.size(); ++i) {
        if (d_index_[h][i][j] != kInvalidVar) {
          row.emplace_back(d_index_[h][i][j], 1.0);
        }
      }
      model_.add_row(lp::Sense::kEqual, 1.0, row,
                     "complete_h" + std::to_string(h) + "_j" +
                         std::to_string(j));
    }
    for (std::size_t j = 1; j < chain.size(); ++j) {
      // One prefix row per path position (the final position is implied by
      // Eq. 4 on both stages, so it is skipped).
      for (std::size_t i = 0; i + 1 < cls.path.size(); ++i) {
        std::vector<std::pair<lp::VarId, double>> row;
        for (std::size_t k = 0; k <= i; ++k) {
          if (d_index_[h][k][j] != kInvalidVar) {
            row.emplace_back(d_index_[h][k][j], 1.0);
          }
          if (d_index_[h][k][j - 1] != kInvalidVar) {
            row.emplace_back(d_index_[h][k][j - 1], -1.0);
          }
        }
        if (row.empty()) continue;
        model_.add_row(lp::Sense::kLessEqual, 0.0, row,
                       "order_h" + std::to_string(h) + "_i" +
                           std::to_string(i) + "_j" + std::to_string(j));
      }
    }
  }

  // Eq. 5 (capacity) per (v, n) with a q variable.
  std::vector<std::array<std::vector<std::pair<lp::VarId, double>>,
                         vnf::kNumNfTypes>>
      cap_rows(topo.num_nodes());
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        if (d_index_[h][i][j] == kInvalidVar) continue;
        cap_rows[cls.path[i]][static_cast<std::size_t>(chain[j])]
            .emplace_back(d_index_[h][i][j], cls.rate_mbps);
      }
    }
  }
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (q_index_[v][n] == kInvalidVar) continue;
      auto row = cap_rows[v][n];
      row.emplace_back(
          q_index_[v][n],
          -vnf::spec_of(static_cast<vnf::NfType>(n)).capacity_mbps);
      model_.add_row(lp::Sense::kLessEqual, 0.0, row,
                     "cap_v" + std::to_string(v) + "_n" + std::to_string(n));
    }
  }

  // Eq. 6 (host resources) per switch with any q variable.
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (q_index_[v][n] == kInvalidVar) continue;
      row.emplace_back(q_index_[v][n],
                       vnf::spec_of(static_cast<vnf::NfType>(n)).cores_required);
    }
    if (row.empty()) continue;
    model_.add_row(lp::Sense::kLessEqual, topo.node(v).host_cores, row,
                   "res_v" + std::to_string(v));
  }

  APPLE_OBS_COUNT("core.ilp.builds");
  APPLE_OBS_GAUGE_SET("core.ilp.last_model_vars", model_.num_vars());
  APPLE_OBS_GAUGE_SET("core.ilp.last_model_rows", model_.num_rows());
}

lp::VarId IlpBuilder::d_var(std::size_t class_index, std::size_t path_index,
                            std::size_t stage) const {
  return d_index_.at(class_index).at(path_index).at(stage);
}

lp::VarId IlpBuilder::q_var(net::NodeId v, vnf::NfType n) const {
  return q_index_.at(v)[static_cast<std::size_t>(n)];
}

PlacementPlan IlpBuilder::extract_plan(const PlacementInput& input,
                                       std::span<const double> x) const {
  PlacementPlan plan;
  plan.instance_count.assign(input.topology->num_nodes(),
                             std::array<std::uint32_t, vnf::kNumNfTypes>{});
  for (net::NodeId v = 0; v < input.topology->num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      const lp::VarId var = q_index_[v][n];
      if (var == kInvalidVar) continue;
      plan.instance_count[v][n] =
          static_cast<std::uint32_t>(std::lround(std::max(0.0, x[var])));
    }
  }
  plan.distribution.reserve(input.classes.size());
  for (std::size_t h = 0; h < input.classes.size(); ++h) {
    const traffic::TrafficClass& cls = input.classes[h];
    const vnf::PolicyChain& chain = input.chain_of(cls);
    ClassDistribution& d =
        plan.distribution.emplace_back(cls.path.size(), chain.size());
    for (std::size_t i = 0; i < cls.path.size(); ++i) {
      for (std::size_t j = 0; j < chain.size(); ++j) {
        const lp::VarId var = d_index_[h][i][j];
        if (var != kInvalidVar) d(i, j) = std::max(0.0, x[var]);
      }
    }
  }
  return plan;
}

}  // namespace apple::core
