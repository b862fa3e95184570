// Rule Generator (paper Sec. III, V-B): converts sub-class plans into the
// data-plane state — installs classes into an executable DataPlane and
// produces the TCAM accounting that Fig. 10 reports (tagging scheme vs
// per-switch classification).
#pragma once

#include <vector>

#include "core/placement.h"
#include "core/subclass_assigner.h"
#include "dataplane/data_plane.h"
#include "dataplane/rule_table.h"
#include "net/routing.h"

namespace apple::core {

struct RuleGenerationReport {
  // Physical-switch TCAM entries with the tagging scheme (Table III).
  std::size_t tcam_with_tagging = 0;
  // Baseline: classification repeated at every APPLE-host switch.
  std::size_t tcam_without_tagging = 0;
  // vSwitch entries inside APPLE hosts.
  std::size_t vswitch_rules = 0;

  double tcam_reduction_ratio() const {
    return tcam_with_tagging == 0
               ? 0.0
               : static_cast<double>(tcam_without_tagging) /
                     static_cast<double>(tcam_with_tagging);
  }
};

class RuleGenerator {
 public:
  explicit RuleGenerator(bool pipelined_switches = true)
      : pipelined_(pipelined_switches) {}

  // Installs every class (with its sub-class plans) into `dp` and
  // registers the inventory's instances. Throws std::invalid_argument when
  // `subclasses` does not hold one entry per class. The TCAM/vSwitch
  // report is `account`'s (an Epoch already carries it in Epoch::rules).
  void install(
      const PlacementInput& input,
      const std::vector<std::vector<dataplane::SubclassPlan>>& subclasses,
      const InstanceInventory& inventory, dataplane::DataPlane& dp) const;

  // The TCAM/vSwitch accounting of a set of sub-class plans. When
  // `routing` is given, the no-tagging baseline is charged on the full
  // equal-cost multipath union of each class (data-center topologies);
  // otherwise on the class's single installed path.
  RuleGenerationReport account(
      const PlacementInput& input,
      const std::vector<std::vector<dataplane::SubclassPlan>>& subclasses,
      const net::AllPairsPaths* routing = nullptr) const;

 private:
  bool pipelined_;
};

}  // namespace apple::core
