// Quickstart: the smallest end-to-end APPLE pipeline.
//
// Builds a 4-switch line network, two traffic classes with policy chains,
// runs the Optimization Engine, materializes VNF instances, assigns
// sub-classes, installs forwarding rules into the executable data plane,
// and finally walks a packet through it to show the policy chain being
// enforced in order on the unchanged forwarding path.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Observability: run with APPLE_TRACE=1 to dump the flight-recorder journal
// of every span (quickstart_trace.json; APPLE_TRACE=/path/to/file.json picks
// the destination). `apple_trace --chrome quickstart_chrome.json
// quickstart_trace.json` turns it into a file loadable in chrome://tracing
// or https://ui.perfetto.dev. See DESIGN.md Sec. 7 and 13.
#include <cstdio>

#include "core/optimization_engine.h"
#include "core/rule_generator.h"
#include "core/subclass_assigner.h"
#include "dataplane/data_plane.h"
#include "net/topologies.h"
#include "obs/obs.h"
#include "obs/trace.h"

int main() {
  using namespace apple;

  const obs::TraceRequest trace =
      obs::trace_request_from_env("quickstart_trace.json");

  // 1. Network: four SDN switches in a line, each with a 64-core APPLE host.
  const net::Topology topo = net::make_line(4, 64.0);

  // 2. Policies: one chain catalog (paper intro: firewall -> IDS -> proxy).
  const std::vector<vnf::PolicyChain> chains{
      {vnf::NfType::kFirewall, vnf::NfType::kIds, vnf::NfType::kProxy},
      {vnf::NfType::kNat, vnf::NfType::kFirewall},
  };

  // 3. Traffic classes (normally derived from a traffic matrix): the flows
  //    aggregated by (path, chain) per paper Sec. IV-A.
  std::vector<traffic::TrafficClass> classes(2);
  classes[0] = {0, 0, 3, {0, 1, 2, 3}, 0, 700.0};  // 700 Mbps, chain 0
  classes[1] = {1, 1, 3, {1, 2, 3}, 1, 400.0};     // 400 Mbps, chain 1

  core::PlacementInput input;
  input.topology = &topo;
  input.classes = classes;
  input.chains = chains;

  // 4. Optimization Engine (Sec. IV): minimize VNF instances subject to
  //    policy, capacity and host-resource constraints.
  core::EngineOptions options;
  options.strategy = core::PlacementStrategy::kExact;  // tiny -> exact ILP
  core::PlacementPlan plan;
  {
    // The nested core.engine.place / core.ilp.build / lp.* spans emitted
    // inside this scope nest under it in the trace view.
    APPLE_OBS_SPAN("example.quickstart.place");
    plan = core::OptimizationEngine(options).place(input);
  }
  if (!plan.feasible) {
    std::printf("placement infeasible: %s\n",
                plan.infeasibility_reason.c_str());
    return 1;
  }
  std::printf("placement: %llu instances, %.0f cores, solved in %.4f s (%s)\n",
              static_cast<unsigned long long>(plan.total_instances()),
              plan.total_cores(), plan.solve_seconds, plan.strategy.c_str());
  for (net::NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (std::size_t n = 0; n < vnf::kNumNfTypes; ++n) {
      if (plan.instance_count[v][n] > 0) {
        std::printf("  switch %u: %u x %s\n", v, plan.instance_count[v][n],
                    std::string(vnf::to_string(static_cast<vnf::NfType>(n)))
                        .c_str());
      }
    }
  }

  // 5. Sub-classes + rules (Sec. V): pin flows to instance sequences and
  //    install the tagging rules.
  {  // scope ends before the journal dump so this span's end is in the file
    APPLE_OBS_SPAN("example.quickstart.rules_and_walk");
    const auto inventory = core::materialize_inventory(input, plan);
    const auto subclasses = core::assign_subclasses(input, plan, inventory);
    dataplane::DataPlane dp(topo);
    core::RuleGenerator().install(input, subclasses, inventory, dp);
    const auto report = core::RuleGenerator().account(input, subclasses);
    std::printf("TCAM: %zu entries with tagging (vs %zu without, %.1fx)\n",
                report.tcam_with_tagging, report.tcam_without_tagging,
                report.tcam_reduction_ratio());

    // 6. Walk a packet of class 0 through the data plane.
    hsa::PacketHeader h;
    h.src_ip = hsa::parse_ipv4("10.1.1.7");
    h.dst_ip = hsa::parse_ipv4("10.2.0.9");
    h.dst_port = 80;
    h.proto = 6;
    const auto walk = dp.walk(0, h);
    if (!walk.delivered) {
      std::printf("walk failed: %s\n", walk.error.c_str());
      return 1;
    }
    std::printf("packet walk (class 0): switches");
    for (const net::NodeId v : walk.packet.switch_trace) std::printf(" %u", v);
    std::printf(" | NFs");
    for (const vnf::NfType t : dp.traversed_types(walk.packet)) {
      std::printf(" %s", std::string(vnf::to_string(t)).c_str());
    }
    std::printf("\npolicy enforced in order on the original path — done.\n");
  }

  if (trace.enabled) {
    if (obs::default_event_log().write_json(trace.path)) {
      std::printf("flight journal written to %s (apple_trace --chrome "
                  "converts it)\n", trace.path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n",
                   trace.path.c_str());
    }
  }
  return 0;
}
