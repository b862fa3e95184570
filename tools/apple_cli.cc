// apple_cli — drive the APPLE pipeline from the command line.
//
// Examples:
//   apple_cli --topology internet2 --total-mbps 6000 --snapshots 32
//   apple_cli --topology geant --strategy lp-round --no-failover
//   apple_cli --topology univ1 --tm-series series.csv --reoptimize 8
//   apple_cli --topology as3679 --export-lp model.lp --snapshots 0
//   apple_cli --topology-file mynet.topo --total-mbps 2000
//
// The topology file format is documented in src/net/topology_io.h; the
// traffic CSV format in src/traffic/matrix_io.h.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/apple_controller.h"
#include "ctrl/admission.h"
#include "ctrl/multi_domain.h"
#include "exec/thread_pool.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "core/fault_replay.h"
#include "core/ilp_builder.h"
#include "fault/fault_schedule.h"
#include "lp/lp_format.h"
#include "net/topologies.h"
#include "net/topology_io.h"
#include "traffic/matrix_io.h"

namespace {

using namespace apple;

struct Options {
  std::string topology = "internet2";
  std::string topology_file;
  std::string tm_series_file;
  std::string export_lp;
  double total_mbps = 6000.0;
  std::size_t snapshots = 32;
  std::string strategy = "greedy";
  std::size_t workers = 1;
  bool failover = true;
  double policied = 0.5;
  std::size_t reoptimize = 0;
  std::size_t scale_classes = 0;  // target class count (0 = classic regime)
  std::size_t domains = 0;        // multi-domain control plane (0 = off)
  std::uint64_t seed = 1;
  std::string faults;  // schedule spec, e.g. "crashes=2,link-flaps=1"
  std::string metrics_path;  // write the metrics snapshot here after the run
  std::string flight_path;   // write the flight-recorder journal here
};

void usage() {
  std::puts(
      "usage: apple_cli [options]\n"
      "  --topology internet2|geant|univ1|as3679   evaluation topology\n"
      "  --topology-file <path>                    custom topology file\n"
      "  --tm-series <path>                        replay this CSV series\n"
      "  --total-mbps <x>                          synthetic load (default 6000)\n"
      "  --snapshots <n>                           synthetic snapshots (default 32; 0 = no replay)\n"
      "  --strategy greedy|lp-round|exact          placement strategy\n"
      "  --workers <n>                             worker lanes (default 1): B&B nodes per\n"
      "                                            round for exact, the --domains fan-out\n"
      "  --no-failover                             disable the Dynamic Handler\n"
      "  --policied <f>                            policied OD fraction (default 0.5)\n"
      "  --reoptimize <n>                          re-run the engine every n snapshots\n"
      "  --scale-classes <n>                       target at least n traffic classes by\n"
      "                                            fanning each policied OD pair over a\n"
      "                                            synthetic policy-chain catalog (the\n"
      "                                            sharded-store scale regime)\n"
      "  --domains <k>                             shard the control plane into k domains\n"
      "                                            (DESIGN.md Sec. 16): partition, per-domain\n"
      "                                            bring-up, then a seeded policy-update burst\n"
      "                                            through the admission front-end; exits\n"
      "                                            nonzero on any policy violation\n"
      "  --export-lp <path>                        dump the placement ILP in LP format\n"
      "  --seed <s>                                synthesis seed\n"
      "  --metrics <path>                          write the metrics snapshot\n"
      "                                            (counters/gauges/histograms\n"
      "                                            as JSON) after the run\n"
      "  --flight <path>                           write the flight-recorder\n"
      "                                            event journal after the run;\n"
      "                                            also arms the crash dump\n"
      "                                            (flight_<pid>.json on any\n"
      "                                            APPLE_CHECK failure)\n"
      "  --faults <spec>                           replay under a seeded fault schedule;\n"
      "                                            spec is key=value[,...] with keys\n"
      "                                            crashes, node-failures, link-flaps,\n"
      "                                            boot-failures, slow-boots, rule-failures,\n"
      "                                            bursts, seed, start, horizon\n"
      "                                            (e.g. \"crashes=2,link-flaps=1,seed=7\")");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return std::nullopt;
    } else if (arg == "--topology") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.topology = v;
    } else if (arg == "--topology-file") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.topology_file = v;
    } else if (arg == "--tm-series") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.tm_series_file = v;
    } else if (arg == "--total-mbps") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.total_mbps = std::stod(v);
    } else if (arg == "--snapshots") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.snapshots = std::stoul(v);
    } else if (arg == "--strategy") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.strategy = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.workers = std::stoul(v);
    } else if (arg == "--no-failover") {
      opt.failover = false;
    } else if (arg == "--policied") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.policied = std::stod(v);
    } else if (arg == "--reoptimize") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.reoptimize = std::stoul(v);
    } else if (arg == "--scale-classes") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.scale_classes = std::stoul(v);
    } else if (arg == "--domains") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.domains = std::stoul(v);
    } else if (arg == "--export-lp") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.export_lp = v;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.seed = std::stoull(v);
    } else if (arg == "--faults") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.faults = v;
    } else if (arg == "--metrics") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.metrics_path = v;
    } else if (arg == "--flight") {
      const char* v = value();
      if (!v) return std::nullopt;
      opt.flight_path = v;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage();
      return std::nullopt;
    }
  }
  return opt;
}

net::Topology load_topology(const Options& opt) {
  if (!opt.topology_file.empty()) {
    std::ifstream in(opt.topology_file);
    if (!in) throw std::runtime_error("cannot open " + opt.topology_file);
    return net::load_topology(in);
  }
  if (opt.topology == "internet2") return net::make_internet2();
  if (opt.topology == "geant") return net::make_geant();
  if (opt.topology == "univ1") return net::make_univ1();
  if (opt.topology == "as3679") return net::make_as3679();
  throw std::runtime_error("unknown topology " + opt.topology);
}

core::PlacementStrategy strategy_of(const std::string& name) {
  if (name == "greedy") return core::PlacementStrategy::kGreedy;
  if (name == "lp-round") return core::PlacementStrategy::kLpRound;
  if (name == "exact") return core::PlacementStrategy::kExact;
  throw std::runtime_error("unknown strategy " + name);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  if (!opt) return argc > 1 && std::string(argv[1]) == "--help" ? 0 : 2;
  if (!opt->flight_path.empty()) obs::install_flight_crash_dump();
  // Observability artifacts are written on every exit path (including the
  // fault-replay gate failing) — a failed run is exactly when the flight
  // journal matters.
  const auto write_observability = [&opt] {
    if (!opt->metrics_path.empty()) {
      obs::default_event_log().export_counters(obs::default_registry());
      if (obs::default_registry().write_snapshot_json(opt->metrics_path)) {
        std::printf("metrics snapshot written to %s\n",
                    opt->metrics_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", opt->metrics_path.c_str());
      }
    }
    if (!opt->flight_path.empty()) {
      if (obs::default_event_log().write_json(opt->flight_path)) {
        std::printf("flight journal written to %s\n",
                    opt->flight_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", opt->flight_path.c_str());
      }
    }
  };
  try {
    const net::Topology topo = load_topology(*opt);
    std::printf("topology: %s (%zu switches, %zu links, %.0f cores/host)\n",
                topo.name().c_str(), topo.num_nodes(), topo.num_links(),
                topo.num_nodes() ? topo.node(0).host_cores : 0.0);

    // Multi-domain regime (--domains K): partition the topology, bring up K
    // per-domain controllers, then push a seeded policy-update burst through
    // the admission front-end (DESIGN.md Sec. 16). Self-contained — the
    // classic single-controller replay below does not run.
    if (opt->domains > 0) {
      const std::span<const vnf::PolicyChain> chains =
          vnf::default_policy_chains();
      const net::AllPairsPaths routing(topo);
      const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
          topo.num_nodes(), {.total_mbps = opt->total_mbps, .seed = opt->seed});
      std::vector<traffic::TrafficClass> classes = traffic::build_classes(
          topo, routing, tm,
          traffic::uniform_chain_assignment(chains.size(), /*seed=*/0,
                                            opt->policied));

      ctrl::DomainConfig config;
      config.num_domains = opt->domains;
      config.seed = opt->seed;
      exec::ThreadPool pool(opt->workers > 0 ? opt->workers - 1 : 0);
      ctrl::MultiDomainController mdc(topo, chains, config, {}, &pool);
      const ctrl::ApplyReport boot = mdc.initialize(std::move(classes));
      std::printf("multi-domain: %zu domains (seed %llu), %zu cut links, "
                  "%llu instances, %zu conflicts at bring-up\n",
                  mdc.num_domains(),
                  static_cast<unsigned long long>(opt->seed),
                  mdc.partition().cut_links.size(),
                  static_cast<unsigned long long>(mdc.total_instances()),
                  boot.conflicts);
      for (std::size_t d = 0; d < mdc.num_domains(); ++d) {
        const ctrl::DomainStatus status = mdc.domain_status(d);
        std::printf("  domain %zu: %zu nodes, %zu classes (%zu cross-domain), "
                    "%llu instances\n",
                    d, status.nodes, status.classes,
                    status.cross_domain_classes,
                    static_cast<unsigned long long>(status.instances));
      }

      // Seeded admission burst: adds/modifies/removes over valid OD pairs,
      // batched on a synthetic clock and two-phase-committed.
      ctrl::AdmissionQueue queue(topo, mdc.partition(), chains.size());
      constexpr std::size_t kBurst = 96;
      double clock = 0.0;
      std::size_t applied = 0, batches = 0, conflicts = 0;
      for (std::size_t i = 0; i <= kBurst; ++i) {
        if (i < kBurst) {
          const std::uint64_t h = traffic::detail::mix64(opt->seed ^ (i + 1));
          ctrl::PolicyRequest r;
          r.kind = static_cast<ctrl::PolicyRequest::Kind>(h % 3);
          r.src = static_cast<net::NodeId>(h % topo.num_nodes());
          r.dst = static_cast<net::NodeId>((h >> 16) % topo.num_nodes());
          if (r.dst == r.src) {
            r.dst = static_cast<net::NodeId>((r.src + 1) % topo.num_nodes());
          }
          r.chain_id = static_cast<traffic::ChainId>((h >> 32) % chains.size());
          r.rate_mbps = 10.0 + static_cast<double>((h >> 40) % 90);
          queue.submit(r, clock);
          clock += 0.01;
        } else {
          clock += queue.config().batching_window_s;  // flush the tail
        }
        if (queue.batch_ready(clock)) {
          const ctrl::ApplyReport report = mdc.apply(queue.drain(clock));
          ++batches;
          applied += report.requests_applied;
          conflicts += report.conflicts;
        }
      }
      std::printf("admission burst: %zu requests -> %zu batches, %zu applied, "
                  "%zu reconcile conflicts, %zu classes now\n",
                  kBurst, batches, applied, conflicts, mdc.total_classes());

      fault::RecoveryMonitor monitor;
      std::size_t probes = 0;
      for (std::size_t d = 0; d < mdc.num_domains(); ++d) {
        const auto domain_probes = mdc.probes_for_domain(d);
        monitor.verify_policies(mdc.domain_dataplane(d), domain_probes);
        probes += domain_probes.size();
      }
      std::printf("policy probes %zu, violations %zu%s\n", probes,
                  monitor.policy_violations(),
                  monitor.policy_violations() == 0 ? " (interference-free)"
                                                   : "");
      write_observability();
      return monitor.policy_violations() == 0 ? 0 : 1;
    }

    core::ControllerConfig cfg;
    cfg.engine.strategy = strategy_of(opt->strategy);
    cfg.engine.mip.num_workers = opt->workers;
    cfg.policied_fraction = opt->policied;
    cfg.reoptimize_every = opt->reoptimize;
    cfg.snapshot_duration = 0.5;
    cfg.tick = 0.05;

    // Scale regime (--scale-classes): fan every policied OD pair out over
    // enough chains from a synthetic catalog to reach the target count.
    std::vector<vnf::PolicyChain> scaled_chains;
    std::span<const vnf::PolicyChain> chain_set = vnf::default_policy_chains();
    if (opt->scale_classes > 0) {
      const std::size_t pairs = topo.num_nodes() * (topo.num_nodes() - 1);
      const auto policied_pairs = static_cast<std::size_t>(
          static_cast<double>(pairs) * opt->policied);
      if (policied_pairs == 0) {
        throw std::runtime_error(
            "--scale-classes needs policied OD pairs (--policied > 0)");
      }
      cfg.chains_per_pair =
          (opt->scale_classes + policied_pairs - 1) / policied_pairs;
      scaled_chains = vnf::scaled_policy_chains(
          std::max(cfg.chains_per_pair, chain_set.size()));
      chain_set = scaled_chains;
      cfg.min_class_rate_mbps = 1e-6;
      std::printf("scale: >= %zu classes over %zu policied pairs x %zu "
                  "chains/pair (%zu-chain catalog, %zu store shards)\n",
                  opt->scale_classes, policied_pairs, cfg.chains_per_pair,
                  chain_set.size(), cfg.class_shards);
    }
    const core::AppleController controller(topo, chain_set, cfg);

    // Traffic: either a CSV series or synthetic diurnal snapshots.
    std::vector<traffic::TrafficMatrix> series;
    if (!opt->tm_series_file.empty()) {
      std::ifstream in(opt->tm_series_file);
      if (!in) throw std::runtime_error("cannot open " + opt->tm_series_file);
      series = traffic::load_series_csv(in);
    } else if (opt->snapshots > 0) {
      const traffic::TrafficMatrix base = traffic::make_gravity_matrix(
          topo.num_nodes(), {.total_mbps = opt->total_mbps, .seed = opt->seed});
      traffic::DiurnalConfig diurnal;
      diurnal.num_snapshots = opt->snapshots;
      diurnal.seed = opt->seed + 1;
      series = traffic::make_diurnal_series(base, diurnal);
      traffic::BurstConfig bursts;
      bursts.seed = opt->seed + 2;
      traffic::inject_bursts(series, bursts);
    }
    const traffic::TrafficMatrix mean =
        series.empty()
            ? traffic::make_gravity_matrix(
                  topo.num_nodes(),
                  {.total_mbps = opt->total_mbps, .seed = opt->seed})
            : traffic::mean_matrix(series);

    const core::Epoch epoch = controller.optimize(mean);
    std::printf(
        "placement (%s): %zu classes, %llu instances, %.0f cores, %.3f s\n",
        epoch.plan.strategy.c_str(), epoch.classes.size(),
        static_cast<unsigned long long>(epoch.plan.total_instances()),
        epoch.plan.total_cores(), epoch.plan.solve_seconds);
    std::printf("rules: %zu TCAM entries with tagging, %zu without (%.2fx), "
                "%zu vSwitch entries\n",
                epoch.rules.tcam_with_tagging,
                epoch.rules.tcam_without_tagging,
                epoch.rules.tcam_reduction_ratio(), epoch.rules.vswitch_rules);

    if (!opt->export_lp.empty()) {
      core::PlacementInput input;
      input.topology = &topo;
      input.classes = epoch.classes;
      input.chains = controller.chains();
      const core::IlpBuilder builder(input);
      std::ofstream out(opt->export_lp);
      if (!out) throw std::runtime_error("cannot write " + opt->export_lp);
      lp::write_lp_format(builder.model(), out);
      std::printf("ILP exported to %s (%zu vars, %zu rows)\n",
                  opt->export_lp.c_str(), builder.model().num_vars(),
                  builder.model().num_rows());
    }

    if (!opt->faults.empty()) {
      if (series.empty()) {
        throw std::runtime_error(
            "--faults needs a snapshot series to replay "
            "(--snapshots > 0 or --tm-series)");
      }
      const fault::ScheduleConfig fault_cfg =
          fault::parse_schedule_spec(opt->faults);
      const fault::FaultSchedule schedule =
          fault::make_schedule(topo, fault_cfg);
      const core::FaultReplayResult result =
          core::replay_with_faults(controller, epoch, series, schedule);
      const fault::RecoveryReport& rec = result.recovery;
      std::printf("fault replay: %zu events (%zu faults), seed %llu\n",
                  schedule.size(), schedule.num_faults(),
                  static_cast<unsigned long long>(fault_cfg.seed));
      std::printf("  injected %zu, detected %zu, repaired %zu, skipped %zu\n",
                  rec.injected, rec.detected, rec.repaired,
                  result.faults_skipped);
      std::printf("  detect latency  p50 %.3f s, p99 %.3f s\n",
                  rec.detect_latency.p50, rec.detect_latency.p99);
      std::printf("  repair latency  p50 %.3f s, p99 %.3f s\n",
                  rec.repair_latency.p50, rec.repair_latency.p99);
      std::printf("  blackholed %.1f Mbit, mean loss %.4f, "
                  "boot retries %zu, rule retries %zu\n",
                  rec.traffic_lost_mbit + rec.unattributed_lost_mbit,
                  result.mean_loss, result.boot_retries, result.rule_retries);
      std::printf("  policy probes %zu, violations %zu%s\n",
                  rec.policy_probes, rec.policy_violations,
                  rec.policy_violations == 0 ? " (interference-free)" : "");
      if (!rec.all_repaired() || rec.policy_violations != 0) {
        std::fprintf(stderr, "fault replay FAILED the recovery gate\n");
        write_observability();
        return 1;
      }
      write_observability();
      return 0;
    }

    if (!series.empty()) {
      const core::ReplayReport report =
          controller.replay(epoch, series, opt->failover);
      std::printf("replay: %zu snapshots, %zu epoch(s), fast failover %s\n",
                  series.size(), report.epochs,
                  opt->failover ? "on" : "off");
      std::printf("  mean loss %.4f, max loss %.4f\n", report.mean_loss,
                  report.max_loss);
      if (opt->failover) {
        std::printf("  failover: %zu overloads, %zu launches, extra cores "
                    "avg %.1f / peak %.0f\n",
                    report.failover.overload_events,
                    report.failover.instances_launched,
                    report.failover.mean_extra_cores(),
                    report.failover.peak_extra_cores);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    write_observability();
    return 1;
  }
  write_observability();
  return 0;
}
