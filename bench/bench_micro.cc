// Microbenchmarks (google-benchmark) for the substrates behind the
// evaluation: BDD/atomic-predicate classification, the simplex/MIP stack,
// routing, placement, sub-class decomposition and rule generation.
// Not a paper artifact — used to watch for performance regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/apple_controller.h"
#include "core/epoch_pipeline.h"
#include "core/live_system.h"
#include "core/optimization_engine.h"
#include "core/rule_generator.h"
#include "core/subclass_assigner.h"
#include "hsa/atomic.h"
#include "hsa/classifier.h"
#include "lp/basis_lu.h"
#include "lp/mip.h"
#include "lp/simplex.h"
#include "lp/sparse.h"
#include "net/routing.h"
#include "net/topologies.h"
#include "sim/event_queue.h"
#include "traffic/class_store.h"
#include "traffic/flow_classes.h"
#include "traffic/synthesis.h"

namespace {

using namespace apple;

void BM_BddIntersectPrefixes(benchmark::State& state) {
  for (auto _ : state) {
    hsa::BddManager mgr = hsa::make_header_space_manager();
    const hsa::PredicateBuilder b(mgr);
    hsa::BddRef acc = hsa::kBddTrue;
    for (int i = 0; i < 16; ++i) {
      acc = mgr.apply_and(
          acc, b.prefix(hsa::Field::kSrcIp, 0x0a000000u + i * 77u, 24));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_BddIntersectPrefixes);

void BM_AtomicPredicates(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    hsa::BddManager mgr = hsa::make_header_space_manager();
    const hsa::PredicateBuilder b(mgr);
    std::vector<hsa::BddRef> preds;
    for (int i = 0; i < n; ++i) {
      preds.push_back(
          b.prefix(hsa::Field::kSrcIp, 0x0a000000u + i * 1315423911u, 16));
    }
    benchmark::DoNotOptimize(compute_atomic_predicates(mgr, preds));
  }
}
BENCHMARK(BM_AtomicPredicates)->Arg(4)->Arg(8)->Arg(12);

void BM_FlowHash(benchmark::State& state) {
  hsa::PacketHeader h;
  h.src_ip = 0x0a010203;
  h.dst_ip = 0xc0a80105;
  std::uint32_t salt = 0;
  for (auto _ : state) {
    h.src_port = static_cast<std::uint16_t>(++salt);
    benchmark::DoNotOptimize(hsa::flow_hash_unit(h));
  }
}
BENCHMARK(BM_FlowHash);

void BM_SimplexTransportation(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  lp::LpModel model;
  std::vector<std::vector<lp::VarId>> x(size, std::vector<lp::VarId>(size));
  for (int s = 0; s < size; ++s) {
    for (int d = 0; d < size; ++d) {
      x[s][d] = model.add_var(1.0 + ((s * 7 + d * 13) % 10));
    }
  }
  for (int s = 0; s < size; ++s) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (int d = 0; d < size; ++d) row.emplace_back(x[s][d], 1.0);
    model.add_row(lp::Sense::kEqual, 10.0, row);
  }
  for (int d = 0; d < size; ++d) {
    std::vector<std::pair<lp::VarId, double>> row;
    for (int s = 0; s < size; ++s) row.emplace_back(x[s][d], 1.0);
    model.add_row(lp::Sense::kEqual, 10.0, row);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::SimplexSolver().solve(model));
  }
}
BENCHMARK(BM_SimplexTransportation)->Arg(8)->Arg(16);

// Random sparse LP with mixed row senses, feasible at x = 1 by
// construction (<= rows get slack above the row sum at 1, >= rows slack
// below, = rows pin it exactly). Density is the probability a variable
// appears in a row, so the revised engine's CSC advantage scales with it.
lp::LpModel make_random_sparse_lp(std::size_t vars, std::size_t rows,
                                  double density, std::uint64_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cost(0.5, 3.0);
  std::uniform_real_distribution<double> coef(0.5, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  lp::LpModel model;
  std::vector<lp::VarId> x;
  x.reserve(vars);
  for (std::size_t j = 0; j < vars; ++j) x.push_back(model.add_var(cost(rng)));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::pair<lp::VarId, double>> row;
    double sum = 0.0;
    for (std::size_t j = 0; j < vars; ++j) {
      if (coin(rng) >= density) continue;
      const double a = coef(rng);
      row.emplace_back(x[j], a);
      sum += a;
    }
    if (row.empty()) {
      const double a = coef(rng);
      row.emplace_back(x[i % vars], a);
      sum = a;
    }
    const int sense = static_cast<int>(i % 3);
    if (sense == 0) {
      model.add_row(lp::Sense::kLessEqual, sum + 1.0, row);
    } else if (sense == 1) {
      model.add_row(lp::Sense::kGreaterEqual, sum - 1.0, row);
    } else {
      model.add_row(lp::Sense::kEqual, sum, row);
    }
  }
  return model;
}

// Dense tableau (lp::solve_dense) vs the revised sparse simplex
// (SimplexSolver) on the same random LP, across three sparsity tiers.
// Reported counters: pivots/s (rate of lp.simplex.iterations across the
// timed region) and refactorizations per iteration (revised only; the
// dense engine reads 0). Both read 0 when metrics are compiled out — the
// wall-clock comparison still stands.
// These are COLD solves: at this size the dense tableau's contiguous
// sweeps can outrun the revised engine's BTRAN/FTRAN machinery, and that
// is fine — the revised engine earns its keep on warm-restarted B&B
// re-solves (gated in bench_table5_solver_time). This family watches the
// cold-solve overhead so it never drifts silently.
void BM_SimplexRandomSparse(benchmark::State& state) {
  constexpr double kDensities[] = {0.05, 0.15, 0.4};
  const bool revised = state.range(0) != 0;
  const double density = kDensities[state.range(1)];
  const lp::LpModel model =
      make_random_sparse_lp(/*vars=*/90, /*rows=*/70, density,
                            /*seed=*/1234 + state.range(1));
  const lp::SimplexSolver solver;
  obs::MetricsRegistry& reg = obs::default_registry();
  const std::uint64_t pivots0 = reg.counter("lp.simplex.iterations").value();
  const std::uint64_t refac0 =
      reg.counter("lp.simplex.refactorizations").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(revised ? solver.solve(model)
                                     : lp::solve_dense(model));
  }
  const auto pivots = static_cast<double>(
      reg.counter("lp.simplex.iterations").value() - pivots0);
  const auto refac = static_cast<double>(
      reg.counter("lp.simplex.refactorizations").value() - refac0);
  state.counters["pivots/s"] =
      benchmark::Counter(pivots, benchmark::Counter::kIsRate);
  state.counters["refac/iter"] =
      benchmark::Counter(pivots > 0.0 ? refac / pivots : 0.0);
}
BENCHMARK(BM_SimplexRandomSparse)
    ->ArgNames({"revised", "density_tier"})
    ->ArgsProduct({{0, 1}, {0, 1, 2}});

// Sparse m x m basis with a dominant diagonal in [2, 4] and 3 distinct
// off-diagonal entries in [-1, 1] per column, drawn from the rows within 8
// of the diagonal. The band keeps LU fill linear in m, so the timing shows
// the elimination's own cost rather than the fill's.
lp::SparseMatrix make_banded_basis(std::size_t m, std::uint64_t seed) {
  constexpr std::size_t kHalfBand = 8;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::uniform_real_distribution<double> diag(2.0, 4.0);
  std::vector<std::int32_t> col_start{0};
  std::vector<lp::SparseMatrix::Entry> entries;
  std::vector<std::size_t> rows;
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t lo = j >= kHalfBand ? j - kHalfBand : 0;
    const std::size_t hi = std::min(m - 1, j + kHalfBand);
    std::uniform_int_distribution<std::size_t> row(lo, hi);
    rows.assign(1, j);
    while (rows.size() < 4) {
      const std::size_t r = row(rng);
      if (std::find(rows.begin(), rows.end(), r) == rows.end()) {
        rows.push_back(r);
      }
    }
    std::sort(rows.begin(), rows.end());
    for (const std::size_t r : rows) {
      entries.push_back(
          {static_cast<std::int32_t>(r), r == j ? diag(rng) : value(rng)});
    }
    col_start.push_back(static_cast<std::int32_t>(entries.size()));
  }
  return lp::SparseMatrix(m, m, std::move(col_start), std::move(entries));
}

// One BasisLu::factorize of the banded basis per iteration: the cost the
// revised simplex pays at every refactorization. With elimination limited
// to each column's reach it grows near-linearly in m; a scan over every
// earlier step per column grows quadratically.
void BM_BasisLuFactorize(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const lp::SparseMatrix basis = make_banded_basis(m, /*seed=*/99);
  std::vector<std::int32_t> basic(m);
  for (std::size_t i = 0; i < m; ++i) basic[i] = static_cast<std::int32_t>(i);
  lp::BasisLu lu;
  for (auto _ : state) {
    if (!lu.factorize(basis, basic)) {
      state.SkipWithError("banded basis reported singular");
      break;
    }
  }
  state.counters["factorizations/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["fill_nnz"] =
      benchmark::Counter(static_cast<double>(lu.fill_nnz()));
}
BENCHMARK(BM_BasisLuFactorize)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_EventQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Reverse-sorted inserts exercise the heap's worst direction; each
      // event reschedules once so pop-during-run is covered too.
      queue.schedule_at(static_cast<double>(n - i), [&queue, &fired] {
        ++fired;
        queue.schedule_in(0.25, [&fired] { ++fired; });
      });
    }
    queue.run_until(static_cast<double>(n) + 1.0);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueue)->Arg(1024)->Arg(8192);

// One fluid tick of a GEANT lp-round epoch as the fault replay runs it
// (replay-lp's shape: 16 Gbps gravity demand, 40% policied, 128-core
// hosts): the epoch's fleet served at the loss knee by core::LiveSystem,
// every 16th class severed and one instance dead, so each tick also walks
// the blackhole accounting.
void BM_FlowSimulationStep(benchmark::State& state) {
  const net::Topology topo = net::make_geant(/*host_cores=*/128.0);
  core::ControllerConfig config;
  config.engine.strategy = core::PlacementStrategy::kLpRound;
  config.policied_fraction = 0.4;
  const core::AppleController controller(topo, vnf::default_policy_chains(),
                                         config);
  const traffic::TrafficMatrix tm = traffic::make_gravity_matrix(
      topo.num_nodes(), {.total_mbps = 16000.0, .seed = 30});
  const core::Epoch epoch = controller.optimize(tm);
  core::LiveSystem live(topo, epoch, config.tick);
  live.rerate(tm, controller.chain_assignment());
  for (std::size_t h = 0; h < epoch.classes.size(); h += 16) {
    live.flow.set_class_severed(epoch.classes[h].id, true);
  }
  live.flow.set_instance_alive(live.flow.instance_ids().front(), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(live.flow.step());
  }
  state.counters["classes"] =
      benchmark::Counter(static_cast<double>(epoch.classes.size()));
  state.counters["instances"] =
      benchmark::Counter(static_cast<double>(live.flow.instance_ids().size()));
  state.counters["blackholed_classes"] = benchmark::Counter(
      static_cast<double>(live.flow.blackholed_classes().size()));
}
BENCHMARK(BM_FlowSimulationStep);

void BM_AllPairsRouting(benchmark::State& state) {
  const net::Topology topo = net::make_as3679();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::AllPairsPaths(topo));
  }
}
BENCHMARK(BM_AllPairsRouting);

struct PlacementFixture {
  net::Topology topo = net::make_internet2();
  net::AllPairsPaths routing{topo};
  std::vector<vnf::PolicyChain> chains;
  std::vector<traffic::TrafficClass> classes;
  core::PlacementInput input;

  PlacementFixture() {
    const auto span = vnf::default_policy_chains();
    chains.assign(span.begin(), span.end());
    const auto tm = traffic::make_gravity_matrix(topo.num_nodes(),
                                                 {.total_mbps = 9000.0});
    classes = traffic::build_classes(
        topo, routing, tm, traffic::uniform_chain_assignment(chains.size()));
    input.topology = &topo;
    input.classes = classes;
    input.chains = chains;
  }
};

void BM_GreedyPlacementInternet2(benchmark::State& state) {
  const PlacementFixture fx;
  core::EngineOptions options;
  options.strategy = core::PlacementStrategy::kGreedy;
  const core::OptimizationEngine engine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.place(fx.input));
  }
}
BENCHMARK(BM_GreedyPlacementInternet2);

void BM_SubclassAssignment(benchmark::State& state) {
  const PlacementFixture fx;
  core::EngineOptions options;
  options.strategy = core::PlacementStrategy::kGreedy;
  const auto plan = core::OptimizationEngine(options).place(fx.input);
  const auto inventory = core::materialize_inventory(fx.input, plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::assign_subclasses(fx.input, plan, inventory));
  }
}
BENCHMARK(BM_SubclassAssignment);

void BM_RuleGeneration(benchmark::State& state) {
  const PlacementFixture fx;
  core::EngineOptions options;
  options.strategy = core::PlacementStrategy::kGreedy;
  const auto plan = core::OptimizationEngine(options).place(fx.input);
  const auto inventory = core::materialize_inventory(fx.input, plan);
  const auto subclasses = core::assign_subclasses(fx.input, plan, inventory);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RuleGenerator().account(fx.input, subclasses));
  }
}
BENCHMARK(BM_RuleGeneration);

// Flight-recorder overhead: the same full-epoch assembly with event
// recording off (/0) vs on (/1). DESIGN.md Sec. 13 budgets the recorder at
// <5% of epoch wall clock; comparing the two rows checks that budget (the
// epoch emits a few dozen events against an ~ms solve, so the pair should
// be indistinguishable to runner noise).
void BM_EpochFlightRecorder(benchmark::State& state) {
  const PlacementFixture fx;
  core::PipelineOptions options;
  options.engine.strategy = core::PlacementStrategy::kGreedy;
  const core::EpochPipeline pipeline(options);
  const traffic::ClassStore store = traffic::build_class_store(fx.classes);
  obs::EventLog& log = obs::default_event_log();
  const bool was_enabled = log.enabled();
  log.set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run(fx.topo, fx.chains, store));
  }
  log.set_enabled(was_enabled);
}
BENCHMARK(BM_EpochFlightRecorder)->Arg(0)->Arg(1);

}  // namespace

// Expanded BENCHMARK_MAIN() so the process can dump the APPLE_OBS_*
// instrumentation accumulated across all iterations (simplex pivots,
// event-queue totals, solve-time histograms) before exiting.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  apple::bench::export_metrics_json("micro");
  return 0;
}
