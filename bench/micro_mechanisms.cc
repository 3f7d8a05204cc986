// Micro-benchmarks (google-benchmark): scaling of the mechanisms in users,
// slots and optimizations, of the Regret baseline, and of the astronomy
// substrate (FoF halo finding, merger-tree queries). Not part of the paper;
// documents the computational footprint of the library.
//
// The engine-vs-dense pairs (BM_Shapley/BM_ShapleyDense, BM_AddOn/
// BM_AddOnDense) track the unified-engine speedup; bench/mech_speed.cc is
// the canonical harness for that comparison and emits
// BENCH_mechanisms.json.
#include <benchmark/benchmark.h>

#include "astro/astro_workload.h"
#include "baseline/regret.h"
#include "core/add_on.h"
#include "support/reference.h"
#include "core/shapley.h"
#include "core/subst_on.h"
#include "core/serialization.h"
#include "exp/experiment.h"
#include "simdb/executor.h"
#include "workload/scenario.h"

namespace optshare {
namespace {

void BM_Shapley(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> bids;
  for (int i = 0; i < m; ++i) bids.push_back(rng.Uniform(0.0, 1.0));
  const double cost = 0.3 * m;  // Keeps roughly half the users priced out.
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunShapley(cost, bids));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_Shapley)->Arg(8)->Arg(64)->Arg(512)->Arg(4096)->Arg(100000);

void BM_ShapleyDense(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> bids;
  for (int i = 0; i < m; ++i) bids.push_back(rng.Uniform(0.0, 1.0));
  const double cost = 0.3 * m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::RunShapleyDense(cost, bids));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ShapleyDense)->Arg(4096)->Arg(100000);

void BM_AddOn(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int z = static_cast<int>(state.range(1));
  Rng rng(2);
  AdditiveScenario scenario;
  scenario.num_users = m;
  scenario.num_slots = z;
  scenario.duration = std::max(1, z / 4);
  AdditiveOnlineGame game = MakeAdditiveGame(scenario, 0.2 * m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAddOn(game));
  }
  state.SetItemsProcessed(state.iterations() * m * z);
}
BENCHMARK(BM_AddOn)->Args({6, 12})->Args({24, 12})->Args({96, 12})
    ->Args({24, 96})->Args({100000, 50});

void BM_AddOnDense(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int z = static_cast<int>(state.range(1));
  Rng rng(2);
  AdditiveScenario scenario;
  scenario.num_users = m;
  scenario.num_slots = z;
  scenario.duration = std::max(1, z / 4);
  AdditiveOnlineGame game = MakeAdditiveGame(scenario, 0.2 * m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::RunAddOnDense(game));
  }
  state.SetItemsProcessed(state.iterations() * m * z);
}
BENCHMARK(BM_AddOnDense)->Args({96, 12})->Args({100000, 50});

void BM_SubstOn(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Rng rng(3);
  SubstScenario scenario;
  scenario.num_users = m;
  scenario.num_slots = 12;
  scenario.num_opts = n;
  scenario.substitutes_per_user = std::max(1, n / 4);
  SubstOnlineGame game = MakeSubstGame(scenario, 0.05 * m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunSubstOn(game));
  }
  state.SetItemsProcessed(state.iterations() * m * n);
}
BENCHMARK(BM_SubstOn)->Args({6, 12})->Args({24, 12})->Args({24, 48})
    ->Args({96, 12});

void BM_RegretAdditive(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  Rng rng(4);
  AdditiveScenario scenario;
  scenario.num_users = m;
  scenario.num_slots = 12;
  AdditiveOnlineGame game = MakeAdditiveGame(scenario, 0.1 * m, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunRegretAdditive(game));
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_RegretAdditive)->Arg(6)->Arg(24)->Arg(96);

void BM_FindHalos(benchmark::State& state) {
  astro::UniverseParams params;
  params.num_snapshots = 1;
  params.num_halos = static_cast<int>(state.range(0));
  params.particles_per_halo = 64;
  astro::UniverseSimulator sim(params);
  const auto snapshots = sim.Run();
  for (auto _ : state) {
    auto catalog = astro::FindHalos(snapshots[0], params.box_size);
    benchmark::DoNotOptimize(catalog);
  }
  state.SetItemsProcessed(state.iterations() * params.num_halos * 64);
}
BENCHMARK(BM_FindHalos)->Arg(8)->Arg(32)->Arg(128);

void BM_MergerTreeChain(benchmark::State& state) {
  astro::UniverseParams params;
  params.num_snapshots = 27;
  params.num_halos = 12;
  params.particles_per_halo = 32;
  astro::UniverseSimulator sim(params);
  const auto snapshots = sim.Run();
  std::vector<astro::HaloCatalog> catalogs;
  for (const auto& s : snapshots) {
    catalogs.push_back(*astro::FindHalos(s, params.box_size));
  }
  astro::MergerTreeEngine engine(&snapshots, &catalogs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.TraceChain(0, 1));
  }
}
BENCHMARK(BM_MergerTreeChain);

void BM_JsonRoundTrip(benchmark::State& state) {
  // Serialize + parse a mid-sized online game document.
  AdditiveScenario scenario;
  scenario.num_users = static_cast<int>(state.range(0));
  scenario.num_slots = 12;
  scenario.duration = 4;
  Rng rng(5);
  AdditiveOnlineGame game = MakeAdditiveGame(scenario, 1.0, rng);
  for (auto _ : state) {
    const std::string text = ToJson(game).Dump();
    auto parsed = JsonValue::Parse(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_JsonRoundTrip)->Arg(6)->Arg(96);

void BM_ExecutorSeqScan(benchmark::State& state) {
  simdb::TableDef def;
  def.name = "t";
  def.columns = {{"a", simdb::ColumnType::kInt64, 1000},
                 {"b", simdb::ColumnType::kInt64, 16}};
  def.row_count = static_cast<uint64_t>(state.range(0));
  Rng rng(6);
  auto table = *simdb::StoredTable::Generate(def, {}, rng);
  simdb::ExecQuery q;
  q.predicates = {{"a", 7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(simdb::ExecuteSeqScan(table, q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExecutorSeqScan)->Arg(10000)->Arg(100000);

void BM_ExecutorIndexScan(benchmark::State& state) {
  simdb::TableDef def;
  def.name = "t";
  def.columns = {{"a", simdb::ColumnType::kInt64, 1000},
                 {"b", simdb::ColumnType::kInt64, 16}};
  def.row_count = static_cast<uint64_t>(state.range(0));
  Rng rng(7);
  auto table = *simdb::StoredTable::Generate(def, {}, rng);
  auto index = *simdb::HashIndex::Build(table, "a");
  simdb::ExecQuery q;
  q.predicates = {{"a", 7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(simdb::ExecuteIndexScan(table, index, q));
  }
}
BENCHMARK(BM_ExecutorIndexScan)->Arg(10000)->Arg(100000);

void BM_AdditiveComparisonPoint(benchmark::State& state) {
  // One cost point of the Figure 2(a) sweep at 100 trials.
  AdditiveScenario scenario;
  for (auto _ : state) {
    auto points = exp::RunAdditiveComparison(scenario, {0.75}, 100, 7);
    benchmark::DoNotOptimize(points);
  }
}
BENCHMARK(BM_AdditiveComparisonPoint);

}  // namespace
}  // namespace optshare

BENCHMARK_MAIN();
