// Figure 14 (Exp-5): scalability of the pipeline (google-benchmark).
//   14(a,c,e)  time vs |D|   on HOSP / DBLP / TPCH (|Dm| fixed),
//   14(b,d,f)  time vs |Dm|  on HOSP / DBLP / TPCH (|D| fixed),
//   14(g)      time vs |Σ|   on TPCH,
//   14(h)      time vs |Γ|   on TPCH,
// each reporting the three cumulative stages cRepair, cRepair+eRepair and
// the full pipeline (Uni), as the paper's curves do. Expected shape: near-
// linear growth in |D| and |Dm| (suffix-array blocking), linear in |Σ|, |Γ|.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "gen/dataset.h"
#include "uniclean/uniclean.h"

using namespace uniclean;  // NOLINT

namespace {

enum Stage { kCRepair = 0, kCPlusE = 1, kFull = 2 };

gen::Dataset Generate(int dataset, const gen::GeneratorConfig& config) {
  switch (dataset) {
    case 0:
      return gen::GenerateHosp(config);
    case 1:
      return gen::GenerateDblp(config);
    default:
      return gen::GenerateTpch(config);
  }
}

void RunStages(benchmark::State& state, gen::Dataset& ds, Stage stage) {
  for (auto _ : state) {
    state.PauseTiming();
    data::Relation d = ds.dirty.Clone();
    state.ResumeTiming();
    CleanResult result = bench::CleanFresh(&d, ds.master, ds.rules,
                                           /*erepair=*/stage >= kCPlusE,
                                           /*hrepair=*/stage >= kFull);
    benchmark::DoNotOptimize(result.total_fixes());
  }
  state.SetItemsProcessed(state.iterations() * ds.dirty.size());
}

// 14(a,c,e): vary |D|, fixed |Dm|.
void BM_VaryD(benchmark::State& state) {
  gen::GeneratorConfig config;
  config.num_tuples = static_cast<int>(state.range(1));
  config.master_size = 500;
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 1;
  gen::Dataset ds = Generate(static_cast<int>(state.range(0)), config);
  RunStages(state, ds, static_cast<Stage>(state.range(2)));
}

// 14(b,d,f): vary |Dm|, fixed |D|.
void BM_VaryDm(benchmark::State& state) {
  gen::GeneratorConfig config;
  config.num_tuples = 1000;
  config.master_size = static_cast<int>(state.range(1));
  config.noise_rate = 0.06;
  config.dup_rate = 0.4;
  config.seed = 2;
  gen::Dataset ds = Generate(static_cast<int>(state.range(0)), config);
  RunStages(state, ds, static_cast<Stage>(state.range(2)));
}

// 14(g): vary |Σ| on TPCH (55..275 CFDs as in the paper).
void BM_VarySigma(benchmark::State& state) {
  gen::GeneratorConfig config;
  config.num_tuples = 800;
  config.master_size = 300;
  config.extra_cfds = static_cast<int>(state.range(0)) - 55;
  config.seed = 3;
  gen::Dataset ds = gen::GenerateTpch(config);
  RunStages(state, ds, kFull);
}

// 14(h): vary |Γ| on TPCH (10..50 MDs as in the paper).
void BM_VaryGamma(benchmark::State& state) {
  gen::GeneratorConfig config;
  config.num_tuples = 800;
  config.master_size = 300;
  config.extra_mds = static_cast<int>(state.range(0)) - 10;
  config.seed = 4;
  gen::Dataset ds = gen::GenerateTpch(config);
  RunStages(state, ds, kFull);
}

void SizeArgs(benchmark::internal::Benchmark* b) {
  for (int dataset : {0, 1, 2}) {
    for (int size : {250, 500, 1000, 2000}) {
      for (int stage : {kCRepair, kCPlusE, kFull}) {
        b->Args({dataset, size, stage});
      }
    }
  }
}

}  // namespace

// Iterations are pinned: a full pipeline run is seconds at the larger
// sizes, and the figure needs the growth shape, not nanosecond precision.
BENCHMARK(BM_VaryD)
    ->Apply(SizeArgs)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VaryDm)
    ->Apply(SizeArgs)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VarySigma)
    ->Arg(55)
    ->Arg(110)
    ->Arg(165)
    ->Arg(220)
    ->Arg(275)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VaryGamma)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(40)
    ->Arg(50)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
