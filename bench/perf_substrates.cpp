// google-benchmark microbenches for the substrates: GEMM, quantile
// transform, k-NN/DCR sweeps, GBDT training, record generation, and
// model sampling throughput.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "gbdt/boosting.hpp"
#include "knn/brute.hpp"
#include "knn/kdtree.hpp"
#include "linalg/ops.hpp"
#include "linalg/simd.hpp"
#include "metrics/dcr.hpp"
#include "metrics/wasserstein.hpp"
#include "models/generator.hpp"
#include "models/smote.hpp"
#include "panda/filters.hpp"
#include "panda/generator.hpp"
#include "preprocess/quantile_transformer.hpp"
#include "util/rng.hpp"

namespace {

using namespace surro;

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal());
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_matrix(n, n, 1);
  const auto b = random_matrix(n, n, 2);
  linalg::Matrix out;
  for (auto _ : state) {
    linalg::gemm(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_QuantileTransform(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> data(n);
  for (auto& v : data) v = rng.lognormal(1.0, 1.0);
  preprocess::QuantileTransformer qt(1000);
  qt.fit(data);
  for (auto _ : state) {
    auto z = qt.transform(data);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_QuantileTransform)->Arg(10000)->Arg(100000);

void BM_KdTreeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_matrix(n, 4, 5);
  const knn::KdTree tree(data);
  const auto queries = random_matrix(256, 4, 6);
  std::size_t q = 0;
  for (auto _ : state) {
    auto nn = tree.query(queries.row(q % 256), 5);
    benchmark::DoNotOptimize(nn.data());
    ++q;
  }
}
BENCHMARK(BM_KdTreeQuery)->Arg(10000)->Arg(100000);

void BM_BruteNearest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_matrix(n, 16, 7);
  const auto queries = random_matrix(64, 16, 8);
  for (auto _ : state) {
    auto d = knn::nearest_distances(data, queries);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BruteNearest)->Arg(4000)->Arg(16000);

void BM_Wasserstein(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(9);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal(0.3, 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::wasserstein1(x, y));
  }
}
BENCHMARK(BM_Wasserstein)->Arg(10000)->Arg(100000);

void BM_PandaGeneration(benchmark::State& state) {
  panda::GeneratorConfig cfg;
  cfg.model.days = static_cast<double>(state.range(0));
  cfg.model.base_jobs_per_day = 300.0;
  for (auto _ : state) {
    panda::RecordGenerator gen(cfg);
    auto records = gen.generate();
    benchmark::DoNotOptimize(records.data());
    state.counters["records"] =
        static_cast<double>(records.size());
  }
}
BENCHMARK(BM_PandaGeneration)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

tabular::Table bench_table(std::size_t rows) {
  panda::GeneratorConfig cfg;
  cfg.model.days = 10.0;
  cfg.model.base_jobs_per_day =
      static_cast<double>(rows) / 6.0;  // ~rows records after filtering
  panda::RecordGenerator gen(cfg);
  return panda::build_job_table(gen.generate(), gen.catalog());
}

void BM_SmoteSampling(benchmark::State& state) {
  const auto table = bench_table(4000);
  models::Smote model;
  model.fit(table);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto synth = model.sample(1000, seed++);
    benchmark::DoNotOptimize(&synth);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SmoteSampling)->Unit(benchmark::kMillisecond);

// Sampling throughput (rows/sec) versus worker count, per model — the
// scaling curve future PRs track when touching the synthesis path. Each
// model is trained once and shared across its thread-count args; timing
// covers sample_into only; every worker samples the one shared instance.
// Output is identical across thread counts by contract, so the counters
// measure pure scheduling gains.
void BM_SampleThroughput(benchmark::State& state,
                         const std::string& model_key) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  static std::map<std::string, std::unique_ptr<models::TabularGenerator>>
      fitted;  // share one fit per model across thread-count args
  auto& model = fitted[model_key];
  if (!model) {
    models::TrainBudget budget;
    budget.epochs = 8;
    model = models::make_generator(model_key, budget, 11);
    model->fit(bench_table(3000));
  }
  models::SampleRequest request;
  request.rows = 4000;
  request.chunk_rows = 512;
  request.threads = threads;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    request.seed = seed++;
    tabular::Table synth;
    model->sample_into(synth, request);
    benchmark::DoNotOptimize(&synth);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(request.rows));
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK_CAPTURE(BM_SampleThroughput, smote, "smote")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SampleThroughput, tvae, "tvae")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SampleThroughput, ctabgan, "ctabgan")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SampleThroughput, tabddpm, "tabddpm")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_GbdtFit(benchmark::State& state) {
  const auto table = bench_table(3000);
  for (auto _ : state) {
    gbdt::BoostingConfig cfg;
    cfg.iterations = 20;
    cfg.tree.max_depth = 6;
    gbdt::GbdtRegressor model(cfg);
    model.fit(table, panda::features::kWorkload);
    benchmark::DoNotOptimize(&model);
  }
  state.SetLabel("20 trees depth<=6");
}
BENCHMARK(BM_GbdtFit)->Unit(benchmark::kMillisecond);

void BM_DcrSweep(benchmark::State& state) {
  const auto train = bench_table(4000);
  models::Smote model;
  model.fit(train);
  const auto synth = model.sample(1000, 4);
  metrics::DcrConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::mean_dcr(train, synth, cfg));
  }
}
BENCHMARK(BM_DcrSweep)->Unit(benchmark::kMillisecond);

}  // namespace

// Every number below depends on the dispatched kernel backend, so stamp it
// into the benchmark context (shows up in console and JSON output; pin with
// SURRO_SIMD when comparing runs — see docs/PERFORMANCE.md).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("simd_backend",
                              surro::linalg::simd::active_backend_name());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
