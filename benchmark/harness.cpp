#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "linalg/ops.hpp"
#include "serve/latency_window.hpp"
#include "serve/replay.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace surro::benchmark {

namespace {

BenchmarkSpec load_benchmark_spec() {
  const std::string path =
      std::string(SURRO_BENCHMARK_DIR) + "/../BENCHMARK.json";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const util::JsonValue doc = util::parse_json(text.str());
  const auto defs_of = [&](const char* section) {
    std::vector<MetricDef> defs;
    for (const auto& m : doc.at(section).array) {
      defs.push_back({m.at("name").as_string(), m.at("unit").as_string()});
    }
    return defs;
  };
  return {doc.at("run_seconds").as_number(), defs_of("end_to_end"),
          defs_of("per_layer")};
}

}  // namespace

const BenchmarkSpec& benchmark_spec() {
  static const BenchmarkSpec spec = load_benchmark_spec();
  return spec;
}

void RunResult::diag(const std::string& key, double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g %s", value, unit);
  diagnostics.emplace_back(key, buf);
}

void RunResult::diag(const std::string& key, const std::string& value) {
  diagnostics.emplace_back(key, value);
}

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) violations.push_back(what);
}

void report_window(const Window& window, RunResult& out) {
  const double jobs = static_cast<double>(window.job_ms.size());
  out.metrics["jobs_per_s"] =
      window.jobs_per_s >= 0.0
          ? window.jobs_per_s
          : (window.seconds > 0.0 ? jobs / window.seconds : 0.0);
  out.metrics["job_p50_ms"] = percentile(window.job_ms, 0.50);
  out.metrics["job_p95_ms"] = percentile(window.job_ms, 0.95);
  out.attempted += window.attempted;
  out.failed += window.failed;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%zu jobs over %.3f s; p99 %.4g ms (%zu jobs beyond it)",
                window.job_ms.size(), window.seconds,
                percentile(window.job_ms, 0.99),
                window.job_ms.size() - static_cast<std::size_t>(std::ceil(
                                           0.99 * jobs)));
  out.diag("window", buf);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;  // an idle layer, not an unbounded wait
  std::sort(values.begin(), values.end());
  return serve::LatencyWindow::percentile(values, q);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double peak_rss_mb_self() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double peak_rss_mb_children() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

eval::ExperimentConfig data_config(std::size_t epochs) {
  eval::ExperimentConfig cfg = eval::quick_experiment_config();
  cfg.budget.epochs = epochs;
  cfg.seed = 42;
  return cfg;
}

eval::PreparedData generate_data(const eval::ExperimentConfig& cfg,
                                 Tracer& tracer, SpanId parent) {
  return traced(tracer, "panda.generate", parent, 0, "",
                [&] { return eval::prepare_data(cfg); });
}

std::string fit_and_save(const std::string& key,
                         const eval::ExperimentConfig& cfg,
                         const tabular::Table& train, const std::string& dir,
                         Tracer& tracer, SpanId parent) {
  auto model = models::make_generator(key, cfg.budget, cfg.seed);
  traced(tracer, "models.fit", parent, 0, key, [&] {
    model->fit(train);
    return 0;
  });
  const std::string path = dir + "/" + key + ".bin";
  models::save_model_file(*model, path);
  return path;
}

std::vector<std::uint64_t> seed_pool(std::uint64_t run_seed,
                                     std::size_t count) {
  util::Rng rng(run_seed ^ 0x5EED'B0A7'0000'0001ULL);
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = rng.next();
  return seeds;
}

void check_digests(const std::vector<JobRecord>& records,
                   serve::ModelHost& host, std::size_t rows,
                   std::size_t chunk_rows, RunResult& out) {
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> expected;
  std::size_t mismatches = 0;
  for (const auto& r : records) {
    const auto key = std::make_pair(r.model, r.seed);
    auto it = expected.find(key);
    if (it == expected.end()) {
      models::SampleRequest request;
      request.rows = rows;
      request.seed = r.seed;
      request.chunk_rows = chunk_rows;
      request.threads = 0;
      tabular::Table table;
      host.acquire(r.model)->sample_into(table, request);
      it = expected.emplace(key, serve::hash_table(table)).first;
    }
    if (it->second != r.digest) ++mismatches;
  }
  out.check(mismatches == 0,
            std::to_string(mismatches) + " of " +
                std::to_string(records.size()) +
                " served jobs differ from a direct in-process sample_into");
  out.diag("digest_checks",
           std::to_string(records.size()) + " jobs against " +
               std::to_string(expected.size()) + " direct samples");
}

void report_service_stats(const serve::ServiceStats& before,
                          const serve::ServiceStats& after, RunResult& out) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double jobs = static_cast<double>(after.completed - before.completed);
  out.metrics["serve.batches"] = batches;
  out.metrics["serve.batch_jobs_mean"] = batches > 0.0 ? jobs / batches : 0.0;
  const double hits = static_cast<double>(after.host.hits - before.host.hits);
  const double misses =
      static_cast<double>(after.host.misses - before.host.misses);
  out.metrics["serve.host.hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 1.0;
  out.metrics["serve.host.loads"] = static_cast<double>(after.host.loads);
}

void probe_gemm(Tracer& tracer, RunResult& out) {
  constexpr std::size_t m = 512, k = 256, n = 256;
  util::Rng rng(7);
  linalg::Matrix a(m, k), b(k, n), c(m, n);
  // Nonzero inputs: the micro-kernel skips k-steps whose A value is zero.
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.uniform(0.1, 1.0));
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  linalg::gemm(a, b, c);  // warm: pool threads and caches
  std::vector<double> seconds;
  const double deadline = tracer.now() + 0.25;
  while (seconds.size() < 5 || tracer.now() < deadline) {
    const double start = tracer.now();
    traced(tracer, "linalg.gemm", kNoSpan, 0, "", [&] {
      linalg::gemm(a, b, c);
      return 0;
    });
    seconds.push_back(tracer.now() - start);
  }
  const double flops = 2.0 * m * n * k;
  out.metrics["linalg.gemm_gflops"] = flops / median(seconds) / 1e9;
}

double span_median_ms(const std::vector<Span>& spans, const std::string& name,
                      const std::string& tag) {
  std::vector<double> ms;
  for (const auto& s : spans) {
    if (s.name == name && (tag.empty() || s.tag == tag)) {
      ms.push_back((s.end - s.start) * 1e3);
    }
  }
  return median(ms);
}

void report_span_metrics(const std::vector<Span>& spans, RunResult& out) {
  out.metrics["panda.generate_s"] =
      span_median_ms(spans, "panda.generate") / 1e3;
  for (const auto& key : model_keys()) {
    out.metrics["models.fit_s." + key] =
        span_median_ms(spans, "models.fit", key) / 1e3;
  }
  out.metrics["fleet.spawn_s"] = span_median_ms(spans, "fleet.spawn") / 1e3;
  out.metrics["serve.submit_ms"] = span_median_ms(spans, "serve.submit");
  out.metrics["net.submit_ms"] = span_median_ms(spans, "net.submit");
  out.metrics["net.wait_result_ms"] = span_median_ms(spans, "net.wait_result");
}

const std::vector<std::string>& model_keys() {
  static const std::vector<std::string> keys = {"tvae", "ctabgan", "smote",
                                                "tabddpm"};
  return keys;
}

}  // namespace surro::benchmark
