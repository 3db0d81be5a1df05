// offline_table1 — the paper's own path (Table I). Each job is one full
// Table I pass: for each of the four surrogates, fit, sample and score all
// five metrics. It is the only workload that trains, so it loads linalg
// GEMM, nn, metrics, knn and gbdt and leaves serve and net idle. Training
// and sampling seeds are pinned, so every pass computes the same bytes and
// the scores can be held against committed reference values; the run seed
// only orders the models within each pass.
//
// Full scale is what the Table I harnesses run by default: their medium data
// profile (bench/bench_common.hpp, about 12.7k training rows), here at 10
// epochs and 10,000 sampled rows per model. One pass takes about 20 s on a
// 4-core host, so a run's window usually holds a single pass.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "bench_common.hpp"
#include "harness.hpp"
#include "linalg/simd.hpp"
#include "metrics/correlation.hpp"
#include "metrics/dcr.hpp"
#include "metrics/jsd.hpp"
#include "metrics/mlef.hpp"
#include "metrics/wasserstein.hpp"
#include "panda/generator.hpp"
#include "serve/replay.hpp"
#include "twin/twin.hpp"
#include "util/rng.hpp"

namespace surro::benchmark {

namespace {

/// The pass's configuration; synth_rows and sample_chunk_rows size the
/// sample. Smoke runs the quick profile at 1 epoch and 400 rows.
eval::ExperimentConfig config_for(const Options& opts) {
  if (opts.smoke) {
    eval::ExperimentConfig cfg = data_config(1);
    cfg.synth_rows = 400;
    cfg.sample_chunk_rows = 128;
    return cfg;
  }
  eval::ExperimentConfig cfg =
      bench::experiment_config(bench::Profile::kMedium);
  cfg.verbose = false;
  cfg.budget.epochs = 10;
  cfg.synth_rows = 10000;
  cfg.seed = 42;
  return cfg;
}

/// Relative tolerance of the Table I gate, with an absolute floor for
/// scores near zero.
constexpr double kScoreRelTol = 0.05;
constexpr double kScoreAbsTol = 0.005;

using Scores = std::map<std::string, metrics::ModelScore>;  // by model key

std::vector<double> score_values(const metrics::ModelScore& s) {
  return {s.wd, s.jsd, s.diff_corr, s.dcr, s.diff_mlef};
}

/// table1_reference.tsv: "backend model wd jsd diff_corr dcr diff_mlef"
/// per line; '#' starts a comment.
std::map<std::string, Scores> read_reference(const std::string& path) {
  std::map<std::string, Scores> by_backend;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string backend, key;
    metrics::ModelScore s;
    if (fields >> backend >> key >> s.wd >> s.jsd >> s.diff_corr >> s.dcr >>
        s.diff_mlef) {
      s.model = key;
      by_backend[backend][key] = s;
    }
  }
  return by_backend;
}

void write_reference(const std::string& path, const std::string& backend,
                     const Scores& scores) {
  auto by_backend = read_reference(path);
  by_backend[backend] = scores;
  std::ofstream out(path);
  out << "# Table I scores of the offline_table1 pass, per SIMD backend.\n"
         "# Written by `benchmark/run.sh --write-reference`; the benchmark\n"
         "# fails when a score leaves 5% relative (0.005 absolute) of these.\n"
         "# backend model wd jsd diff_corr dcr diff_mlef\n";
  char buf[256];
  for (const auto& [name, rows] : by_backend) {
    for (const auto& [key, s] : rows) {
      std::snprintf(buf, sizeof buf, "%s %s %.17g %.17g %.17g %.17g %.17g\n",
                    name.c_str(), key.c_str(), s.wd, s.jsd, s.diff_corr,
                    s.dcr, s.diff_mlef);
      out << buf;
    }
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

void check_reference(const Options& opts, const Scores& scores,
                     RunResult& out) {
  const std::string path =
      std::string(SURRO_BENCHMARK_DIR) + "/table1_reference.tsv";
  const std::string backend = linalg::simd::active_backend_name();
  if (opts.write_reference) {
    write_reference(path, backend, scores);
    std::printf("wrote Table I reference for backend %s to %s\n",
                backend.c_str(), path.c_str());
    return;
  }
  const auto by_backend = read_reference(path);
  const auto it = by_backend.find(backend);
  if (it == by_backend.end()) {
    out.check(false, "no Table I reference for simd backend " + backend +
                         " in " + path);
    return;
  }
  static const char* names[] = {"wd", "jsd", "diff_corr", "dcr",
                                "diff_mlef"};
  for (const auto& [key, score] : scores) {
    const auto ref = it->second.find(key);
    if (ref == it->second.end()) {
      out.check(false, "no Table I reference for " + key);
      continue;
    }
    const auto got = score_values(score);
    const auto want = score_values(ref->second);
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double tol =
          std::max(kScoreRelTol * std::fabs(want[i]), kScoreAbsTol);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "Table I %s %s = %.6g, reference %.6g (tolerance %.3g)",
                    key.c_str(), names[i], got[i], want[i], tol);
      out.check(std::fabs(got[i] - want[i]) <= tol, buf);
    }
  }
}

}  // namespace

void run_offline_table1(const Options& opts, Tracer& tracer, RunResult& out) {
  const eval::ExperimentConfig cfg = config_for(opts);

  eval::PreparedData data;
  double train_mlef = 0.0;
  run_setups(
      opts, tracer, out, [] {},
      [&](SpanId span) {
        data = generate_data(cfg, tracer, span);
        // The real-train MLEF probe every diff-MLEF is relative to.
        train_mlef = traced(tracer, "metrics.mlef", span, 0, "train", [&] {
          return metrics::mlef_mse(data.train, data.test, cfg.mlef);
        });
      });

  util::Rng order_rng(opts.seed);
  Scores scores;  // of the latest pass
  std::map<std::string, std::unique_ptr<models::TabularGenerator>> fitted;
  std::map<std::string, tabular::Table> samples;
  std::map<std::string, std::set<std::uint64_t>> digests;  // over all passes
  std::vector<double> fit_s, sample_s, score_s;             // per pass
  std::uint64_t job = 0;

  // Passes repeat while another one is expected to fit in the window; a
  // window always holds at least one.
  run_windows(opts, tracer, out, [&](double seconds) {
    Window w;
    const double start = tracer.now();
    double pass_s = 0.0;
    do {
      ++job;
      ++w.attempted;
      std::vector<std::string> keys = model_keys();
      order_rng.shuffle(keys);
      const double t0 = tracer.now();
      const SpanId root = tracer.begin("job", kNoSpan, job);
      double fit = 0.0, sample = 0.0, score = 0.0;
      for (const auto& key : keys) {
        auto model = models::make_generator(key, cfg.budget, cfg.seed);
        double t = tracer.now();
        traced(tracer, "models.fit", root, job, key, [&] {
          model->fit(data.train);
          return 0;
        });
        fit += tracer.now() - t;

        models::SampleRequest request;
        request.rows = cfg.synth_rows;
        request.seed = cfg.seed ^ 0xABCDEFULL;
        request.chunk_rows = cfg.sample_chunk_rows;
        request.threads = 0;
        tabular::Table synth;
        t = tracer.now();
        traced(tracer, "models.sample", root, job, key, [&] {
          model->sample_into(synth, request);
          return 0;
        });
        sample += tracer.now() - t;

        t = tracer.now();
        metrics::ModelScore s;
        s.model = key;
        const auto metric = [&](const char* name, auto&& fn) {
          return traced(tracer, name, root, job, key, fn);
        };
        s.wd = metric("metrics.wd", [&] {
          return metrics::mean_wasserstein(data.train, synth);
        });
        s.jsd = metric("metrics.jsd",
                       [&] { return metrics::mean_jsd(data.train, synth); });
        s.diff_corr = metric("metrics.corr", [&] {
          return metrics::diff_corr(data.train, synth);
        });
        s.dcr = metric("metrics.dcr", [&] {
          return metrics::mean_dcr(data.train, synth, cfg.dcr);
        });
        s.diff_mlef = metric("metrics.mlef", [&] {
          return metrics::diff_mlef(
              metrics::mlef_mse(synth, data.test, cfg.mlef), train_mlef);
        });
        score += tracer.now() - t;

        scores[key] = s;
        digests[key].insert(serve::hash_table(synth));
        fitted[key] = std::move(model);
        samples[key] = std::move(synth);
      }
      tracer.end(root);
      pass_s = tracer.now() - t0;
      w.job_ms.push_back(pass_s * 1e3);
      fit_s.push_back(fit);
      sample_s.push_back(sample);
      score_s.push_back(score);
    } while (tracer.now() - start + pass_s < seconds);
    w.seconds = tracer.now() - start;
    return w;
  });
  tracer.set_enabled(opts.trace);

  // Gate: pinned seeds, so every pass must produce the same bytes.
  for (const auto& [key, set] : digests) {
    out.check(set.size() == 1,
              key + ": Table I passes produced " +
                  std::to_string(set.size()) + " different samples");
  }
  // Gate: sampling bytes do not depend on the thread count. The first two
  // chunks are their own request (the partition depends only on rows,
  // seed and chunk_rows), so a two-chunk request at 1 and at 4 threads
  // must reproduce the head of the timed sample.
  for (const auto& [key, model] : fitted) {
    const std::uint64_t timed =
        serve::hash_table(samples.at(key).head(2 * cfg.sample_chunk_rows));
    for (const std::size_t threads : {1, 4}) {
      models::SampleRequest request;
      request.rows = 2 * cfg.sample_chunk_rows;
      request.seed = cfg.seed ^ 0xABCDEFULL;
      request.chunk_rows = cfg.sample_chunk_rows;
      request.threads = threads;
      tabular::Table prefix;
      model->sample_into(prefix, request);
      out.check(serve::hash_table(prefix) == timed,
                key + ": sample at threads=" + std::to_string(threads) +
                    " differs from the timed sample");
    }
  }
  // Gate: Table I scores against the committed reference (smoke runs use
  // another scale, so they have no reference to meet).
  if (!opts.smoke) check_reference(opts, scores, out);

  char buf[160];
  for (const auto& key : model_keys()) {
    const auto& s = scores.at(key);
    std::snprintf(buf, sizeof buf,
                  "wd %.4f jsd %.4f diff_corr %.4f dcr %.4f diff_mlef %.4f",
                  s.wd, s.jsd, s.diff_corr, s.dcr, s.diff_mlef);
    out.diag("table1." + key, buf);
  }
  out.diag("fit_s", median(fit_s), "s");
  out.diag("sample_rows_per_s",
           static_cast<double>(cfg.synth_rows * model_keys().size()) /
               median(sample_s),
           "1/s");
  out.diag("score_s", median(score_s), "s");

  if (!opts.trace) return;
  {
    panda::RecordGenerator generator(cfg.data);
    twin::TwinConfig twin_cfg;
    twin_cfg.sim.capacity_scale = 0.0002;
    twin_cfg.drifts = {stream::DriftKind::kNone};
    const twin::ScenarioTwin twin(generator.catalog(), twin_cfg);
    const double t = tracer.now();
    (void)traced(tracer, "twin.run", kNoSpan, 0, "smote", [&] {
      return twin.run(data.train, samples.at("smote"));
    });
    out.metrics["twin.run_s"] = tracer.now() - t;
  }
  const auto spans = tracer.spans();
  std::map<std::string, double> metric_s;
  std::set<std::uint64_t> jobs;
  for (const auto& s : spans) {
    if (s.job == 0) continue;
    jobs.insert(s.job);
    if (s.name.rfind("metrics.", 0) == 0) metric_s[s.name] += s.end - s.start;
  }
  for (const char* name : {"wd", "jsd", "corr", "dcr", "mlef"}) {
    out.metrics[std::string("metrics.") + name + "_s"] =
        metric_s[std::string("metrics.") + name] /
        static_cast<double>(std::max<std::size_t>(jobs.size(), 1));
  }
  for (const auto& key : model_keys()) {
    const double ms = span_median_ms(spans, "models.sample", key);
    out.metrics["models.sample_rows_per_s." + key] =
        ms > 0.0 ? static_cast<double>(cfg.synth_rows) / (ms / 1e3) : 0.0;
  }
}

}  // namespace surro::benchmark
