#pragma once
// Shared plumbing of the surrogate-service benchmark: run options, the
// metric vocabulary every workload reports in, the per-run record, and the
// data / archive set-up the workloads start from.
//
// Every number is measured from outside the library: the benchmark times
// calls into the public functions of panda, models, linalg, metrics,
// serve, net and twin, and never instruments their insides.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/experiment.hpp"
#include "serve/sample_service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace surro::benchmark {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;    ///< measured window; 0 = BENCHMARK.json's
  bool trace = false;      ///< per-layer run (spans + layer metrics)
  bool smoke = false;      ///< scales, window and set-ups about 1/20
  std::string out_dir;     ///< archives, worker logs, trace.json, result.json
  bool write_reference = false;  ///< record the Table I reference instead
                                 ///< of checking it
};

/// Set-ups per run (1 in smoke mode); setup_s is their median.
inline constexpr std::size_t kSetups = 5;

/// One metric as BENCHMARK.json lists it.
struct MetricDef {
  std::string name;
  std::string unit;
};

/// BENCHMARK.json at the repository root: the run length and the one list
/// of metric names and units. End-to-end metrics (printed with --trace 0)
/// are the same for every workload; what one "job" is differs per workload
/// (README.md). Per-layer metrics are printed with --trace 1; a layer the
/// workload leaves idle reports 0.
struct BenchmarkSpec {
  double run_seconds = 0.0;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricDef> per_layer;
};
/// Parsed once, on first use; throws when the file is missing or malformed.
[[nodiscard]] const BenchmarkSpec& benchmark_spec();

/// What one workload run produced.
struct RunResult {
  std::map<std::string, double> metrics;  ///< end-to-end and per-layer
  /// Printed and stored in result.json, never gated (the open loop's p99
  /// at each rate, the Table I timings, the scores).
  std::vector<std::pair<std::string, std::string>> diagnostics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness-gate failures; any entry makes the run incorrect.
  std::vector<std::string> violations;

  void diag(const std::string& key, double value, const char* unit);
  void diag(const std::string& key, const std::string& value);
  /// Record a correctness gate; a false `ok` adds `what` to violations.
  void check(bool ok, const std::string& what);
};

/// One measured window as the end-to-end metrics see it: jobs_per_s is
/// completed jobs over the window's length, job_p50_ms and job_p95_ms are
/// taken over every job in it. (Whole-window estimates: on serve_mixed,
/// medians over shorter slices spread twice as wide between runs.)
struct Window {
  std::vector<double> job_ms;  ///< latency per completed job
  double seconds = 0.0;        ///< first submit to last completion
  /// Set (>= 0) when the workload's throughput is not completions per
  /// second of this window (the open loop's whole sweep).
  double jobs_per_s = -1.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Fill jobs_per_s, job_p50_ms and job_p95_ms (and the jobs counts) from
/// a window; its p99 goes to the diagnostics.
void report_window(const Window& window, RunResult& out);

/// Run the measured window: one untraced window of opts.seconds or, in a
/// traced run, an untraced and a traced window of half that each. The
/// end-to-end metrics always come from the untraced window; the ratio of
/// the two medians is reported as trace.overhead_pct.
template <typename Measure>
void run_windows(const Options& opts, Tracer& tracer, RunResult& out,
                 Measure&& measure);

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process / of its waited-for children, in MB.
[[nodiscard]] double peak_rss_mb_self();
[[nodiscard]] double peak_rss_mb_children();

/// The data profile the serving workloads generate at set-up: the quick
/// experiment profile (about 3.5k training rows, eval::quick_experiment_
/// config). Training seeds are fixed: training is set-up, not input.
[[nodiscard]] eval::ExperimentConfig data_config(std::size_t epochs);

/// Generate and split the job stream (span panda.generate).
[[nodiscard]] eval::PreparedData generate_data(
    const eval::ExperimentConfig& cfg, Tracer& tracer, SpanId parent);

/// Fit `key` on `train` (span models.fit) and save its archive as
/// `dir`/`key`.bin; returns the archive path.
[[nodiscard]] std::string fit_and_save(const std::string& key,
                                       const eval::ExperimentConfig& cfg,
                                       const tabular::Table& train,
                                       const std::string& dir,
                                       Tracer& tracer, SpanId parent);

/// `count` distinct job seeds drawn from the run seed. Jobs reuse them, so
/// every served job's bytes are checked against one direct sample_into
/// per (model, seed) instead of one per job.
[[nodiscard]] std::vector<std::uint64_t> seed_pool(std::uint64_t run_seed,
                                                   std::size_t count);

/// Build the workload's set-up kSetups times; setup_s is the median.
/// `teardown()` (untimed) releases the previous set-up, then `build(span)`
/// makes the next one under a root span named "setup".
template <typename Teardown, typename Build>
void run_setups(const Options& opts, Tracer& tracer, RunResult& out,
                Teardown&& teardown, Build&& build);

/// One served job as its client saw it.
struct JobRecord {
  std::string model;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;  ///< serve::hash_table of the returned bytes
  double latency_ms = 0.0;   ///< client-observed
  double queue_ms = 0.0;     ///< as the serving layer reports it
  double sample_ms = 0.0;
  double total_ms = 0.0;
  std::size_t pages = 0;     ///< result pages (socket transport)
};

/// Closed loop: `clients` threads each run jobs back to back until
/// `seconds` pass. `run_job(client, rng, job_id)` runs one job and returns
/// its record; a job that throws counts as failed. Each client draws from
/// its own stream of `stream_seed`.
template <typename RunJob>
Window closed_loop(std::size_t clients, double seconds,
                   std::uint64_t stream_seed, Tracer& tracer,
                   std::vector<JobRecord>& records, RunJob&& run_job);

/// Gate: every record's digest equals a direct in-process sample_into of
/// the same (model, rows, seed, chunk_rows) from `host`'s archives,
/// sampled once per (model, seed).
void check_digests(const std::vector<JobRecord>& records,
                   serve::ModelHost& host, std::size_t rows,
                   std::size_t chunk_rows, RunResult& out);

/// serve.batches, serve.batch_jobs_mean, serve.host.hit_rate and
/// serve.host.loads over one window, from the backend's stats before and
/// after it.
void report_service_stats(const serve::ServiceStats& before,
                          const serve::ServiceStats& after, RunResult& out);

/// Time linalg::gemm at the hidden-layer shape 512x256x256 and report
/// linalg.gemm_gflops from its computed FLOP count (2*m*n*k per call).
void probe_gemm(Tracer& tracer, RunResult& out);

/// Median duration in ms of the spans named `name` (and tagged `tag`, when
/// non-empty); 0 when there are none.
[[nodiscard]] double span_median_ms(const std::vector<Span>& spans,
                                    const std::string& name,
                                    const std::string& tag = "");

/// The per-layer metrics every workload takes the same way, as span
/// medians: panda.generate_s, models.fit_s.<key>, fleet.spawn_s,
/// serve.submit_ms, net.submit_ms and net.wait_result_ms.
void report_span_metrics(const std::vector<Span>& spans, RunResult& out);

/// The four models every Table I pass and mixed workload covers.
[[nodiscard]] const std::vector<std::string>& model_keys();

void run_offline_table1(const Options& opts, Tracer& tracer, RunResult& out);
void run_serve_mixed(const Options& opts, Tracer& tracer, RunResult& out);
void run_socket_bulk(const Options& opts, Tracer& tracer, RunResult& out);
void run_fleet_open(const Options& opts, Tracer& tracer, RunResult& out);

// ------------------------------------------------------------ templates --

template <typename Measure>
void run_windows(const Options& opts, Tracer& tracer, RunResult& out,
                 Measure&& measure) {
  if (!opts.trace) {
    tracer.set_enabled(false);
    report_window(measure(opts.seconds), out);
    return;
  }
  tracer.set_enabled(false);
  const Window plain = measure(opts.seconds / 2.0);
  tracer.set_enabled(true);
  const Window traced = measure(opts.seconds / 2.0);
  report_window(plain, out);
  out.attempted += traced.attempted;
  out.failed += traced.failed;
  const double base = median(plain.job_ms);
  out.metrics["trace.overhead_pct"] =
      base > 0.0 ? (median(traced.job_ms) / base - 1.0) * 100.0 : 0.0;
}

template <typename RunJob>
Window closed_loop(std::size_t clients, double seconds,
                   std::uint64_t stream_seed, Tracer& tracer,
                   std::vector<JobRecord>& records, RunJob&& run_job) {
  Window w;
  std::mutex mutex;
  std::atomic<std::uint64_t> next_job{1};
  const double start = tracer.now();
  const double stop_at = start + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(stream_seed + 0x9E3779B97F4A7C15ULL * (c + 1));
      while (tracer.now() < stop_at) {
        const std::uint64_t job = next_job.fetch_add(1);
        try {
          JobRecord record = run_job(c, rng, job);
          const std::lock_guard<std::mutex> lock(mutex);
          ++w.attempted;
          w.job_ms.push_back(record.latency_ms);
          records.push_back(std::move(record));
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(mutex);
          ++w.attempted;
          ++w.failed;
          std::fprintf(stderr, "job %llu failed: %s\n",
                       static_cast<unsigned long long>(job), e.what());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  w.seconds = tracer.now() - start;
  return w;
}

template <typename Teardown, typename Build>
void run_setups(const Options& opts, Tracer& tracer, RunResult& out,
                Teardown&& teardown, Build&& build) {
  tracer.set_enabled(opts.trace);
  std::vector<double> seconds;
  for (std::size_t i = 0; i < (opts.smoke ? 1 : kSetups); ++i) {
    teardown();
    const double start = tracer.now();
    const SpanId span = tracer.begin("setup");
    build(span);
    tracer.end(span);
    seconds.push_back(tracer.now() - start);
  }
  out.metrics["setup_s"] = median(seconds);
}

}  // namespace surro::benchmark
