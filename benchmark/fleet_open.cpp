// fleet_open — the net layer used the other way round: many small jobs
// crossing process boundaries. Two `surro_cli serve --worker` processes
// (serve::WorkerFleet) sit behind a remote-only ShardPool (replication 2)
// and take 200-row jobs over SMOTE, TVAE and CTABGAN (no TabDDPM, whose
// sampling cost would hide the transport). One sender thread offers
// Poisson arrivals at fixed rates, never calibrated, so two commits see the
// same offered load; arrivals do not wait for replies, and each job is
// timed from when it was due, so a stall counts against every job behind
// it. The same thread polls outstanding futures between sends.

#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "harness.hpp"
#include "serve/replay.hpp"
#include "serve/shard_pool.hpp"
#include "serve/worker_fleet.hpp"

namespace surro::benchmark {

namespace {

struct Scale {
  std::size_t rows;
  std::size_t chunk_rows;
  std::size_t workers;
  std::size_t seeds;
  std::vector<double> rates;  ///< offered jobs/s, lowest first
};

Scale scale_for(const Options& opts) {
  if (opts.smoke) return Scale{50, 512, 2, 4, {100.0, 200.0, 400.0}};
  return Scale{200, 512, 2, 16, {100.0, 300.0, 1200.0}};
}

const std::vector<std::string> kModels = {"smote", "tvae", "ctabgan"};

/// The latency limit on p99 (from due time) that defines the highest
/// sustainable rate, and the backlog allowed when sending stops.
constexpr double kSloP99Ms = 50.0;
constexpr double kSloBacklogSeconds = 0.05;
/// A rate whose backlog has not drained by then has failed jobs.
constexpr double kDrainTimeoutSeconds = 60.0;

/// One offered rate's outcome.
struct Phase {
  double rate = 0.0;
  std::vector<double> from_due_ms;
  std::vector<double> lag_ms;  ///< sender lateness: due -> send
  std::size_t outstanding_at_stop = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double start = 0.0;
  double last_completion = 0.0;

  [[nodiscard]] bool meets_slo() const {
    return failed == 0 && !from_due_ms.empty() &&
           percentile(from_due_ms, 0.99) <= kSloP99Ms &&
           static_cast<double>(outstanding_at_stop) <=
               rate * kSloBacklogSeconds;
  }
};

struct Outstanding {
  std::future<serve::SampleResult> future;
  JobRecord record;
  double due = 0.0;
  double sent = 0.0;
  double submitted = 0.0;
  SpanId root = kNoSpan;
  std::uint64_t job = 0;
};

/// Send Poisson arrivals at `rate` for `seconds`, then drain.
Phase run_phase(serve::ShardPool& pool, const Scale& scale, double rate,
                double seconds, util::Rng& rng,
                const std::vector<std::uint64_t>& seeds, Tracer& tracer,
                std::uint64_t& next_job, std::vector<JobRecord>& records) {
  Phase phase;
  phase.rate = rate;
  std::vector<Outstanding> outstanding;
  phase.start = tracer.now();
  phase.last_completion = phase.start;
  const double send_until = phase.start + seconds;
  double next_due = phase.start + rng.exponential(rate);
  bool stop_recorded = false;

  const auto harvest = [&](Outstanding& o) {
    try {
      serve::SampleResult result = o.future.get();
      const double t = tracer.now();
      const SpanId remote =
          tracer.add("serve.remote", o.submitted, t, o.root, o.job,
                     o.record.model);
      // The worker's own stages, as its job document reports them.
      const double queued = std::min(o.submitted + result.queue_seconds, t);
      tracer.add("serve.queue", o.submitted, queued, remote, o.job,
                 o.record.model);
      tracer.add("serve.sample", queued,
                 std::min(queued + result.sample_seconds, t), remote, o.job,
                 o.record.model);
      tracer.end(o.root);
      phase.from_due_ms.push_back((t - o.due) * 1e3);
      o.record.latency_ms = (t - o.sent) * 1e3;
      o.record.queue_ms = result.queue_seconds * 1e3;
      o.record.sample_ms = result.sample_seconds * 1e3;
      o.record.total_ms = result.total_seconds * 1e3;
      o.record.digest = serve::hash_table(result.table);
      records.push_back(std::move(o.record));
      phase.last_completion = t;
    } catch (const std::exception& e) {
      ++phase.failed;
      std::fprintf(stderr, "job %llu failed: %s\n",
                   static_cast<unsigned long long>(o.job), e.what());
    }
  };

  for (;;) {
    for (std::size_t i = 0; i < outstanding.size();) {
      if (outstanding[i].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        harvest(outstanding[i]);
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++i;
      }
    }
    double now = tracer.now();
    if (next_due < send_until && now >= next_due) {
      Outstanding o;
      o.due = next_due;
      next_due += rng.exponential(rate);
      o.job = next_job++;
      o.record.model = kModels[rng.uniform_index(kModels.size())];
      o.record.seed = seeds[rng.uniform_index(seeds.size())];
      o.root = tracer.add("job", o.due, o.due, kNoSpan, o.job, o.record.model);
      o.sent = tracer.now();
      tracer.add("loadgen.lag", o.due, o.sent, o.root, o.job);
      phase.lag_ms.push_back((o.sent - o.due) * 1e3);
      serve::SampleJob job;
      job.model_key = o.record.model;
      job.rows = scale.rows;
      job.seed = o.record.seed;
      job.chunk_rows = scale.chunk_rows;
      ++phase.attempted;
      try {
        o.future = traced(tracer, "net.submit", o.root, o.job, o.record.model,
                          [&] { return pool.submit(std::move(job)); });
        o.submitted = tracer.now();
        outstanding.push_back(std::move(o));
      } catch (const std::exception& e) {
        ++phase.failed;
        std::fprintf(stderr, "submit failed: %s\n", e.what());
      }
      continue;
    }
    if (next_due >= send_until) {
      if (!stop_recorded) {
        phase.outstanding_at_stop = outstanding.size();
        stop_recorded = true;
      }
      if (outstanding.empty()) break;
      if (now - send_until > kDrainTimeoutSeconds) {
        phase.failed += outstanding.size();
        std::fprintf(stderr, "%zu jobs still outstanding after %.0fs\n",
                     outstanding.size(), kDrainTimeoutSeconds);
        break;
      }
    }
    // Poll every 100 us, or sooner when the next arrival is due.
    now = tracer.now();
    const double wait =
        next_due < send_until ? std::min(next_due - now, 100e-6) : 100e-6;
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
  }
  return phase;
}

struct FleetStack {
  std::unique_ptr<serve::WorkerFleet> workers;
  std::unique_ptr<serve::ShardPool> pool;  // proxies into `workers`
};

}  // namespace

void run_fleet_open(const Options& opts, Tracer& tracer, RunResult& out) {
  const Scale scale = scale_for(opts);
  const eval::ExperimentConfig cfg = data_config(1);
  const std::string dir = opts.out_dir + "/models";
  const std::string fleet_dir = opts.out_dir + "/fleet";
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(fleet_dir);

  FleetStack stack;
  std::map<std::string, std::string> archives;
  const auto teardown = [&] {
    stack.pool.reset();
    if (stack.workers) {
      const int worst = stack.workers->shutdown();
      out.check(worst == 0, "a fleet worker exited with status " +
                                std::to_string(worst) + " at shutdown");
      stack.workers.reset();
    }
  };
  run_setups(opts, tracer, out, teardown, [&](SpanId span) {
    const auto data = generate_data(cfg, tracer, span);
    std::string models_flag;
    for (const auto& key : kModels) {
      archives[key] = fit_and_save(key, cfg, data.train, dir, tracer, span);
      models_flag += (models_flag.empty() ? "" : ";") + key + "=" +
                     archives[key];
    }
    serve::WorkerFleetConfig fleet_cfg;
    fleet_cfg.cli_path = SURRO_CLI_PATH;  // built beside this binary
    fleet_cfg.workers = scale.workers;
    fleet_cfg.scratch_dir = fleet_dir;
    // --serve-seconds bounds a worker's life should this process die
    // before shutting the fleet down.
    fleet_cfg.serve_args = {"--models", models_flag, "--capacity", "4",
                            "--serve-seconds", "170"};
    stack.workers = std::make_unique<serve::WorkerFleet>(fleet_cfg);
    traced(tracer, "fleet.spawn", span, 0, "", [&] {
      stack.workers->start();
      return 0;
    });
    serve::ShardPoolConfig pool_cfg;
    pool_cfg.shards = 0;
    pool_cfg.replication = scale.workers;
    pool_cfg.service.chunk_rows = scale.chunk_rows;
    for (std::size_t i = 0; i < stack.workers->size(); ++i) {
      serve::RemoteShardConfig remote;
      remote.port = stack.workers->port(i);
      pool_cfg.remotes.push_back(remote);
    }
    stack.pool = std::make_unique<serve::ShardPool>(pool_cfg);
    for (const auto& key : kModels) {
      stack.pool->register_archive(key, archives[key]);
    }
    // Warm every replica: each worker loads each archive once.
    for (std::size_t s = 0; s < stack.pool->shards(); ++s) {
      for (const auto& key : kModels) {
        serve::SampleJob job;
        job.model_key = key;
        job.rows = scale.rows;
        job.chunk_rows = scale.chunk_rows;
        (void)stack.pool->backend(s).sample(std::move(job));
      }
    }
  });

  const auto seeds = seed_pool(opts.seed, scale.seeds);
  std::vector<JobRecord> records;
  std::vector<JobRecord> window_records;
  std::vector<Phase> phases;  // of the latest window
  std::uint64_t next_job = 1;
  std::uint64_t window_index = 0;
  run_windows(opts, tracer, out, [&](double seconds) {
    window_records.clear();
    phases.clear();
    util::Rng rng(opts.seed * 31 + (++window_index));
    const serve::ShardStats before = stack.pool->shard_stats();
    // Each rate gets the same expected job count: its share of the window
    // is proportional to 1/rate.
    double inverse_sum = 0.0;
    for (const double rate : scale.rates) inverse_sum += 1.0 / rate;
    Window w;
    std::uint64_t completed = 0;
    for (const double rate : scale.rates) {
      phases.push_back(run_phase(*stack.pool, scale, rate,
                                 seconds / (rate * inverse_sum), rng, seeds,
                                 tracer, next_job, window_records));
      w.attempted += phases.back().attempted;
      w.failed += phases.back().failed;
      completed += phases.back().from_due_ms.size();
    }
    const serve::ShardStats after = stack.pool->shard_stats();
    report_service_stats(before.aggregate, after.aggregate, out);
    out.metrics["serve.routed"] =
        static_cast<double>(after.routed - before.routed);
    out.metrics["serve.rerouted"] =
        static_cast<double>(after.rerouted - before.rerouted);
    out.metrics["serve.rerouted_transport"] = static_cast<double>(
        after.rerouted_transport - before.rerouted_transport);
    // Latency at the lowest offered rate; throughput is what the whole
    // sweep delivered: the offered mean while the fleet keeps up, less
    // once a rate outruns it.
    const Phase& low = phases.front();
    w.job_ms = low.from_due_ms;
    w.seconds = phases.back().last_completion - low.start;
    w.jobs_per_s = static_cast<double>(completed) / w.seconds;
    records.insert(records.end(), window_records.begin(),
                   window_records.end());
    return w;
  });
  tracer.set_enabled(opts.trace);

  double slo_rate = 0.0;
  for (const Phase& p : phases) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%zu jobs, p50 %.3f ms, p99 %.3f ms (from due), lag p99 "
                  "%.3f ms max %.3f ms, %zu outstanding at stop, %llu failed",
                  p.from_due_ms.size(), percentile(p.from_due_ms, 0.50),
                  percentile(p.from_due_ms, 0.99), percentile(p.lag_ms, 0.99),
                  percentile(p.lag_ms, 1.0), p.outstanding_at_stop,
                  static_cast<unsigned long long>(p.failed));
    out.diag("rate_" + std::to_string(static_cast<int>(p.rate)), buf);
    if (p.meets_slo()) slo_rate = p.rate;
  }
  out.diag("slo_rate_jobs_per_s", slo_rate, "1/s");

  serve::ModelHost reference;
  for (const auto& [key, path] : archives) {
    reference.register_archive(key, path);
  }
  check_digests(records, reference, scale.rows, scale.chunk_rows, out);
  teardown();
  out.metrics["fleet.worker_peak_rss_mb"] = peak_rss_mb_children();

  if (!opts.trace) return;
  std::vector<double> wire_ms, queue_ms, sample_ms, lag_ms;
  for (const auto& r : window_records) {
    wire_ms.push_back(r.latency_ms - r.total_ms);
    queue_ms.push_back(r.queue_ms);
    sample_ms.push_back(r.sample_ms);
  }
  for (const Phase& p : phases) {
    lag_ms.insert(lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
  out.metrics["serve.remote.wire_ms"] = median(wire_ms);
  out.metrics["serve.worker.queue_wait_ms"] = median(queue_ms);
  out.metrics["serve.worker.sample_ms"] = median(sample_ms);
  out.metrics["loadgen.lag_ms.p99"] = percentile(lag_ms, 0.99);
}

}  // namespace surro::benchmark
