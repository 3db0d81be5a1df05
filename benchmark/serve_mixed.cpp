// serve_mixed — the agent-facing compute path in one process: a one-shard
// ShardPool (capacity 4, warm cache) behind four closed-loop clients, each
// job 256 rows from a model drawn per job from the run seed. TabDDPM
// samples about 100x slower than the other three and the dispatcher runs
// one batch at a time, so fast jobs queue behind it and the median job is
// mostly queue wait. Loads models/linalg sampling and serve dispatch; net
// stays idle. The model draw is random on purpose: a round-robin choice
// phase-locks the four clients (README.md, "Traps").

#include <filesystem>
#include <memory>

#include "harness.hpp"
#include "serve/replay.hpp"
#include "serve/shard_pool.hpp"

namespace surro::benchmark {

namespace {

struct Scale {
  std::size_t rows;
  std::size_t chunk_rows;
  std::size_t clients;
  std::size_t epochs;  ///< serving needs fitted models, not good ones
  std::size_t seeds;   ///< distinct job seeds per run
};

Scale scale_for(const Options& opts) {
  return opts.smoke ? Scale{64, 512, 4, 1, 4} : Scale{256, 512, 4, 1, 16};
}

}  // namespace

void run_serve_mixed(const Options& opts, Tracer& tracer, RunResult& out) {
  const Scale scale = scale_for(opts);
  const eval::ExperimentConfig cfg = data_config(scale.epochs);
  const std::string dir = opts.out_dir + "/models";
  std::filesystem::create_directories(dir);

  std::unique_ptr<serve::ShardPool> pool;
  run_setups(
      opts, tracer, out, [&] { pool.reset(); },
      [&](SpanId span) {
        const auto data = generate_data(cfg, tracer, span);
        serve::ShardPoolConfig pool_cfg;
        pool_cfg.shards = 1;
        pool_cfg.host.capacity = 4;
        pool_cfg.service.chunk_rows = scale.chunk_rows;
        pool = std::make_unique<serve::ShardPool>(pool_cfg);
        for (const auto& key : model_keys()) {
          pool->register_archive(
              key, fit_and_save(key, cfg, data.train, dir, tracer, span));
        }
        // Warm the cache: the first job per model loads its archive.
        for (const auto& key : model_keys()) {
          serve::SampleJob job;
          job.model_key = key;
          job.rows = scale.rows;
          job.chunk_rows = scale.chunk_rows;
          (void)pool->sample(std::move(job));
        }
      });

  const auto seeds = seed_pool(opts.seed, scale.seeds);
  std::vector<JobRecord> records;
  std::vector<JobRecord> window_records;  // of the latest window
  std::uint64_t window_index = 0;
  run_windows(opts, tracer, out, [&](double seconds) {
    window_records.clear();
    const serve::ShardStats before = pool->shard_stats();
    const Window w = closed_loop(
        scale.clients, seconds, opts.seed * 31 + (++window_index), tracer,
        window_records,
        [&](std::size_t, util::Rng& rng, std::uint64_t job) {
          JobRecord r;
          r.model = model_keys()[rng.uniform_index(model_keys().size())];
          r.seed = seeds[rng.uniform_index(seeds.size())];
          const double t0 = tracer.now();
          const SpanId root = tracer.begin("job", kNoSpan, job, r.model);
          serve::SampleJob sj;
          sj.model_key = r.model;
          sj.rows = scale.rows;
          sj.seed = r.seed;
          sj.chunk_rows = scale.chunk_rows;
          auto submitted = traced(tracer, "serve.submit", root, job, r.model,
                                  [&] { return pool->submit_job(sj); });
          const double t_submitted = tracer.now();
          serve::SampleResult result = submitted.future.get();
          const double t1 = tracer.now();
          // The service reports its own stages; place them after submit.
          const double queued =
              std::min(t_submitted + result.queue_seconds, t1);
          tracer.add("serve.queue", t_submitted, queued, root, job, r.model);
          tracer.add("serve.sample", queued,
                     std::min(queued + result.sample_seconds, t1), root, job,
                     r.model);
          tracer.end(root);
          r.latency_ms = (t1 - t0) * 1e3;
          r.queue_ms = result.queue_seconds * 1e3;
          r.sample_ms = result.sample_seconds * 1e3;
          r.total_ms = result.total_seconds * 1e3;
          r.digest = serve::hash_table(result.table);  // think time
          return r;
        });
    const serve::ShardStats after = pool->shard_stats();
    report_service_stats(before.aggregate, after.aggregate, out);
    out.metrics["serve.routed"] =
        static_cast<double>(after.routed - before.routed);
    out.metrics["serve.rerouted"] =
        static_cast<double>(after.rerouted - before.rerouted);
    out.metrics["serve.rerouted_transport"] = static_cast<double>(
        after.rerouted_transport - before.rerouted_transport);
    records.insert(records.end(), window_records.begin(),
                   window_records.end());
    return w;
  });
  tracer.set_enabled(opts.trace);

  check_digests(records, pool->host(0), scale.rows, scale.chunk_rows, out);

  if (!opts.trace) return;
  std::vector<double> queue_ms;
  for (const auto& r : window_records) queue_ms.push_back(r.queue_ms);
  out.metrics["serve.queue_wait_ms.p50"] = percentile(queue_ms, 0.50);
  out.metrics["serve.queue_wait_ms.p99"] = percentile(queue_ms, 0.99);
  for (const auto& key : model_keys()) {
    std::vector<double> sample_ms;
    for (const auto& r : window_records) {
      if (r.model == key) sample_ms.push_back(r.sample_ms);
    }
    out.metrics["serve.sample_ms." + key] = median(sample_ms);
  }
}

}  // namespace surro::benchmark
