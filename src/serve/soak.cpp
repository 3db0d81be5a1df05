#include "serve/soak.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/rest.hpp"
#include "serve/latency_window.hpp"
#include "serve/remote_shard.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace surro::serve {

namespace {

/// Jobs per client in the unbounded calibration run that measures
/// capacity_jobs_per_sec before the sweep.
constexpr std::size_t kCalibrationJobsPerClient = 4;

/// The job seed for (model m, stream s): a SplitMix64 hash of the identity,
/// so neighbouring identities get unrelated streams.
std::uint64_t seed_for(const SoakConfig& cfg, std::size_t model,
                       std::size_t stream) {
  std::uint64_t state = cfg.seed +
                        0x9E3779B97F4A7C15ULL *
                            (model * cfg.seed_streams + stream + 1);
  return util::splitmix64(state);
}

/// Deterministic per-(point, client) arrival-process seed.
std::uint64_t arrival_seed(const SoakConfig& cfg, std::size_t point,
                           std::size_t client) {
  std::uint64_t state = cfg.seed ^ (0xA24BAED4963EE407ULL + point);
  (void)util::splitmix64(state);  // advance: decorrelate point from seed
  state += client;
  return util::splitmix64(state);
}

}  // namespace

SoakResult run_soak(ModelHost& host, const SoakConfig& cfg) {
  if (cfg.models.empty()) {
    throw std::invalid_argument("soak: need at least one model");
  }
  if (cfg.load_multipliers.empty()) {
    throw std::invalid_argument("soak: need at least one load multiplier");
  }
  const std::size_t chunk_rows = cfg.backend.service.chunk_rows;
  if (cfg.rows_per_job == 0 || chunk_rows == 0 || cfg.seed_streams == 0 ||
      cfg.clients == 0) {
    throw std::invalid_argument("soak: rows_per_job, chunk_rows, "
                                "seed_streams, clients must be positive");
  }
  const std::size_t num_models = cfg.models.size();
  const std::size_t identities = num_models * cfg.seed_streams;

  util::Stopwatch total;
  SoakResult result;

  // Identity i is (model i % M, stream i / M): a client cycling plan
  // indices k = c, c+C, ... covers the universe without coordination.
  const auto make_job = [&](std::size_t k) {
    const std::size_t identity = k % identities;
    SampleJob job;
    job.model_key = cfg.models[identity % num_models];
    job.rows = cfg.rows_per_job;
    job.seed = seed_for(cfg, identity % num_models, identity / num_models);
    job.chunk_rows = chunk_rows;
    job.deadline_ms = cfg.deadline_ms;
    return job;
  };

  // ---- Expected digests: sample every identity directly, single-threaded,
  // outside any service. This is the ground truth each accepted job is
  // compared against — the determinism contract says serving machinery
  // (dispatch order, rejection storms, eviction/reload) must never move a
  // job's bytes off this table. Model-major, so a small host never thrashes.
  std::vector<std::uint64_t> expected(identities);
  for (std::size_t m = 0; m < num_models; ++m) {
    for (std::size_t s = 0; s < cfg.seed_streams; ++s) {
      const std::size_t identity = s * num_models + m;
      expected[identity] = expected_digest(host, make_job(identity));
      result.expected_hash += expected[identity];  // sum: order-independent
    }
  }

  // ---- Calibration: one client, no admission bounds, no deadline; the
  // sweep's offered rates are multiples of the jobs/sec it sustains.
  {
    ServiceConfig calib_cfg;
    calib_cfg.sample_threads = cfg.backend.service.sample_threads;
    calib_cfg.chunk_rows = chunk_rows;
    SampleService calibration(host, calib_cfg);
    LoadPlan plan;
    plan.jobs = cfg.clients * kCalibrationJobsPerClient;
    plan.job_at = [&](std::size_t k) {
      SampleJob job = make_job(k);
      job.deadline_ms = 0.0;
      return job;
    };
    // Warm-up pass (archive loads, allocator), then the timed one.
    for (int round = 0; round < 2; ++round) {
      const LoadRun run = drive_load({&calibration}, plan);
      if (run.counts.completed != plan.jobs) {
        throw std::runtime_error("soak: a calibration job failed");
      }
      result.capacity_jobs_per_sec = static_cast<double>(plan.jobs) /
                                     std::max(run.wall_seconds, 1e-9);
    }
  }
  if (cfg.verbose) {
    std::printf("soak: calibrated capacity %.1f jobs/s (%zu models, %zu "
                "rows/job)\n",
                result.capacity_jobs_per_sec, num_models, cfg.rows_per_job);
  }

  // ---- The bounded backend under test. A pool registers the caller's
  // host keys on its shards, so the expected digests computed on the
  // unsharded host above double as the cross-placement check.
  ShardPoolConfig backend_cfg = cfg.backend;
  backend_cfg.service.max_queue_depth = cfg.effective_queue_depth();
  const Backend backend = make_backend(host, backend_cfg);
  SampleBackend& service = *backend.service;
  ShardPool* const pool = backend.pool;
  if (cfg.verbose && pool != nullptr) {
    std::printf("soak: sharded tier — %zu local + %zu remote shards, "
                "replication %zu\n",
                backend_cfg.shards, backend_cfg.remotes.size(),
                backend_cfg.replication);
  }

  // Socket mode: the same bounded service behind the REST front end on an
  // ephemeral loopback port, and one RemoteShard per client pointed at it.
  // A RemoteShard is a SampleBackend (POST, long-poll, pagination, wire
  // code -> ServiceError), so every client runs the same loop in both
  // modes and a digest or SLO difference isolates the wire path.
  std::unique_ptr<net::HttpEndpoint> endpoint;
  std::vector<std::unique_ptr<RemoteShard>> remotes;
  std::vector<SampleBackend*> targets{&service};
  if (cfg.over_socket) {
    RemoteShardConfig remote_cfg;
    net::RestConfig rest_cfg;
    // Retained-job headroom: every client paginates its own backlog; the
    // purge must never evict a half-read result under it.
    rest_cfg.completed_cap = std::max<std::size_t>(256, cfg.clients * 8);
    net::ServerConfig server_cfg;
    // A connection holds a worker for its keep-alive life: each client's
    // control connection plus its harvest connections, and slack for
    // stats probes.
    server_cfg.worker_threads =
        cfg.clients * (remote_cfg.harvest_threads + 1) + 2;
    endpoint = std::make_unique<net::HttpEndpoint>(service, rest_cfg,
                                                   server_cfg);
    endpoint->server.start();
    remote_cfg.port = endpoint->server.port();
    targets.clear();
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      remotes.push_back(std::make_unique<RemoteShard>(remote_cfg));
      targets.push_back(remotes.back().get());
    }
    if (cfg.verbose) {
      std::printf("soak: socket mode on 127.0.0.1:%u (%zu http workers)\n",
                  static_cast<unsigned>(remote_cfg.port),
                  server_cfg.worker_threads);
    }
  }

  for (std::size_t p = 0; p < cfg.load_multipliers.size(); ++p) {
    SoakPoint point;
    point.multiplier = cfg.load_multipliers[p];
    point.offered_jobs_per_sec =
        point.multiplier * result.capacity_jobs_per_sec;
    LoadPlan plan;
    plan.clients = cfg.clients;
    plan.job_at = make_job;
    plan.rate_per_client = std::max(
        point.offered_jobs_per_sec / static_cast<double>(cfg.clients), 1e-6);
    plan.window_seconds = cfg.duration_seconds;
    plan.min_jobs_per_client =
        (cfg.effective_min_jobs() + cfg.clients - 1) / cfg.clients;
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      plan.arrival_seeds.push_back(arrival_seed(cfg, p, c));
    }

    // Queue-depth monitor: the "bounded queue under overload" probe. For a
    // sharded run the admission bound is per shard, so the monitor tracks
    // each shard's depth (and the headline max is the worst single shard).
    std::size_t max_depth = 0;
    std::vector<std::size_t> shard_max(pool ? pool->shards() : 0, 0);
    std::jthread monitor([&](const std::stop_token& stop) {
      while (!stop.stop_requested()) {
        if (pool) {
          const auto depths = pool->shard_depths();
          for (std::size_t s = 0; s < depths.size(); ++s) {
            shard_max[s] = std::max(shard_max[s], depths[s]);
            max_depth = std::max(max_depth, depths[s]);
          }
        } else {
          max_depth = std::max(max_depth, service.queue_depth());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    util::Stopwatch point_wall;
    const LoadRun run = drive_load(targets, plan);
    service.drain();  // the no-deadlock-on-drain-mid-overload check
    point.wall_seconds = point_wall.seconds();
    monitor.request_stop();
    monitor.join();
    point.max_queue_depth_seen = max_depth;
    point.shard_max_depths = std::move(shard_max);

    point.counts = run.counts;
    std::vector<double> latencies;
    latencies.reserve(run.served.size());
    for (const ServedJob& job : run.served) {
      latencies.push_back(job.latency_ms);
      point.hashes_ok =
          point.hashes_ok && job.digest == expected[job.index % identities];
    }
    std::sort(latencies.begin(), latencies.end());
    point.p50_ms = LatencyWindow::percentile(latencies, 0.50);
    point.p95_ms = LatencyWindow::percentile(latencies, 0.95);
    point.p99_ms = LatencyWindow::percentile(latencies, 0.99);
    point.accepted_rows_per_sec =
        point.wall_seconds > 0.0
            ? static_cast<double>(point.counts.rows) / point.wall_seconds
            : 0.0;
    result.deterministic = result.deterministic && point.hashes_ok;
    if (cfg.verbose) {
      std::printf("soak: %.2fx offered %.1f jobs/s -> accepted %llu "
                  "rejected %llu shed %llu deadline %llu, p95 %.1f ms, "
                  "max depth %zu\n",
                  point.multiplier, point.offered_jobs_per_sec,
                  static_cast<unsigned long long>(point.counts.completed),
                  static_cast<unsigned long long>(point.counts.rejected),
                  static_cast<unsigned long long>(point.counts.shed),
                  static_cast<unsigned long long>(
                      point.counts.deadline_missed),
                  point.p95_ms, point.max_queue_depth_seen);
    }
    result.points.push_back(std::move(point));
  }

  // Headline SLO ratio: tail latency of accepted jobs at the heaviest
  // overload vs the lightest load.
  const SoakPoint* low = nullptr;
  const SoakPoint* high = nullptr;
  for (const auto& point : result.points) {
    if (low == nullptr || point.multiplier < low->multiplier) low = &point;
    if (high == nullptr || point.multiplier > high->multiplier) {
      high = &point;
    }
  }
  result.p95_ratio_vs_low_load =
      (low != nullptr && std::isfinite(low->p95_ms) && low->p95_ms > 0.0 &&
       std::isfinite(high->p95_ms))
          ? high->p95_ms / low->p95_ms
          : std::nan("");

  result.final_stats = service.stats();
  if (pool) {
    const ShardStats ss = pool->shard_stats();
    result.shard_final_stats = ss.per_shard;
    result.routed = ss.routed;
    result.rerouted = ss.rerouted;
    result.rerouted_transport = ss.rerouted_transport;
  }
  if (endpoint) {
    remotes.clear();  // close the client connections before the server
    const net::ServerStats server = endpoint->server.stats();
    result.http_connections = server.connections;
    result.http_requests = server.requests;
    endpoint->server.stop();  // before the service (handlers borrow it)
  }
  result.wall_seconds = total.seconds();
  return result;
}

std::string render_soak(const SoakResult& result) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "%-6s %10s %9s %9s %6s %9s %9s %9s %7s\n", "load",
                "offered/s", "accepted", "rejected", "shed", "p50 ms",
                "p95 ms", "p99 ms", "depth");
  out += line;
  for (const auto& point : result.points) {
    std::snprintf(line, sizeof(line),
                  "%-6.2f %10.1f %9llu %9llu %6llu %9.1f %9.1f %9.1f %7zu\n",
                  point.multiplier, point.offered_jobs_per_sec,
                  static_cast<unsigned long long>(point.counts.completed),
                  static_cast<unsigned long long>(point.counts.rejected),
                  static_cast<unsigned long long>(point.counts.shed),
                  point.p50_ms, point.p95_ms, point.p99_ms,
                  point.max_queue_depth_seen);
    out += line;
  }
  std::snprintf(line, sizeof(line), "p95 ratio (max load / low load): %.2fx\n",
                result.p95_ratio_vs_low_load);
  out += line;
  std::snprintf(line, sizeof(line),
                "determinism: %s (expected hash %016llx)\n",
                result.deterministic ? "ok" : "VIOLATED",
                static_cast<unsigned long long>(result.expected_hash));
  out += line;
  if (!result.shard_final_stats.empty()) {
    std::snprintf(
        line, sizeof(line),
        "shards: %zu (routed %llu, rerouted %llu, transport reroutes %llu)\n",
        result.shard_final_stats.size(),
        static_cast<unsigned long long>(result.routed),
        static_cast<unsigned long long>(result.rerouted),
        static_cast<unsigned long long>(result.rerouted_transport));
    out += line;
  }
  return out;
}

std::string soak_to_json(const SoakConfig& cfg, const SoakResult& result) {
  const ShardPoolConfig& backend = cfg.backend;
  char hash_hex[19];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(result.expected_hash));

  util::JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("kind", "serve_soak");
  w.key("config").begin_object();
  w.key("models").begin_array();
  for (const auto& key : cfg.models) w.value(key);
  w.end_array();
  w.kv("clients", cfg.clients);
  w.kv("rows_per_job", cfg.rows_per_job);
  w.kv("chunk_rows", backend.service.chunk_rows);
  w.kv("seed", cfg.seed);
  w.kv("seed_streams", cfg.seed_streams);
  w.kv("duration_seconds", cfg.duration_seconds);
  w.kv("min_jobs_per_point", cfg.effective_min_jobs());
  w.kv("deadline_ms", cfg.deadline_ms);
  w.kv("admission", admission_policy_name(backend.service.admission));
  w.kv("max_queue_depth", cfg.effective_queue_depth());
  w.kv("max_queued_rows", backend.service.max_queued_rows);
  w.kv("sample_threads", backend.service.sample_threads);
  w.kv("over_socket", cfg.over_socket);
  w.kv("shards", backend.shards);
  w.kv("replicas", backend.replication);
  w.kv("shard_ttl_ms", backend.host.ttl_ms);
  w.key("remote_shards").begin_array();
  for (const auto& remote : backend.remotes) {
    w.value(remote.host + ":" + std::to_string(remote.port));
  }
  w.end_array();
  w.end_object();
  w.kv("transport", cfg.over_socket ? "socket" : "in-process");
  w.kv("shard_transport",
       backend.remotes.empty() ? "in-process" : "multi-process");
  w.kv("capacity_jobs_per_sec", result.capacity_jobs_per_sec);
  w.kv("expected_hash", hash_hex);
  w.key("sweep").begin_array();
  for (const auto& point : result.points) {
    w.begin_object();
    w.kv("multiplier", point.multiplier);
    w.kv("offered_jobs_per_sec", point.offered_jobs_per_sec);
    w.kv("submitted", point.counts.submitted);
    w.kv("accepted", point.counts.completed);
    w.kv("rejected", point.counts.rejected);
    w.kv("shed", point.counts.shed);
    w.kv("deadline_missed", point.counts.deadline_missed);
    w.kv("failed", point.counts.failed);
    w.kv("p50_ms", point.p50_ms);  // inf (nothing accepted) -> null
    w.kv("p95_ms", point.p95_ms);
    w.kv("p99_ms", point.p99_ms);
    w.kv("wall_seconds", point.wall_seconds);
    w.kv("accepted_rows_per_sec", point.accepted_rows_per_sec);
    w.kv("max_queue_depth_seen", point.max_queue_depth_seen);
    if (!point.shard_max_depths.empty()) {
      w.key("shard_max_depths").begin_array();
      for (const std::size_t d : point.shard_max_depths) w.value(d);
      w.end_array();
    }
    w.kv("hashes_ok", point.hashes_ok);
    w.end_object();
  }
  w.end_array();
  w.kv("p95_ratio_vs_low_load", result.p95_ratio_vs_low_load);
  w.kv("deterministic", result.deterministic);
  write_service_stats(w, result.final_stats);
  if (!result.shard_final_stats.empty()) {
    w.key("shards").begin_object();
    w.kv("count", result.shard_final_stats.size());
    w.kv("local", backend.shards);
    w.kv("remote", backend.remotes.size());
    w.kv("replicas", backend.replication);
    w.kv("routed", result.routed);
    w.kv("rerouted", result.rerouted);
    w.kv("rerouted_transport", result.rerouted_transport);
    w.key("per_shard").begin_array();
    for (std::size_t i = 0; i < result.shard_final_stats.size(); ++i) {
      const ServiceStats& ss = result.shard_final_stats[i];
      w.begin_object();
      w.kv("shard", i);
      w.kv("submitted", ss.submitted);
      w.kv("completed", ss.completed);
      w.kv("rejected", ss.rejected);
      w.kv("shed", ss.shed);
      w.kv("batches", ss.batches);
      w.kv("cache_hits", ss.host.hits);
      w.kv("cache_misses", ss.host.misses);
      w.kv("stale_reloads", ss.host.stale_reloads);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (cfg.over_socket) {
    w.key("http").begin_object();
    w.kv("connections", result.http_connections);
    w.kv("requests", result.http_requests);
    w.end_object();
  }
  w.kv("wall_seconds", result.wall_seconds);
  w.end_object();
  return w.str();
}

}  // namespace surro::serve
