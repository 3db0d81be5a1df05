#include "serve/soak.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <utility>

#include "net/rest.hpp"
#include "serve/latency_window.hpp"
#include "serve/remote_shard.hpp"
#include "serve/shard_pool.hpp"
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
  if (cfg.rows_per_job == 0 || cfg.chunk_rows == 0 ||
      cfg.seed_streams == 0 || cfg.clients == 0) {
    throw std::invalid_argument("soak: rows_per_job, chunk_rows, "
                                "seed_streams, clients must be positive");
  }
  const std::size_t num_models = cfg.models.size();
  const std::size_t identities = num_models * cfg.seed_streams;

  util::Stopwatch total;
  SoakResult result;

  // ---- Expected digests: sample every (model, stream) identity directly,
  // single-threaded, outside any service. This is the ground truth each
  // accepted job is compared against — the determinism contract says
  // serving machinery (dispatch order, rejection storms, eviction/reload)
  // must never move a job's bytes off this table.
  std::vector<std::vector<std::uint64_t>> expected(num_models);
  for (std::size_t m = 0; m < num_models; ++m) {
    const auto model = host.acquire(cfg.models[m]);
    expected[m].resize(cfg.seed_streams);
    for (std::size_t s = 0; s < cfg.seed_streams; ++s) {
      models::SampleRequest request;
      request.rows = cfg.rows_per_job;
      request.seed = seed_for(cfg, m, s);
      request.chunk_rows = cfg.chunk_rows;
      request.threads = 1;
      tabular::Table table;
      model->sample_into(table, request);
      expected[m][s] = hash_table(table);
      result.expected_hash += expected[m][s];  // sum: order-independent
    }
  }

  const auto make_job = [&](std::size_t identity) {
    const std::size_t m = identity % num_models;
    const std::size_t s = identity / num_models % cfg.seed_streams;
    SampleJob job;
    job.model_key = cfg.models[m];
    job.rows = cfg.rows_per_job;
    job.seed = seed_for(cfg, m, s);
    job.chunk_rows = cfg.chunk_rows;
    job.deadline_ms = cfg.deadline_ms;
    return job;
  };
  const auto expected_for = [&](std::size_t identity) {
    const std::size_t m = identity % num_models;
    const std::size_t s = identity / num_models % cfg.seed_streams;
    return expected[m][s];
  };

  // ---- Calibration: measure sustained jobs/sec with no admission bounds.
  // The sweep's offered rates are multiples of this.
  {
    ServiceConfig calib_cfg;
    calib_cfg.sample_threads = cfg.sample_threads;
    calib_cfg.chunk_rows = cfg.chunk_rows;
    SampleService calibration(host, calib_cfg);
    const std::size_t jobs =
        std::max<std::size_t>(cfg.clients * kCalibrationJobsPerClient, 1);
    // Warm-up pass (archive loads, allocator) before the timed one.
    for (int round = 0; round < 2; ++round) {
      util::Stopwatch wall;
      std::vector<std::future<SampleResult>> futures;
      futures.reserve(jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        // Deadline-free: calibration measures raw capacity, and a burst
        // of queued jobs expiring here would both skew the estimate and
        // throw out of the unguarded get() below.
        SampleJob job = make_job(j % identities);
        job.deadline_ms = 0.0;
        futures.push_back(calibration.submit(std::move(job)));
      }
      for (auto& future : futures) (void)future.get();
      if (round == 1) {
        result.capacity_jobs_per_sec =
            static_cast<double>(jobs) / std::max(wall.seconds(), 1e-9);
      }
    }
  }
  if (cfg.verbose) {
    std::printf("soak: calibrated capacity %.1f jobs/s (%zu models, %zu "
                "rows/job)\n",
                result.capacity_jobs_per_sec, num_models, cfg.rows_per_job);
  }

  // ---- The bounded backend under test: one SampleService, or a ShardPool
  // of them. The pool replicates the caller's host registrations (archives
  // by path, fitted models by sharing the instance), so the expected
  // digests computed on the unsharded host above double as the
  // cross-placement check.
  ServiceConfig svc_cfg;
  svc_cfg.sample_threads = cfg.sample_threads;
  svc_cfg.chunk_rows = cfg.chunk_rows;
  svc_cfg.admission = cfg.admission;
  svc_cfg.max_queue_depth = cfg.effective_queue_depth();
  svc_cfg.max_queued_rows = cfg.max_queued_rows;
  std::unique_ptr<SampleService> single;
  std::unique_ptr<ShardPool> pool;
  SampleBackend* backend = nullptr;
  if (cfg.shards > 1 || !cfg.remote_shards.empty()) {
    ShardPoolConfig pool_cfg;
    pool_cfg.shards = cfg.shards;
    pool_cfg.replication = std::max<std::size_t>(cfg.replicas, 1);
    pool_cfg.host.capacity = host.stats().capacity;
    pool_cfg.host.ttl_ms = cfg.shard_ttl_ms;
    pool_cfg.service = svc_cfg;
    for (const auto& spec : cfg.remote_shards) {
      pool_cfg.remotes.push_back(parse_remote_endpoint(spec));
    }
    pool = std::make_unique<ShardPool>(pool_cfg);
    for (const auto& key : cfg.models) {
      const std::string path = host.archive_path(key);
      if (!path.empty()) {
        pool->register_archive(key, path);
      } else {
        // A fitted in-memory model cannot cross a process boundary;
        // register_fitted throws when any owner shard is remote, which is
        // the right answer (the worker could never produce those bytes).
        pool->register_fitted(key, host.acquire(key));
      }
    }
    backend = pool.get();
    if (cfg.verbose) {
      std::printf(
          "soak: sharded tier — %zu local + %zu remote shards, "
          "replication %zu\n",
          cfg.shards, cfg.remote_shards.size(), pool_cfg.replication);
    }
  } else {
    single = std::make_unique<SampleService>(host, svc_cfg);
    backend = single.get();
  }
  SampleBackend& service = *backend;

  // Socket mode: the same bounded service behind the REST front end on an
  // ephemeral loopback port, and one RemoteShard per client pointed at it.
  // A RemoteShard is a SampleBackend (POST, long-poll, pagination, wire
  // code -> ServiceError), so every client runs the same loop in both
  // modes and a digest or SLO difference isolates the wire path.
  std::unique_ptr<net::HttpEndpoint> endpoint;
  std::vector<std::unique_ptr<RemoteShard>> remotes;
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
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      remotes.push_back(std::make_unique<RemoteShard>(remote_cfg));
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
    const double rate_per_client =
        std::max(point.offered_jobs_per_sec /
                     static_cast<double>(cfg.clients),
                 1e-6);
    const std::size_t min_per_client =
        (cfg.effective_min_jobs() + cfg.clients - 1) / cfg.clients;

    struct ClientTally {
      std::uint64_t submitted = 0, accepted = 0, rejected = 0, shed = 0,
                    deadline_missed = 0, failed = 0;
      std::vector<double> latencies_ms;
      bool hashes_ok = true;
    };
    std::vector<ClientTally> tallies(cfg.clients);

    // Queue-depth monitor: the "bounded queue under overload" probe. For a
    // sharded run the admission bound is per shard, so the monitor tracks
    // each shard's depth (and the headline max is the worst single shard).
    std::atomic<bool> monitor_stop{false};
    std::size_t max_depth = 0;
    std::vector<std::size_t> shard_max(pool ? pool->shards() : 0, 0);
    std::thread monitor([&] {
      while (!monitor_stop.load(std::memory_order_relaxed)) {
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
    const auto client = [&](std::size_t c) {
      auto& tally = tallies[c];
      SampleBackend& target = remotes.empty() ? service : *remotes[c];
      util::Rng arrivals(arrival_seed(cfg, p, c));
      struct Accepted {
        std::future<SampleResult> future;
        std::size_t identity = 0;
      };
      std::vector<Accepted> in_flight;
      util::Stopwatch clock;
      double next_at = arrivals.exponential(rate_per_client);
      // Client c owns identities c, c+C, c+2C, ... so the fleet cycles
      // the whole identity universe without coordination.
      std::size_t k = c;
      // Safety valve: even a badly misestimated capacity cannot stretch a
      // point past 20x its nominal window.
      const double hard_stop = cfg.duration_seconds * 20.0;
      for (;;) {
        const double now = clock.seconds();
        if (now >= cfg.duration_seconds &&
            (tally.submitted >= min_per_client || now >= hard_stop)) {
          break;
        }
        if (next_at > now) {
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::min(next_at - now, hard_stop - now)));
          continue;
        }
        next_at += arrivals.exponential(rate_per_client);
        const std::size_t identity = k % identities;
        k += cfg.clients;
        ++tally.submitted;
        try {
          in_flight.push_back({target.submit(make_job(identity)), identity});
        } catch (const ServiceError& e) {
          if (e.code() == ServiceError::Code::kShed) {
            ++tally.shed;
          } else {
            ++tally.rejected;
          }
        } catch (const std::exception&) {
          ++tally.failed;  // e.g. a transport error on the socket hop
        }
      }
      for (auto& entry : in_flight) {
        try {
          const SampleResult r = entry.future.get();
          ++tally.accepted;
          tally.latencies_ms.push_back(r.total_seconds * 1e3);
          if (hash_table(r.table) != expected_for(entry.identity)) {
            tally.hashes_ok = false;
          }
        } catch (const ServiceError& e) {
          switch (e.code()) {
            case ServiceError::Code::kShed: ++tally.shed; break;
            case ServiceError::Code::kDeadline:
              ++tally.deadline_missed;
              break;
            default: ++tally.failed; break;
          }
        } catch (const std::exception&) {
          ++tally.failed;
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back(client, c);
    }
    for (auto& t : threads) t.join();
    service.drain();  // the no-deadlock-on-drain-mid-overload check
    point.wall_seconds = point_wall.seconds();
    monitor_stop.store(true, std::memory_order_relaxed);
    monitor.join();
    point.max_queue_depth_seen = max_depth;
    point.shard_max_depths = std::move(shard_max);

    std::vector<double> latencies;
    for (auto& tally : tallies) {
      point.submitted += tally.submitted;
      point.accepted += tally.accepted;
      point.rejected += tally.rejected;
      point.shed += tally.shed;
      point.deadline_missed += tally.deadline_missed;
      point.failed += tally.failed;
      point.hashes_ok = point.hashes_ok && tally.hashes_ok;
      latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                       tally.latencies_ms.end());
    }
    std::sort(latencies.begin(), latencies.end());
    point.p50_ms = LatencyWindow::percentile(latencies, 0.50);
    point.p95_ms = LatencyWindow::percentile(latencies, 0.95);
    point.p99_ms = LatencyWindow::percentile(latencies, 0.99);
    point.accepted_rows_per_sec =
        point.wall_seconds > 0.0
            ? static_cast<double>(point.accepted * cfg.rows_per_job) /
                  point.wall_seconds
            : 0.0;
    result.deterministic = result.deterministic && point.hashes_ok;
    if (cfg.verbose) {
      std::printf("soak: %.2fx offered %.1f jobs/s -> accepted %llu "
                  "rejected %llu shed %llu deadline %llu, p95 %.1f ms, "
                  "max depth %zu\n",
                  point.multiplier, point.offered_jobs_per_sec,
                  static_cast<unsigned long long>(point.accepted),
                  static_cast<unsigned long long>(point.rejected),
                  static_cast<unsigned long long>(point.shed),
                  static_cast<unsigned long long>(point.deadline_missed),
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
                  static_cast<unsigned long long>(point.accepted),
                  static_cast<unsigned long long>(point.rejected),
                  static_cast<unsigned long long>(point.shed), point.p50_ms,
                  point.p95_ms, point.p99_ms, point.max_queue_depth_seen);
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
  w.kv("chunk_rows", cfg.chunk_rows);
  w.kv("seed", cfg.seed);
  w.kv("seed_streams", cfg.seed_streams);
  w.kv("duration_seconds", cfg.duration_seconds);
  w.kv("min_jobs_per_point", cfg.effective_min_jobs());
  w.kv("deadline_ms", cfg.deadline_ms);
  w.kv("admission", admission_policy_name(cfg.admission));
  w.kv("max_queue_depth", cfg.effective_queue_depth());
  w.kv("max_queued_rows", cfg.max_queued_rows);
  w.kv("sample_threads", cfg.sample_threads);
  w.kv("over_socket", cfg.over_socket);
  w.kv("shards", cfg.shards);
  w.kv("replicas", cfg.replicas);
  w.kv("shard_ttl_ms", cfg.shard_ttl_ms);
  w.key("remote_shards").begin_array();
  for (const auto& spec : cfg.remote_shards) w.value(spec);
  w.end_array();
  w.end_object();
  w.kv("transport", cfg.over_socket ? "socket" : "in-process");
  w.kv("shard_transport",
       cfg.remote_shards.empty() ? "in-process" : "multi-process");
  w.kv("capacity_jobs_per_sec", result.capacity_jobs_per_sec);
  w.kv("expected_hash", hash_hex);
  w.key("sweep").begin_array();
  for (const auto& point : result.points) {
    w.begin_object();
    w.kv("multiplier", point.multiplier);
    w.kv("offered_jobs_per_sec", point.offered_jobs_per_sec);
    w.kv("submitted", point.submitted);
    w.kv("accepted", point.accepted);
    w.kv("rejected", point.rejected);
    w.kv("shed", point.shed);
    w.kv("deadline_missed", point.deadline_missed);
    w.kv("failed", point.failed);
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
  const ServiceStats& s = result.final_stats;
  w.key("service").begin_object();
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("failed", s.failed);
  w.kv("rejected", s.rejected);
  w.kv("shed", s.shed);
  w.kv("cancelled", s.cancelled);
  w.kv("deadline_missed", s.deadline_missed);
  w.kv("blocked", s.blocked);
  w.kv("batches", s.batches);
  w.end_object();
  w.key("cache").begin_object();
  w.kv("hits", s.host.hits);
  w.kv("misses", s.host.misses);
  w.kv("loads", s.host.loads);
  w.kv("load_failures", s.host.load_failures);
  w.kv("evictions", s.host.evictions);
  w.kv("hit_rate", s.host.hit_rate());
  w.end_object();
  if (!result.shard_final_stats.empty()) {
    w.key("shards").begin_object();
    w.kv("count", result.shard_final_stats.size());
    w.kv("local", cfg.shards);
    w.kv("remote", cfg.remote_shards.size());
    w.kv("replicas", cfg.replicas);
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
