#pragma once
// Overload soak harness for the serving layer: N drive_load clients with
// Poisson arrivals drive a bounded backend at a sweep of offered-load
// multipliers (fractions/multiples of the service's measured capacity),
// recording per-point accepted/rejected/shed/deadline-missed counts and
// accepted-job latency percentiles — and asserting the determinism contract
// the hard way: every *accepted* job's bytes are digested and compared
// against an expected hash computed up front by sampling the same
// (model, rows, seed, chunk_rows) identity directly, so rejections, sheds,
// and deadline kills interleaved around a job can never change what it
// returns. Consumed by `surro_cli soak`, the repo's one overload harness;
// tools/check_artifact.py checks its JSON artifact (kind "serve_soak").

#include <cstdint>
#include <string>
#include <vector>

#include "serve/replay.hpp"
#include "serve/shard_pool.hpp"

namespace surro::serve {

struct SoakConfig {
  /// Model keys to cycle traffic over; every key must already be
  /// registered (and loadable) in the host handed to run_soak.
  std::vector<std::string> models;
  /// Offered load as a multiple of calibrated capacity, one sweep point
  /// each. Percentile ratios are reported against the *lowest* multiplier.
  std::vector<double> load_multipliers{0.5, 1.0, 2.0, 4.0};
  std::size_t clients = 4;        ///< concurrent submitting client threads
  std::size_t rows_per_job = 2000;
  /// Distinct seeds per model; traffic cycles through models × streams, so
  /// the identity universe is models.size() × seed_streams jobs.
  std::size_t seed_streams = 8;
  std::uint64_t seed = 42;        ///< base for job seeds + arrival processes
  double duration_seconds = 2.0;  ///< submission window per sweep point
  double deadline_ms = 0.0;       ///< per-job deadline (0 = none)
  bool verbose = false;

  /// Drive the sweep over a loopback HTTP socket instead of in-process
  /// submits: run_soak stands up a net::HttpEndpoint (ephemeral port) over
  /// the bounded backend, and every client submits through its own
  /// serve::RemoteShard pointed at it — POST /v1/sample for each arrival,
  /// then long-poll + paginate the rows back and digest them. Calibration
  /// and the expected digests stay in-process on purpose: the check is
  /// that the socket path lands on the *same* expected_hash, i.e. the
  /// determinism contract and the overload SLOs survive the wire
  /// (serialization, pagination, reassembly).
  bool over_socket = false;

  /// The bounded backend under test, built by make_backend over the
  /// caller's host: one SampleService, or a ShardPool when backend.shards
  /// > 1 or backend.remotes is set (admission bounds then hold *per
  /// shard*, and remote workers enforce their own). Every job runs at
  /// backend.service.chunk_rows, part of its determinism key. Soak's
  /// defaults: a reject queue of 1024-row chunks, and a max_queue_depth of
  /// 0 means `clients`. Calibration and the expected digests stay on the
  /// caller's unsharded host whatever the topology — the expected_hash is
  /// placement-independent by contract, so a 1-shard, an 8-shard and a
  /// multi-process run of the same config must agree on it.
  ShardPoolConfig backend = [] {
    ShardPoolConfig cfg;
    cfg.service.chunk_rows = 1024;
    cfg.service.admission = AdmissionPolicy::kReject;
    return cfg;
  }();

  /// The queue-depth bound the sweep service actually enforces (resolves
  /// the 0 = clients default). Single source of truth for run_soak, the
  /// JSON artifact, and the CLI banner.
  [[nodiscard]] std::size_t effective_queue_depth() const noexcept {
    return backend.service.max_queue_depth != 0
               ? backend.service.max_queue_depth
               : clients;
  }
  /// Minimum submissions per sweep point (clients × models × 2): at a low
  /// offered rate the submission window extends past duration_seconds —
  /// still Poisson-paced at the same rate — until the floor is met, so
  /// percentiles at every point rest on a real sample, not 2-3 jobs.
  [[nodiscard]] std::size_t effective_min_jobs() const noexcept {
    return clients * models.size() * 2;
  }
};

/// One offered-load sweep point.
struct SoakPoint {
  double multiplier = 0.0;
  double offered_jobs_per_sec = 0.0;  ///< target Poisson arrival rate
  /// The artifact's submitted / accepted (= completed) / rejected / shed /
  /// deadline_missed / failed; failures should be 0.
  LoadCounts counts;
  /// Accepted-job latency percentiles (+inf when nothing was accepted;
  /// degrades to null in JSON).
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;          ///< submission window + drain
  double accepted_rows_per_sec = 0.0;
  /// Highest queue depth observed by the monitor thread — the "bounded
  /// queue depth" check under overload. For a sharded run this is the
  /// highest *single-shard* depth (the admission bound is per shard).
  std::size_t max_queue_depth_seen = 0;
  /// Per-shard depth maxima (empty for unsharded runs); index = shard.
  std::vector<std::size_t> shard_max_depths;
  bool hashes_ok = true;  ///< every accepted job matched its expected digest
};

struct SoakResult {
  /// Jobs/sec the service sustained in the unbounded calibration run; the
  /// sweep's offered rates are multiples of this.
  double capacity_jobs_per_sec = 0.0;
  std::vector<SoakPoint> points;
  /// Order-independent digest over the expected (model × stream) tables.
  /// Stable across runs with the same config — two soak runs disagreeing
  /// here means the *bytes* moved, not the scheduling.
  std::uint64_t expected_hash = 0;
  /// True when every accepted job at every sweep point matched its
  /// expected digest (the determinism contract under overload).
  bool deterministic = true;
  /// p95 at the highest multiplier / p95 at the lowest; NaN when either
  /// side is empty (degrades to null in JSON). The overload-SLO headline.
  double p95_ratio_vs_low_load = 0.0;
  ServiceStats final_stats;  ///< cumulative service stats after the sweep
  /// Per-shard final stats + routing tallies (empty/zero for one service).
  std::vector<ServiceStats> shard_final_stats;
  std::uint64_t routed = 0;    ///< submits the router placed on a shard
  std::uint64_t rerouted = 0;  ///< submits re-placed after a replica refused
  /// Submits re-placed after a replica's transport failed (dead worker).
  std::uint64_t rerouted_transport = 0;
  double wall_seconds = 0.0;
  /// Socket-mode tallies (zero for in-process runs): the HTTP server's
  /// accepted connections and answered requests across the whole sweep.
  std::uint64_t http_connections = 0;
  std::uint64_t http_requests = 0;
};

/// Run calibration + the sweep against models registered in `host`.
/// Throws std::invalid_argument on an empty model/multiplier list.
[[nodiscard]] SoakResult run_soak(ModelHost& host, const SoakConfig& cfg);

/// Human-readable sweep table + SLO/determinism summary for
/// `surro_cli soak`.
[[nodiscard]] std::string render_soak(const SoakResult& result);

/// The `serve_soak` artifact (schema_version 1, kind "serve_soak").
[[nodiscard]] std::string soak_to_json(const SoakConfig& cfg,
                                       const SoakResult& result);

}  // namespace surro::serve
