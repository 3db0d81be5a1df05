#pragma once
// The REST API over serve::SampleService — the JSON face of the serving
// layer. Routes (all JSON in, JSON out):
//
//   GET    /healthz          liveness (no auth, no quota)
//   GET    /v1/models        registered model keys + residency
//   POST   /v1/sample        validated sample request -> async job handle
//   GET    /v1/jobs/{id}     job status; when done, cursor-paginated rows
//   DELETE /v1/jobs/{id}     cancel (queued/in-flight) or purge (done)
//   GET    /v1/stats         ServiceStats + cache + per-route HTTP counters
//
// Request bodies are parsed with the strict util::json_parse under a
// document-size cap, and a job's fields by serve::read_sample_job, the one
// job reader (field table in docs/SERVING.md); unknown fields are
// rejected (a typo'd "chnk_rows" must fail loudly, not sample with the
// default). Errors are structured
// 1:1 from serve::ServiceError codes — {"error":{"code","message"}} with
// "overloaded"/"shed"/"deadline"/"cancelled" exactly as the in-process
// typed errors — plus the HTTP-level codes ("unauthorized",
// "quota_exhausted", "unknown_model", ...). Every request is charged to a
// per-key token bucket; exhaustion answers 429 with Retry-After.
//
// The wire protocol keys every job by (model, rows, seed, chunk_rows) —
// the exact determinism identity of the in-process service — so the bytes
// a remote client reassembles from paginated pages hash identically to a
// local sample_into() of the same identity. Seeds are strings on the wire
// (JSON numbers are doubles; a 64-bit seed must not round).

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "net/auth.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "serve/latency_window.hpp"
#include "serve/sample_service.hpp"
#include "util/timer.hpp"

namespace surro::net {

struct RestConfig {
  /// JSON body document cap, mirrored into util::JsonLimits::max_bytes
  /// (the HTTP layer enforces the same number at the framing level).
  std::size_t max_body_bytes = 1 << 20;
  /// Per-key request rate (token bucket); 0 = unlimited.
  double quota_rps = 0.0;
  /// Bucket capacity; 0 = max(1, quota_rps).
  double quota_burst = 0.0;
  /// Rows per GET /v1/jobs/{id} page when ?limit= is absent.
  std::size_t page_rows = 1000;
  /// Hard ceiling on ?limit= (a page is one JSON document in memory).
  std::size_t max_page_rows = 10000;
  /// Ceiling on rows a single POST /v1/sample may request (0 = unbounded).
  std::size_t max_rows_per_job = 10'000'000;
  /// Resolved (done/failed) jobs retained for pagination before the
  /// oldest are purged. Unresolved jobs are never purged.
  std::size_t completed_cap = 256;
  /// Ceiling on the ?wait_ms long-poll a GET /v1/jobs/{id} may request.
  double max_wait_ms = 30'000.0;
};

class RestApi {
 public:
  /// The backend (and whatever hosts it wraps) must outlive the API.
  /// Takes the abstract SampleBackend, so one SampleService and a sharded
  /// ShardPool serve the same routes (a pool adds a "shards" section to
  /// GET /v1/stats via append_stats_json).
  RestApi(serve::SampleBackend& service, RestConfig cfg = {});

  RestApi(const RestApi&) = delete;
  RestApi& operator=(const RestApi&) = delete;

  /// The key registry + quota buckets (load keys before serving).
  [[nodiscard]] QuotaLedger& quotas() noexcept { return quotas_; }

  /// Socket-stats provider folded into GET /v1/stats (wired by
  /// HttpEndpoint; optional).
  void set_server_stats(std::function<ServerStats()> fn) {
    server_stats_ = std::move(fn);
  }

  /// Route + execute one request. Thread-safe; never throws (internal
  /// failures become structured 500s at the server layer).
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// The GET /v1/stats document (kind "serve_http_stats").
  [[nodiscard]] std::string stats_json();

  /// Unresolved + retained-resolved jobs currently tracked.
  [[nodiscard]] std::size_t tracked_jobs() const;

 private:
  /// One submitted job's lifecycle, from POST to purge. `mutex` serializes
  /// harvesting (first GET after resolution moves the future's result in).
  struct JobEntry {
    std::mutex mutex;
    serve::SampleJob params;
    std::uint64_t id = 0;
    std::future<serve::SampleResult> future;
    /// Atomic so purge_resolved_overflow() can read it under jobs_mutex_
    /// alone (taking entry mutexes there would invert the lock order).
    std::atomic<bool> resolved{false};
    bool failed = false;
    serve::SampleResult result;  // valid when resolved && !failed
    std::string error_code;      // valid when failed
    std::string error_message;
    std::uint64_t harvest_seq = 0;  // purge order among resolved entries
  };

  HttpResponse handle_models();
  HttpResponse handle_submit(const HttpRequest& request);
  HttpResponse handle_job_get(const HttpRequest& request, std::uint64_t id);
  HttpResponse handle_job_delete(std::uint64_t id);
  HttpResponse handle_stats();

  /// Block (bounded) for resolution, then move the outcome into `entry`.
  /// Caller holds entry->mutex.
  void harvest_locked(JobEntry& entry, double wait_ms);
  void purge_resolved_overflow();

  serve::SampleBackend& service_;
  RestConfig cfg_;
  QuotaLedger quotas_;
  std::function<ServerStats()> server_stats_;
  util::Stopwatch clock_;

  mutable std::mutex jobs_mutex_;
  std::map<std::uint64_t, std::shared_ptr<JobEntry>> jobs_;
  std::atomic<std::uint64_t> harvest_seq_{0};

  /// Per-route request/error tallies + latency window, keyed by the route
  /// pattern ("POST /v1/sample", ...). Folded into /v1/stats.
  struct RouteStats {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;  // responses with status >= 400
    serve::LatencyWindow latency{512};
  };
  mutable std::mutex routes_mutex_;
  std::map<std::string, RouteStats> routes_;
};

/// The assembled front end: REST routes behind an HttpServer, one object.
/// start() binds (port 0 = ephemeral — read server.port()); stop() (or
/// destruction) shuts the socket layer down before the service dies.
struct HttpEndpoint {
  /// `service` must outlive the endpoint.
  HttpEndpoint(serve::SampleBackend& service, RestConfig rest_cfg = {},
               ServerConfig server_cfg = {});

  RestApi api;
  HttpServer server;
};

}  // namespace surro::net
