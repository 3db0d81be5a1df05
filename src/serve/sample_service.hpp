#pragma once
// SampleService: the asynchronous consumption API of the serving layer.
// Callers submit SampleJobs (model key, rows, seed, priority) and get
// futures back. Each admitted job runs as one util::ThreadPool task, in
// strict priority order, with at most one job in flight per pool worker.
// The task acquires the job's model from the ModelHost and runs
// TabularGenerator::sample_into with the job's own chunk grain, thread cap
// and progress hook; sampling is const, so concurrent jobs of one key share
// the same instance. Dispatch happens inline under the service lock —
// when a job is submitted, a job finishes, the service resumes or it shuts
// down — so the service owns no thread. While a worker is free, a fast job
// does not wait behind a slow job that is a single chunk or capped at one
// thread; a multi-chunk slow job queues its chunk tasks in the pool's
// first-in-first-out queue, and a later job starts only when a worker
// reaches it. ServiceStats reports qps, p50/p95 latency, rows/sec, queue
// depth, and the host's cache hit rate.
//
// Rule: no global-pool task may block on a SampleService future — jobs run
// on that pool, so a pool full of such waiters would starve them.
//
// Determinism contract (inherited from TabularGenerator::sample_into, which
// every job runs): a job's output bytes depend only on
// (model, rows, seed, chunk_rows), so client concurrency, worker count,
// priority order, and cache eviction/reload cycles never change what a
// given job returns.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/latency_window.hpp"
#include "serve/model_host.hpp"
#include "tabular/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace surro::util {
class JsonWriter;
struct JsonValue;
}

namespace surro::serve {

/// Typed failure surfaced by the overload-control layer: thrown
/// synchronously from submit() on admission rejection, or set on a job's
/// future when the job was shed, missed its deadline, or was cancelled.
/// Execution errors (unknown key, archive load failure) keep their original
/// exception types — ServiceError is strictly "the service chose not to
/// finish this job", never "the job broke".
class ServiceError : public std::runtime_error {
 public:
  enum class Code {
    kOverloaded,  ///< admission rejected the submit (reject policy)
    kShed,        ///< queued job dropped to admit higher-priority work
    kDeadline,    ///< deadline passed while queued or at a chunk boundary
    kCancelled,   ///< cancelled via SampleService::cancel()
  };
  ServiceError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

/// What submit() does when the admission queue is at its configured bound.
enum class AdmissionPolicy {
  /// Block the submitting thread until space frees (backpressure). The
  /// default: no job is ever dropped, clients are simply slowed to the
  /// service's pace.
  kBlock,
  /// Fail fast: submit() throws ServiceError{kOverloaded} and the job
  /// never enters the queue.
  kReject,
  /// Admit the new job by dropping the lowest-priority queued job (ties
  /// drop the newest). When the *incoming* job is the weakest, or nothing
  /// is queued (in-flight jobs are never shed), it is the one refused —
  /// submit() throws ServiceError{kShed}, counted under `rejected` (it was
  /// never admitted). Shed *queued* jobs fail their
  /// futures with ServiceError{kShed} and count under `shed`.
  kShed,
};

[[nodiscard]] const char* admission_policy_name(
    AdmissionPolicy policy) noexcept;
/// Parse "block" | "reject" | "shed"; throws std::invalid_argument.
[[nodiscard]] AdmissionPolicy parse_admission_policy(const std::string& name);

struct ServiceConfig {
  /// Worker fan-out per job (0 = every pool worker). Scheduling only:
  /// output bytes are identical for any value.
  std::size_t sample_threads = 0;
  /// Default chunk grain for jobs that leave SampleJob::chunk_rows at 0.
  /// Part of the determinism key — changing it changes the chunk partition.
  std::size_t chunk_rows = 4096;
  /// Completed-job latencies retained for the percentile window.
  std::size_t latency_window = 4096;
  /// Admission control; 0 = unbounded, which preserves the
  /// pre-overload-control behavior. max_queue_depth bounds the backlog:
  /// queued jobs plus in-flight jobs beyond the first, since concurrent
  /// jobs share the pool with every job in flight. With one job in
  /// flight that is just the queue; a full service holds at most
  /// max_queue_depth + 1 unfinished jobs on any pool size. max_queued_rows
  /// bounds the rows of queued jobs only. An idle service always admits,
  /// and an empty queue always passes the row bound — even a job larger
  /// than max_queued_rows — so no job is unserveable by configuration.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  std::size_t max_queue_depth = 0;  ///< max backlog jobs (0 = unbounded)
  std::size_t max_queued_rows = 0;  ///< max queued rows (0 = unbounded)
};

/// One sampling request. Higher `priority` dispatches first; ties dispatch
/// in submission order.
struct SampleJob {
  std::string model_key;
  std::size_t rows = 0;
  std::uint64_t seed = 1234;
  /// 0 = ServiceConfig::chunk_rows. Determines the chunk partition (and
  /// therefore the output bytes), exactly like SampleRequest::chunk_rows.
  std::size_t chunk_rows = 0;
  /// 0 = ServiceConfig::sample_threads. Scheduling only, like
  /// SampleRequest::threads.
  std::size_t threads = 0;
  int priority = 0;
  /// Soft deadline in milliseconds from submission (0 = none). Checked
  /// when the job is dispatched, when its task starts, and at every chunk
  /// boundary: a job whose deadline passes while queued or mid-sampling
  /// fails its future with ServiceError{kDeadline} and its partial chunks
  /// are discarded. A job whose final chunk finishes before the check is
  /// delivered — the deadline bounds *work spent past the limit*, not
  /// delivery time.
  double deadline_ms = 0.0;
  /// Called after each completed chunk with (rows_done, rows_total) for
  /// this job. Invoked under a lock from a worker thread — keep it cheap.
  std::function<void(std::size_t, std::size_t)> on_progress;
};

/// What a fulfilled future carries back.
struct SampleResult {
  tabular::Table table;
  std::string model_key;
  double queue_seconds = 0.0;   ///< submit → job task start
  double sample_seconds = 0.0;  ///< job task start → job sampled
  double total_seconds = 0.0;   ///< submit → job sampled
  std::uint64_t dispatch_index = 0;  ///< dispatch sequence number (from 1)
  bool cache_hit = false;       ///< model was resident when the task began
};

/// Rolled-up service health, cheap enough to poll every request.
/// Every admitted job resolves to exactly one of completed / failed /
/// shed / cancelled / deadline_missed; `rejected` counts submits the
/// admission gate refused outright (those never increment `submitted`).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< futures fulfilled with a table
  std::uint64_t failed = 0;      ///< futures failed with an execution error
  std::size_t queue_depth = 0;   ///< submitted jobs not yet finished
  std::size_t queued_rows = 0;   ///< rows in not-yet-dispatched jobs
  std::uint64_t batches = 0;     ///< jobs dispatched, one pool task each
  double uptime_seconds = 0.0;
  double qps = 0.0;              ///< completed / uptime
  double rows_per_sec = 0.0;     ///< rows emitted / uptime
  // Overload-control outcomes.
  std::uint64_t rejected = 0;  ///< submits refused at admission (reject
                               ///< policy, or an incoming job the shed
                               ///< policy declined to admit)
  std::uint64_t shed = 0;      ///< admitted jobs dropped by the shed policy
  std::uint64_t cancelled = 0;        ///< jobs cancelled via cancel()
  std::uint64_t deadline_missed = 0;  ///< jobs that blew their deadline
  std::uint64_t blocked = 0;          ///< submits that had to wait for space
  /// Percentiles over the latency window; +infinity when no job completed
  /// yet (degrades to null in the JSON artifact).
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  HostStats host;                ///< cache hit rate & friends
  util::PoolCounters pool;       ///< thread-pool load underneath the service
};

/// The one JSON form of ServiceStats, shared by /v1/stats and the
/// serve_stats / serve_soak artifacts: writes the "service" member (the
/// job counters, rates and latency percentiles) and the "cache" member (the
/// host counters and hit_rate) into the open object `w`. uptime_seconds and
/// the pool counters are not part of it. A +inf percentile (empty window)
/// degrades to null.
void write_service_stats(util::JsonWriter& w, const ServiceStats& s);
/// Inverse of write_service_stats over the object that holds those members
/// (a /v1/stats document): a missing key reads as 0, a null percentile as
/// +infinity.
[[nodiscard]] ServiceStats read_service_stats(const util::JsonValue& doc);

/// The one JSON form of a SampleJob, shared by POST /v1/sample bodies,
/// replay-script lines and ApiClient (docs/SERVING.md has the field
/// table): writes "model", "rows" and "seed" (a decimal string, since a
/// 64-bit seed does not survive a JSON double), then each of "chunk_rows",
/// "threads", "priority" and "deadline_ms" that is not at its default,
/// into the open object `w`.
void write_sample_job(util::JsonWriter& w, const SampleJob& job);
/// Inverse of write_sample_job over a JSON object: "model" and "rows" are
/// required; every field must have its kind and lie in its range (counts
/// whole in [0, 2^40], seed whole in [0, 2^53] or a decimal string,
/// priority whole in [-10^6, 10^6], deadline_ms in [0, 10^12]). Throws
/// std::runtime_error naming the field. Members that are not job fields
/// are left to the caller (see is_sample_job_field).
[[nodiscard]] SampleJob read_sample_job(const util::JsonValue& doc);
/// True when `key` is one of the fields read_sample_job reads.
[[nodiscard]] bool is_sample_job_field(std::string_view key) noexcept;

/// A submitted job's handle: the future plus the id cancel() takes.
struct Submitted {
  std::uint64_t job_id = 0;
  std::future<SampleResult> future;
};

/// The abstract submission surface of the serving tier. SampleService is
/// the single-worker implementation; ShardPool routes over many of them.
/// Everything above this layer — the REST API, the replay/soak harnesses,
/// the CLI — programs against SampleBackend, so a sharded tier drops in
/// wherever a single service used to sit. The determinism contract is part
/// of the interface: a job's bytes depend only on
/// (model, rows, seed, chunk_rows), never on which backend ran it.
class SampleBackend {
 public:
  virtual ~SampleBackend() = default;

  /// Enqueue a job through the admission gate. Execution errors (unknown
  /// model key, archive load failure) surface on the future; submitting
  /// after shutdown throws std::logic_error immediately. When the queue is
  /// at its configured bound, the admission policy decides: block (wait
  /// for space), reject (throw ServiceError{kOverloaded}), or shed (drop
  /// the lowest-priority queued job; ServiceError{kShed} if that is this
  /// one). A rows == 0 job is valid and resolves to an empty table
  /// (mirroring sample_into, which leaves its output untouched).
  [[nodiscard]] virtual Submitted submit_job(SampleJob job) = 0;

  /// Cooperatively cancel a job by id. A still-queued job is removed
  /// immediately; an in-flight job stops at its next chunk boundary and
  /// its partial chunks are discarded. Either way its future fails with
  /// ServiceError{kCancelled}. Returns false when the id is unknown or the
  /// job already resolved (cancellation raced completion — the future then
  /// holds whatever outcome won).
  virtual bool cancel(std::uint64_t job_id) = 0;

  /// Block until every submitted job has been fulfilled.
  virtual void drain() = 0;

  [[nodiscard]] virtual ServiceStats stats() const = 0;
  /// Cheap depth poll — no percentile sort (see SampleService::queue_depth).
  [[nodiscard]] virtual std::size_t queue_depth() const = 0;
  /// The effective service configuration (per-shard config for a pool).
  [[nodiscard]] virtual const ServiceConfig& config() const noexcept = 0;

  /// Model registry surface (what /v1/models renders).
  [[nodiscard]] virtual std::vector<std::string> model_keys() const = 0;
  [[nodiscard]] virtual bool has_model(const std::string& key) const = 0;
  /// True when at least one replica of `key` is resident in memory.
  [[nodiscard]] virtual bool model_resident(const std::string& key) const = 0;

  /// Append backend-specific keys to a stats JSON object (the REST layer
  /// calls this inside its /v1/stats object). Default: nothing.
  virtual void append_stats_json(util::JsonWriter& w) const;

  /// submit_job without the cancellation handle.
  [[nodiscard]] std::future<SampleResult> submit(SampleJob job) {
    return submit_job(std::move(job)).future;
  }

  /// Blocking convenience: submit + wait, returning just the table.
  [[nodiscard]] tabular::Table sample(SampleJob job) {
    return submit(std::move(job)).get().table;
  }
};

class SampleService : public SampleBackend {
 public:
  /// The host must outlive the service.
  explicit SampleService(ModelHost& host, ServiceConfig cfg = {});
  /// Runs already-queued jobs to completion, then returns.
  ~SampleService() override;

  SampleService(const SampleService&) = delete;
  SampleService& operator=(const SampleService&) = delete;

  [[nodiscard]] Submitted submit_job(SampleJob job) override;
  bool cancel(std::uint64_t job_id) override;
  void drain() override;

  /// Hold/resume dispatching. While paused, submit() still queues; used to
  /// stage a burst so dispatch order is deterministic (tests, replay
  /// warm-up).
  void pause();
  void resume();

  [[nodiscard]] ServiceStats stats() const override;
  /// Just queue_.size() + in-flight jobs — for hot pollers (the soak
  /// queue-depth monitor) that must not pay stats()'s percentile sort.
  [[nodiscard]] std::size_t queue_depth() const override;
  [[nodiscard]] ModelHost& host() noexcept { return host_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept override {
    return cfg_;
  }
  [[nodiscard]] std::vector<std::string> model_keys() const override {
    return host_.keys();
  }
  [[nodiscard]] bool has_model(const std::string& key) const override {
    return host_.contains(key);
  }
  [[nodiscard]] bool model_resident(const std::string& key) const override {
    return host_.resident(key);
  }
  /// Unsorted copy of the completed-latency window, so an aggregator (the
  /// shard pool) can merge windows before computing percentiles.
  [[nodiscard]] std::vector<double> latency_snapshot() const;

 private:
  struct Pending {
    SampleJob job;
    std::promise<SampleResult> promise;
    std::uint64_t seq = 0;      // doubles as the public job id
    double submitted_at = 0.0;  // seconds on the service clock
    double deadline_at = 0.0;   // service-clock seconds; +inf = none
    /// Set by cancel(); the job's stop predicate polls it.
    std::shared_ptr<std::atomic<bool>> cancel_flag;
  };

  /// Hand queued jobs to the pool, best first (priority descending, then
  /// submission order), while dispatch is not paused (a stopping service
  /// overrides the pause) and fewer than pool.size() jobs are in flight.
  /// Queued jobs whose deadline passed move to `expired`, already counted;
  /// the caller fails them after unlocking (caller holds the lock).
  void dispatch_locked(std::vector<Pending>& expired);
  /// One job's pool task: sample it and resolve its future. Every failure
  /// lands on the future, never on the pool.
  void run_job(Pending pending, std::uint64_t dispatch_index) noexcept;
  /// True when the backlog is at a configured bound for a job of `rows`
  /// more rows (caller holds the lock; an idle service always admits).
  [[nodiscard]] bool over_bounds_locked(std::size_t rows) const;

  ModelHost& host_;
  ServiceConfig cfg_;
  util::Stopwatch clock_;

  mutable std::mutex mutex_;
  std::condition_variable cv_idle_;   // drain(), ~SampleService: a job
                                      // finished or left the queue
  std::condition_variable cv_space_;  // blocked submit(): backlog shrank
  std::deque<Pending> queue_;
  std::size_t queued_rows_ = 0;  // rows in queue_ (admission accounting)
  std::size_t in_flight_ = 0;  // jobs handed to the pool, not yet resolved
  std::size_t submit_waiters_ = 0;  // submits parked on backpressure
  bool paused_ = false;
  bool stop_ = false;
  /// Cancel flags of every unresolved job (queued or in flight), by id;
  /// entries are erased when the job resolves.
  std::map<std::uint64_t, std::shared_ptr<std::atomic<bool>>> live_;

  // Tallies (guarded by mutex_).
  std::uint64_t seq_ = 1;  // job ids start at 1 so 0 can be a sentinel
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t deadline_missed_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t batches_ = 0;  // jobs dispatched (ServiceStats::batches)
  std::uint64_t rows_emitted_ = 0;
  LatencyWindow latency_;
};

}  // namespace surro::serve
