#include "serve/sample_service.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace surro::serve {

const char* admission_policy_name(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kReject: return "reject";
    default: return "shed";
  }
}

AdmissionPolicy parse_admission_policy(const std::string& name) {
  if (name == "block") return AdmissionPolicy::kBlock;
  if (name == "reject") return AdmissionPolicy::kReject;
  if (name == "shed") return AdmissionPolicy::kShed;
  throw std::invalid_argument("unknown admission policy '" + name +
                              "' (have: block, reject, shed)");
}

void write_service_stats(util::JsonWriter& w, const ServiceStats& s) {
  w.key("service").begin_object();
  w.kv("submitted", s.submitted);
  w.kv("completed", s.completed);
  w.kv("failed", s.failed);
  w.kv("queue_depth", s.queue_depth);
  w.kv("queued_rows", s.queued_rows);
  w.kv("batches", s.batches);
  w.kv("qps", s.qps);
  w.kv("rows_per_sec", s.rows_per_sec);
  w.kv("rejected", s.rejected);
  w.kv("shed", s.shed);
  w.kv("cancelled", s.cancelled);
  w.kv("deadline_missed", s.deadline_missed);
  w.kv("blocked", s.blocked);
  w.kv("p50_latency_ms", s.p50_latency_ms);
  w.kv("p95_latency_ms", s.p95_latency_ms);
  w.kv("p99_latency_ms", s.p99_latency_ms);
  w.end_object();
  w.key("cache").begin_object();
  w.kv("registered", s.host.registered);
  w.kv("resident", s.host.resident);
  w.kv("pinned", s.host.pinned);
  w.kv("capacity", s.host.capacity);
  w.kv("hits", s.host.hits);
  w.kv("misses", s.host.misses);
  w.kv("loads", s.host.loads);
  w.kv("load_failures", s.host.load_failures);
  w.kv("evictions", s.host.evictions);
  w.kv("stale_reloads", s.host.stale_reloads);
  w.kv("invalidations", s.host.invalidations);
  w.kv("hit_rate", s.host.hit_rate());
  w.end_object();
}

ServiceStats read_service_stats(const util::JsonValue& doc) {
  const util::JsonValue none;  // a missing section reads as all zeros
  const util::JsonValue& svc = doc.has("service") ? doc.at("service") : none;
  const util::JsonValue& cache = doc.has("cache") ? doc.at("cache") : none;
  // Range-checked: a negative or huge double makes the cast undefined.
  const auto count = [](const util::JsonValue& section, const char* key) {
    const double v = section.number_or(key, 0.0);
    return v >= 0.0 && v < 0x1p64 ? static_cast<std::uint64_t>(v) : 0;
  };
  const auto percentile = [&svc](const char* key) {
    return svc.has(key) && svc.at(key).is_null()
               ? std::numeric_limits<double>::infinity()
               : svc.number_or(key, 0.0);
  };
  ServiceStats s;
  s.submitted = count(svc, "submitted");
  s.completed = count(svc, "completed");
  s.failed = count(svc, "failed");
  s.queue_depth = count(svc, "queue_depth");
  s.queued_rows = count(svc, "queued_rows");
  s.batches = count(svc, "batches");
  s.qps = svc.number_or("qps", 0.0);
  s.rows_per_sec = svc.number_or("rows_per_sec", 0.0);
  s.rejected = count(svc, "rejected");
  s.shed = count(svc, "shed");
  s.cancelled = count(svc, "cancelled");
  s.deadline_missed = count(svc, "deadline_missed");
  s.blocked = count(svc, "blocked");
  s.p50_latency_ms = percentile("p50_latency_ms");
  s.p95_latency_ms = percentile("p95_latency_ms");
  s.p99_latency_ms = percentile("p99_latency_ms");
  s.host.registered = count(cache, "registered");
  s.host.resident = count(cache, "resident");
  s.host.pinned = count(cache, "pinned");
  s.host.capacity = count(cache, "capacity");
  s.host.hits = count(cache, "hits");
  s.host.misses = count(cache, "misses");
  s.host.loads = count(cache, "loads");
  s.host.load_failures = count(cache, "load_failures");
  s.host.evictions = count(cache, "evictions");
  s.host.stale_reloads = count(cache, "stale_reloads");
  s.host.invalidations = count(cache, "invalidations");
  return s;
}

namespace {

// One range per job field (the field table in docs/SERVING.md).
constexpr std::int64_t kMaxCount = std::int64_t{1} << 40;
constexpr std::int64_t kMaxNumericSeed = std::int64_t{1} << 53;
constexpr std::int64_t kMaxPriority = 1'000'000;
constexpr double kMaxDeadlineMs = 1e12;
constexpr std::string_view kJobFields[] = {
    "model", "rows", "seed", "chunk_rows", "threads", "priority",
    "deadline_ms"};

}  // namespace

void write_sample_job(util::JsonWriter& w, const SampleJob& job) {
  w.kv("model", job.model_key);
  w.kv("rows", static_cast<std::uint64_t>(job.rows));
  w.kv("seed", std::to_string(job.seed));
  if (job.chunk_rows != 0) {
    w.kv("chunk_rows", static_cast<std::uint64_t>(job.chunk_rows));
  }
  if (job.threads != 0) {
    w.kv("threads", static_cast<std::uint64_t>(job.threads));
  }
  if (job.priority != 0) w.kv("priority", job.priority);
  if (job.deadline_ms > 0.0) w.kv("deadline_ms", job.deadline_ms);
}

SampleJob read_sample_job(const util::JsonValue& doc) {
  if (doc.kind != util::JsonValue::Kind::kObject) {
    throw std::runtime_error("a job must be a JSON object");
  }
  SampleJob job;
  // Runs `read` on the member `key` when present, naming it in any error.
  const auto field = [&doc](const char* key, bool required,
                            const auto& read) {
    if (!doc.has(key)) {
      if (!required) return;
      throw std::runtime_error(std::string("'") + key + "' is required");
    }
    try {
      read(doc.at(key));
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("'") + key + "': " + e.what());
    }
  };
  using Value = util::JsonValue;
  const auto count = [](const Value& v) {
    return static_cast<std::size_t>(v.as_integer(0, kMaxCount));
  };
  field("model", true, [&](const Value& v) { job.model_key = v.as_string(); });
  field("rows", true, [&](const Value& v) { job.rows = count(v); });
  field("seed", false, [&](const Value& v) {
    if (v.kind != Value::Kind::kString) {
      job.seed = static_cast<std::uint64_t>(v.as_integer(0, kMaxNumericSeed));
      return;
    }
    const std::string& s = v.string;
    const auto res = std::from_chars(s.data(), s.data() + s.size(), job.seed);
    if (res.ec != std::errc{} || res.ptr != s.data() + s.size()) {
      throw std::runtime_error("'" + s + "' is not a decimal 64-bit seed");
    }
  });
  field("chunk_rows", false,
        [&](const Value& v) { job.chunk_rows = count(v); });
  field("threads", false, [&](const Value& v) { job.threads = count(v); });
  field("priority", false, [&](const Value& v) {
    job.priority = static_cast<int>(v.as_integer(-kMaxPriority, kMaxPriority));
  });
  field("deadline_ms", false, [&](const Value& v) {
    job.deadline_ms = v.as_number();
    if (!(job.deadline_ms >= 0.0 && job.deadline_ms <= kMaxDeadlineMs)) {
      throw std::runtime_error("expected a number in [0, 1e12]");
    }
  });
  return job;
}

bool is_sample_job_field(std::string_view key) noexcept {
  return std::find(std::begin(kJobFields), std::end(kJobFields), key) !=
         std::end(kJobFields);
}

namespace {

std::exception_ptr service_error(ServiceError::Code code,
                                 const std::string& what) {
  return std::make_exception_ptr(ServiceError(code, what));
}

}  // namespace

void SampleBackend::append_stats_json(util::JsonWriter&) const {}

/// Fail jobs that left the queue without running: shed victims (kShed) or
/// jobs whose deadline passed while queued (kDeadline). Their outcomes are
/// already counted; called without the service lock — the jobs are locals
/// by then.
template <typename Jobs>
static void fail_unrun(Jobs& jobs, ServiceError::Code code) {
  for (auto& pending : jobs) {
    pending.promise.set_exception(service_error(
        code, code == ServiceError::Code::kShed
                  ? "sample service: shed while queued (priority " +
                        std::to_string(pending.job.priority) +
                        " displaced by higher-priority work)"
                  : "sample service: deadline passed while queued"));
  }
}

SampleService::SampleService(ModelHost& host, ServiceConfig cfg)
    : host_(host), cfg_(cfg), latency_(cfg.latency_window) {
  if (cfg_.chunk_rows == 0) {
    throw std::invalid_argument("sample service: chunk_rows must be positive");
  }
  // latency_window == 0 is clamped to 1 by LatencyWindow itself.
}

SampleService::~SampleService() {
  std::vector<Pending> expired;
  std::unique_lock lock(mutex_);
  stop_ = true;  // overrides the pause: whatever is queued still runs
  dispatch_locked(expired);
  cv_space_.notify_all();  // blocked submitters fail out, not hang
  lock.unlock();
  fail_unrun(expired, ServiceError::Code::kDeadline);
  // A submitter parked on backpressure woke above, but destroying the
  // members while it is still between the wake-up and its throw would be
  // a use-after-free on mutex_/cv_space_. Likewise a job's task still in
  // its last locked section. Wait until every such waiter has left
  // submit_job and every job has resolved: each finishing task dispatches
  // the next queued jobs, then decrements in_flight_ and notifies, all
  // under the lock, and touches no member afterwards.
  lock.lock();
  cv_idle_.wait(lock, [this] {
    return submit_waiters_ == 0 && queue_.empty() && in_flight_ == 0;
  });
}

bool SampleService::over_bounds_locked(std::size_t rows) const {
  // Jobs run concurrently, so a new job shares the pool with every job in
  // flight, not only the queued ones: the depth bound counts in-flight
  // jobs beyond the first. With at most one job in flight that is exactly
  // the queue; under overload it caps the service at max_queue_depth + 1
  // unfinished jobs on any pool size. An idle service always admits.
  const std::size_t backlog =
      queue_.size() + (in_flight_ == 0 ? 0 : in_flight_ - 1);
  if (cfg_.max_queue_depth != 0 && backlog >= cfg_.max_queue_depth) {
    return true;
  }
  // An empty queue always passes the row bound — even a single job bigger
  // than max_queued_rows — so no job is unserveable by configuration.
  return !queue_.empty() && cfg_.max_queued_rows != 0 &&
         queued_rows_ + rows > cfg_.max_queued_rows;
}

Submitted SampleService::submit_job(SampleJob job) {
  Pending pending;
  pending.job = std::move(job);
  pending.cancel_flag = std::make_shared<std::atomic<bool>>(false);
  Submitted out;
  out.future = pending.promise.get_future();
  std::vector<Pending> victims;  // shed-policy evictions, failed post-unlock
  std::vector<Pending> expired;  // queued past their deadline, likewise
  {
    std::unique_lock lock(mutex_);
    if (stop_) {
      throw std::logic_error("sample service: submit after shutdown");
    }
    if (over_bounds_locked(pending.job.rows)) {
      switch (cfg_.admission) {
        case AdmissionPolicy::kBlock: {
          ++blocked_;
          ++submit_waiters_;
          // The id is assigned and the cancel flag published in live_
          // *before* parking, so cancel() can reach a submitter that is
          // still waiting for queue space.
          pending.seq = seq_++;
          out.job_id = pending.seq;
          live_.emplace(pending.seq, pending.cancel_flag);
          cv_space_.wait(lock, [&] {
            return stop_ ||
                   pending.cancel_flag->load(std::memory_order_relaxed) ||
                   !over_bounds_locked(pending.job.rows);
          });
          --submit_waiters_;
          if (stop_) {
            // The destructor may be waiting for this thread to leave.
            live_.erase(pending.seq);
            cv_idle_.notify_all();
            throw std::logic_error("sample service: submit after shutdown");
          }
          if (pending.cancel_flag->load(std::memory_order_relaxed)) {
            // Cancelled while blocked at admission: the job resolves with
            // kCancelled on its future — it never hangs and is never
            // misfiled as an overload outcome. It was admitted as far as
            // the caller can tell (it has an id), so it counts as
            // submitted + cancelled, keeping the outcome partition intact.
            live_.erase(pending.seq);
            ++submitted_;
            ++cancelled_;
            cv_idle_.notify_all();  // under the lock, like every exit
            lock.unlock();
            pending.promise.set_exception(service_error(
                ServiceError::Code::kCancelled,
                "sample service: job cancelled while blocked at admission"));
            return out;
          }
          break;
        }
        case AdmissionPolicy::kReject: {
          ++rejected_;
          throw ServiceError(
              ServiceError::Code::kOverloaded,
              "sample service: admission queue full (" +
                  std::to_string(queue_.size()) + " jobs, " +
                  std::to_string(queued_rows_) + " rows queued, " +
                  std::to_string(in_flight_) + " jobs in flight)");
        }
        case AdmissionPolicy::kShed: {
          while (over_bounds_locked(pending.job.rows)) {
            // Weakest queued job: lowest priority, ties drop the newest.
            // In-flight jobs are never shed, so with nothing queued the
            // incoming job is the weakest.
            auto weakest = queue_.begin();
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
              if (it->job.priority < weakest->job.priority ||
                  (it->job.priority == weakest->job.priority &&
                   it->seq > weakest->seq)) {
                weakest = it;
              }
            }
            if (weakest == queue_.end() ||
                weakest->job.priority >= pending.job.priority) {
              // The incoming job is the weakest (ties shed the newcomer):
              // an admission refusal, counted like a rejection — `shed_`
              // stays the count of *admitted* jobs dropped, preserving
              // the ServiceStats outcome partition. Victims already
              // pulled from the queue in earlier iterations must still
              // get their promised kShed outcome — unwinding past them
              // would break their promises.
              ++rejected_;
              lock.unlock();
              fail_unrun(victims, ServiceError::Code::kShed);
              throw ServiceError(
                  ServiceError::Code::kShed,
                  "sample service: shed at admission (queue full of >= "
                  "priority work)");
            }
            queued_rows_ -= weakest->job.rows;
            live_.erase(weakest->seq);
            ++shed_;
            victims.push_back(std::move(*weakest));
            queue_.erase(weakest);
          }
          break;
        }
      }
    }
    if (pending.seq == 0) {  // not pre-assigned by the kBlock branch
      pending.seq = seq_++;
      out.job_id = pending.seq;
      live_.emplace(pending.seq, pending.cancel_flag);
    }
    pending.submitted_at = clock_.seconds();
    pending.deadline_at = pending.job.deadline_ms > 0.0
                              ? pending.submitted_at +
                                    pending.job.deadline_ms * 1e-3
                              : INFINITY;
    ++submitted_;
    queued_rows_ += pending.job.rows;
    queue_.push_back(std::move(pending));
    // Dispatch notifies under the lock: after releasing it this thread
    // touches no service member, so a destructor that has drained the
    // blocked waiters cannot race a submitter's tail (victims and expired
    // jobs are locals).
    dispatch_locked(expired);
  }
  fail_unrun(victims, ServiceError::Code::kShed);
  fail_unrun(expired, ServiceError::Code::kDeadline);
  return out;
}

bool SampleService::cancel(std::uint64_t job_id) {
  Pending removed;
  bool was_queued = false;
  {
    const std::lock_guard lock(mutex_);
    const auto it = live_.find(job_id);
    if (it == live_.end()) return false;  // unknown or already resolved
    // An in-flight job's stop predicate sees the flag before its next
    // chunk; a still-queued job is pulled out right here so it never
    // dispatches.
    it->second->store(true, std::memory_order_relaxed);
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (qit->seq == job_id) {
        removed = std::move(*qit);
        queue_.erase(qit);
        was_queued = true;
        queued_rows_ -= removed.job.rows;
        live_.erase(job_id);
        ++cancelled_;
        break;
      }
    }
  }
  if (was_queued) {
    cv_space_.notify_all();
    cv_idle_.notify_all();
    removed.promise.set_exception(service_error(
        ServiceError::Code::kCancelled,
        "sample service: job cancelled while queued"));
  } else {
    // Not in the queue: in flight (its stop predicate polls the flag), or
    // a submitter parked on backpressure — wake those so they re-check it.
    cv_space_.notify_all();
  }
  return true;
}

void SampleService::drain() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void SampleService::pause() {
  const std::lock_guard lock(mutex_);
  paused_ = true;
}

void SampleService::resume() {
  std::vector<Pending> expired;
  {
    const std::lock_guard lock(mutex_);
    paused_ = false;
    dispatch_locked(expired);
  }
  fail_unrun(expired, ServiceError::Code::kDeadline);
}

void SampleService::dispatch_locked(std::vector<Pending>& expired) {
  auto& pool = util::ThreadPool::global();
  const std::size_t queued_before = queue_.size();
  // One job in flight per pool worker: enough to keep every worker busy.
  // A dispatched job starts when a worker reaches it in the pool's
  // first-in-first-out queue, so tasks that running jobs queued before it
  // run first: the chunks of a multi-chunk job fanned out over the whole
  // pool, or the row blocks of a GEMM inside a chunk.
  while (!queue_.empty() && (!paused_ || stop_) &&
         in_flight_ < pool.size()) {
    // Expire queued jobs whose deadline already passed before they take a
    // worker. (Later expiry is the job's own stop predicate.)
    const double now = clock_.seconds();
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (now > it->deadline_at) {
        queued_rows_ -= it->job.rows;
        live_.erase(it->seq);
        ++deadline_missed_;
        expired.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (queue_.empty()) break;
    // Strict priority order: priority descending, then submission order.
    const auto best = std::min_element(
        queue_.begin(), queue_.end(), [](const Pending& a, const Pending& b) {
          return a.job.priority != b.job.priority
                     ? a.job.priority > b.job.priority
                     : a.seq < b.seq;
        });
    // std::function needs a copyable callable; the promise is not.
    auto owned = std::make_shared<Pending>(std::move(*best));
    queue_.erase(best);
    queued_rows_ -= owned->job.rows;
    ++in_flight_;
    pool.submit([this, owned, dispatch_index = ++batches_] {
      run_job(std::move(*owned), dispatch_index);
    });
  }
  if (queue_.size() != queued_before) {
    // Jobs left the queue: blocked submitters recheck their bound, and
    // drain() wakes in case expiry emptied the service.
    cv_space_.notify_all();
    cv_idle_.notify_all();
  }
}

void SampleService::run_job(Pending pending,
                            std::uint64_t dispatch_index) noexcept {
  enum class Outcome { kOk, kFailed, kCancelled, kDeadline };
  const double started_at = clock_.seconds();
  // The job's stop predicate, polled by sample_into before every chunk.
  // The first cause it sees decides the job's outcome.
  std::atomic<Outcome> stopped{Outcome::kOk};
  const auto stop = [&] {
    const Outcome cause =
        pending.cancel_flag->load(std::memory_order_relaxed)
            ? Outcome::kCancelled
        : clock_.seconds() > pending.deadline_at ? Outcome::kDeadline
                                                 : Outcome::kOk;
    if (cause == Outcome::kOk) return false;
    Outcome expected = Outcome::kOk;
    stopped.compare_exchange_strong(expected, cause,
                                    std::memory_order_relaxed);
    return true;
  };

  SampleResult result;
  std::exception_ptr error;
  try {
    // A job cancelled or expired between dispatch and start never loads
    // its model.
    if (!stop()) {
      const SampleJob& job = pending.job;
      result.cache_hit = host_.resident(job.model_key);
      const auto model = host_.acquire(job.model_key);
      models::SampleRequest request;
      request.rows = job.rows;
      request.seed = job.seed;
      request.chunk_rows = job.chunk_rows != 0 ? job.chunk_rows
                                               : cfg_.chunk_rows;
      request.threads = job.threads != 0 ? job.threads : cfg_.sample_threads;
      request.on_progress = job.on_progress;
      request.stop = stop;
      model->sample_into(result.table, request);
    }
  } catch (const models::SampleStopped&) {
    // stopped holds the cause.
  } catch (...) {
    error = std::current_exception();
  }
  // A job the predicate stopped keeps its cancel/deadline outcome even when
  // a chunk also failed; it is never misfiled as an execution error.
  Outcome outcome = stopped.load(std::memory_order_relaxed);
  if (outcome == Outcome::kOk && error) outcome = Outcome::kFailed;

  const double done_at = clock_.seconds();
  std::vector<Pending> expired;
  {
    const std::lock_guard lock(mutex_);
    switch (outcome) {
      case Outcome::kOk:
        ++completed_;
        rows_emitted_ += pending.job.rows;
        latency_.record((done_at - pending.submitted_at) * 1e3);
        break;
      case Outcome::kFailed: ++failed_; break;
      case Outcome::kCancelled: ++cancelled_; break;
      case Outcome::kDeadline: ++deadline_missed_; break;
    }
    live_.erase(pending.seq);
    --in_flight_;
    dispatch_locked(expired);
    // Under the lock, and no member access after it: the destructor frees
    // the service once in_flight_ reads zero. The job left the admission
    // backlog, so blocked submitters recheck.
    cv_space_.notify_all();
    cv_idle_.notify_all();
  }

  switch (outcome) {
    case Outcome::kOk:
      result.model_key = std::move(pending.job.model_key);
      result.queue_seconds = started_at - pending.submitted_at;
      result.total_seconds = done_at - pending.submitted_at;
      result.sample_seconds = result.total_seconds - result.queue_seconds;
      result.dispatch_index = dispatch_index;
      pending.promise.set_value(std::move(result));
      break;
    case Outcome::kFailed: pending.promise.set_exception(error); break;
    case Outcome::kCancelled:
      pending.promise.set_exception(
          service_error(ServiceError::Code::kCancelled,
                        "sample service: job cancelled mid-sampling"));
      break;
    case Outcome::kDeadline:
      pending.promise.set_exception(service_error(
          ServiceError::Code::kDeadline,
          "sample service: deadline passed at a chunk boundary"));
      break;
  }
  fail_unrun(expired, ServiceError::Code::kDeadline);
}

std::size_t SampleService::queue_depth() const {
  const std::lock_guard lock(mutex_);
  return queue_.size() + in_flight_;
}

std::vector<double> SampleService::latency_snapshot() const {
  const std::lock_guard lock(mutex_);
  return latency_.snapshot();
}

ServiceStats SampleService::stats() const {
  ServiceStats s;
  std::vector<double> window;
  {
    const std::lock_guard lock(mutex_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected = rejected_;
    s.shed = shed_;
    s.cancelled = cancelled_;
    s.deadline_missed = deadline_missed_;
    s.blocked = blocked_;
    s.queue_depth = queue_.size() + in_flight_;
    s.queued_rows = queued_rows_;
    s.batches = batches_;
    s.uptime_seconds = clock_.seconds();
    s.rows_per_sec = s.uptime_seconds > 0.0
                         ? static_cast<double>(rows_emitted_) /
                               s.uptime_seconds
                         : 0.0;
    s.qps = s.uptime_seconds > 0.0
                ? static_cast<double>(completed_) / s.uptime_seconds
                : 0.0;
    window = latency_.snapshot();  // raw copy: the sort stays outside
  }                                // the lock (stats() is polled hot)
  std::sort(window.begin(), window.end());
  s.p50_latency_ms = LatencyWindow::percentile(window, 0.50);
  s.p95_latency_ms = LatencyWindow::percentile(window, 0.95);
  s.p99_latency_ms = LatencyWindow::percentile(window, 0.99);
  s.host = host_.stats();
  s.pool = util::ThreadPool::global().counters();
  return s;
}

}  // namespace surro::serve
