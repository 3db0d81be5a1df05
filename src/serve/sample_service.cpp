#include "serve/sample_service.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

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

namespace {

std::exception_ptr service_error(ServiceError::Code code,
                                 const std::string& what) {
  return std::make_exception_ptr(ServiceError(code, what));
}

}  // namespace

void SampleBackend::append_stats_json(util::JsonWriter&) const {}

/// Fail shed victims (already removed from the queue, promises moved into
/// the caller's vector) with their promised kShed outcome. Called without
/// the service lock — victims are locals by then.
template <typename Victims>
static void fail_victims(Victims& victims) {
  for (auto& victim : victims) {
    victim.promise.set_exception(service_error(
        ServiceError::Code::kShed,
        "sample service: shed while queued (priority " +
            std::to_string(victim.job.priority) +
            " displaced by higher-priority work)"));
  }
}

SampleService::SampleService(ModelHost& host, ServiceConfig cfg)
    : host_(host), cfg_(cfg), latency_(cfg.latency_window) {
  if (cfg_.chunk_rows == 0) {
    throw std::invalid_argument("sample service: chunk_rows must be positive");
  }
  if (cfg_.max_batch == 0) cfg_.max_batch = 1;
  // latency_window == 0 is clamped to 1 by LatencyWindow itself.
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SampleService::~SampleService() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();  // blocked submitters fail out, not hang
  if (dispatcher_.joinable()) dispatcher_.join();
  // A submitter parked on backpressure woke above, but destroying the
  // members while it is still between the wake-up and its throw would be
  // a use-after-free on mutex_/cv_space_. Likewise a batch still running
  // on the pool. Wait until every such waiter has left submit_job and
  // every batch has finished (each decrements its count and notifies, all
  // under the lock, and touches no member afterwards).
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] {
    return submit_waiters_ == 0 && running_batches_ == 0;
  });
}

bool SampleService::over_bounds_locked(std::size_t rows) const {
  // Batches run concurrently, so a new job shares the pool with every job
  // in flight, not only the queued ones: the depth bound counts in-flight
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
            lock.unlock();
            cv_idle_.notify_all();
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
              fail_victims(victims);
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
    // Notified under the lock: after releasing it this thread touches no
    // service member, so a destructor that has drained the blocked
    // waiters cannot race a submitter's tail (victims are locals).
    cv_work_.notify_one();
  }
  fail_victims(victims);
  return out;
}

bool SampleService::cancel(std::uint64_t job_id) {
  Pending removed;
  bool was_queued = false;
  {
    const std::lock_guard lock(mutex_);
    const auto it = live_.find(job_id);
    if (it == live_.end()) return false;  // unknown or already resolved
    // In-flight jobs observe the flag at their next chunk boundary; a
    // still-queued job is pulled out right here so it never dispatches.
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
    // Not in the queue: in flight (chunk workers poll the flag), or a
    // submitter parked on backpressure — wake those so they re-check it.
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
  {
    const std::lock_guard lock(mutex_);
    paused_ = false;
  }
  cv_work_.notify_all();
}

void SampleService::dispatcher_loop() {
  auto& pool = util::ThreadPool::global();
  // One batch in flight per pool worker: enough to keep every worker busy.
  // A popped batch starts when a worker reaches it in the pool's
  // first-in-first-out queue, so tasks that running batches queued before
  // it run first: the chunks of a multi-chunk batch fanned out over the
  // whole pool, or the row blocks of a GEMM inside a chunk.
  const std::size_t max_running = pool.size();
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    std::uint64_t batch_index = 0;
    {
      std::unique_lock lock(mutex_);
      // stop_ overrides paused_: shutdown drains whatever is queued.
      cv_work_.wait(lock, [&] {
        if (queue_.empty() || (paused_ && !stop_)) return stop_;
        return running_batches_ < max_running;
      });
      if (queue_.empty()) return;  // stopped with nothing left to dispatch
      // Expire queued jobs whose deadline already passed before they cost
      // batch capacity. (Mid-flight expiry is the chunk-boundary check.)
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
      if (!queue_.empty()) {
        batch = pop_batch_locked();
        in_flight_ += batch.size();
        batch_index = ++batches_;
        batched_jobs_ += batch.size();
        ++running_batches_;
      }
    }
    // Queue space freed the moment jobs left the queue — wake blocked
    // submitters, and wake drain() in case expiry emptied the service.
    cv_space_.notify_all();
    if (!expired.empty()) {
      cv_idle_.notify_all();
      for (auto& pending : expired) {
        pending.promise.set_exception(service_error(
            ServiceError::Code::kDeadline,
            "sample service: deadline passed while queued"));
      }
    }
    if (!batch.empty()) {
      // std::function needs a copyable callable; the promises are not.
      auto owned = std::make_shared<std::vector<Pending>>(std::move(batch));
      pool.submit([this, owned, batch_index] {
        run_batch(std::move(*owned), batch_index);
        // Under the lock, and no member access after it: the destructor
        // frees the service once running_batches_ reads zero. The batch's
        // jobs left the admission backlog, so blocked submitters recheck.
        const std::lock_guard lock(mutex_);
        --running_batches_;
        cv_work_.notify_one();
        cv_space_.notify_all();
        cv_idle_.notify_all();
      });
    }
  }
}

std::vector<SampleService::Pending> SampleService::pop_batch_locked() {
  // Dispatch order: priority descending, then submission order. The head
  // job picks the batch's model; compatible queued jobs (same model key)
  // ride along, again in priority/submission order, up to max_batch.
  const auto before = [](const Pending& a, const Pending& b) {
    if (a.job.priority != b.job.priority) {
      return a.job.priority > b.job.priority;
    }
    return a.seq < b.seq;
  };
  std::size_t head = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    if (before(queue_[i], queue_[head])) head = i;
  }
  const std::string key = queue_[head].job.model_key;

  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].job.model_key == key) picked.push_back(i);
  }
  std::sort(picked.begin(), picked.end(), [&](std::size_t a, std::size_t b) {
    return before(queue_[a], queue_[b]);
  });
  if (picked.size() > cfg_.max_batch) picked.resize(cfg_.max_batch);

  std::vector<Pending> batch;
  batch.reserve(picked.size());
  for (const std::size_t i : picked) {
    queued_rows_ -= queue_[i].job.rows;
    batch.push_back(std::move(queue_[i]));
  }
  std::sort(picked.begin(), picked.end());
  for (auto it = picked.rbegin(); it != picked.rend(); ++it) {
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  return batch;
}

void SampleService::record_done_locked(const BatchItem& item,
                                       Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: {
      ++completed_;
      rows_emitted_ += item.pending.job.rows;
      latency_.record((clock_.seconds() - item.pending.submitted_at) * 1e3);
      break;
    }
    case Outcome::kFailed: ++failed_; break;
    case Outcome::kCancelled: ++cancelled_; break;
    case Outcome::kDeadline: ++deadline_missed_; break;
  }
  live_.erase(item.pending.seq);
  --in_flight_;
}

void SampleService::run_batch(std::vector<Pending> batch,
                              std::uint64_t batch_index) noexcept {
  const double dispatched_at = clock_.seconds();
  // Copied, not referenced: the Pendings are moved into BatchItems below.
  const std::string key = batch.front().job.model_key;

  std::vector<BatchItem> items;
  items.reserve(batch.size());
  for (auto& pending : batch) {
    BatchItem item;
    item.chunk_rows = pending.job.chunk_rows == 0 ? cfg_.chunk_rows
                                                  : pending.job.chunk_rows;
    item.pending = std::move(pending);
    items.push_back(std::move(item));
  }

  // Per-item life state shared by the chunk workers: 0 = alive, else the
  // Outcome that killed it. vector<atomic> is constructed in place
  // (atomics are immovable) and never resized.
  constexpr int kAlive = 0;
  constexpr int kKilledCancel = 1;
  constexpr int kKilledDeadline = 2;
  std::vector<std::atomic<int>> state(items.size());
  std::atomic<std::size_t> dead{0};
  const auto mark_dead = [&](std::size_t i, int cause) {
    int expected = kAlive;
    if (state[i].compare_exchange_strong(expected, cause,
                                         std::memory_order_relaxed)) {
      dead.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Once every job in the batch is dead there is nothing left worth
  // sampling — the workers fall out of their chunk loops.
  const auto all_dead = [&] {
    return dead.load(std::memory_order_relaxed) == items.size();
  };
  const auto sweep_dead = [&] {
    const double now = clock_.seconds();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& pending = items[i].pending;
      if (pending.cancel_flag->load(std::memory_order_relaxed)) {
        mark_dead(i, kKilledCancel);
      } else if (now > pending.deadline_at) {
        mark_dead(i, kKilledDeadline);
      }
    }
  };

  // An execution failure (chunk-slot allocation, model acquire) fails the
  // batch — but an item already dead keeps its promised cancel/deadline
  // outcome instead of being misfiled as an execution error.
  const auto outcome_for = [&](std::size_t i) {
    const int cause = state[i].load(std::memory_order_relaxed);
    return cause == kKilledCancel     ? Outcome::kCancelled
           : cause == kKilledDeadline ? Outcome::kDeadline
                                      : Outcome::kFailed;
  };
  const auto death_error = [&](std::size_t i) {
    return state[i].load(std::memory_order_relaxed) == kKilledCancel
               ? service_error(ServiceError::Code::kCancelled,
                               "sample service: job cancelled mid-sampling")
               : service_error(
                     ServiceError::Code::kDeadline,
                     "sample service: deadline passed at a chunk boundary");
  };
  const auto fail_all = [&](std::exception_ptr error) {
    {
      const std::lock_guard lock(mutex_);
      for (std::size_t i = 0; i < items.size(); ++i) {
        record_done_locked(items[i], outcome_for(i));
      }
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].pending.promise.set_exception(
          outcome_for(i) == Outcome::kFailed ? error : death_error(i));
    }
  };

  bool was_resident = false;
  std::shared_ptr<models::TabularGenerator> model;
  try {
    // Chunk-slot allocation happens inside the guarded region: an absurd
    // rows value must fail this batch's futures, not the dispatcher.
    for (auto& item : items) {
      item.chunks.resize((item.pending.job.rows + item.chunk_rows - 1) /
                         item.chunk_rows);
    }
    // Jobs cancelled or expired between pop and dispatch never sample; if
    // that is the whole batch, skip the model acquire outright.
    sweep_dead();
    if (!all_dead()) {
      was_resident = host_.resident(key);
      model = host_.acquire(key);

      // One flat chunk list across the whole batch, fanned out over the
      // pool on the one shared instance. Chunk seeds stay per-job
      // (derive_chunk_seed(job.seed, chunk-within-job)), which keeps every
      // job's bytes independent of how it was batched and where it ran.
      struct ChunkRef {
        std::size_t item;
        std::size_t chunk;
        std::size_t rows;
        std::uint64_t seed;
      };
      std::vector<ChunkRef> refs;
      for (std::size_t i = 0; i < items.size(); ++i) {
        const auto& job = items[i].pending.job;
        for (std::size_t c = 0; c < items[i].chunks.size(); ++c) {
          const std::size_t lo = c * items[i].chunk_rows;
          refs.push_back({i, c, std::min(items[i].chunk_rows, job.rows - lo),
                          models::derive_chunk_seed(job.seed, c)});
        }
      }

      // Fan-out cap: the largest request in the batch (0 = whole pool).
      std::size_t threads = 1;
      for (const auto& item : items) {
        const std::size_t want = item.pending.job.threads != 0
                                     ? item.pending.job.threads
                                     : cfg_.sample_threads;
        if (want == 0) {
          threads = 0;
          break;
        }
        threads = std::max(threads, want);
      }

      std::mutex progress_mutex;
      // The chunk boundary is where cancellation and deadlines bite: a
      // dead job's remaining chunks are skipped (its partial chunks are
      // simply dropped at assembly), and live jobs in the same batch are
      // untouched — that is the clean unwind of a partially-sampled batch.
      const auto run_chunk = [&](const ChunkRef& ref) {
        BatchItem& item = items[ref.item];
        if (state[ref.item].load(std::memory_order_relaxed) != kAlive) {
          return;
        }
        if (item.pending.cancel_flag->load(std::memory_order_relaxed)) {
          mark_dead(ref.item, kKilledCancel);
          return;
        }
        if (clock_.seconds() > item.pending.deadline_at) {
          mark_dead(ref.item, kKilledDeadline);
          return;
        }
        item.chunks[ref.chunk] = model->sample_chunk(ref.rows, ref.seed);
        if (item.pending.job.on_progress) {
          const std::lock_guard lock(progress_mutex);
          item.rows_done += ref.rows;
          item.pending.job.on_progress(item.rows_done,
                                       item.pending.job.rows);
        }
      };

      util::parallel_for(
          0, refs.size(),
          [&](std::size_t first, std::size_t last) {
            for (std::size_t r = first; r < last && !all_dead(); ++r) {
              run_chunk(refs[r]);
            }
          },
          /*grain=*/1, threads);
    }
  } catch (...) {
    fail_all(std::current_exception());
    return;
  }

  for (auto& item : items) {
    const std::size_t index = static_cast<std::size_t>(&item - items.data());
    const int cause = state[index].load(std::memory_order_relaxed);
    if (cause != kAlive) {
      {
        const std::lock_guard lock(mutex_);
        record_done_locked(item, outcome_for(index));
      }
      item.pending.promise.set_exception(death_error(index));
      continue;
    }
    try {
      SampleResult result;
      for (auto& chunk : item.chunks) {
        if (result.table.num_columns() == 0) {
          result.table = std::move(chunk);
        } else {
          result.table.append_table(chunk);
        }
      }
      result.model_key = key;
      result.queue_seconds = dispatched_at - item.pending.submitted_at;
      result.batch_jobs = items.size();
      result.batch_index = batch_index;
      result.cache_hit = was_resident;
      {
        const std::lock_guard lock(mutex_);
        record_done_locked(item, Outcome::kOk);
      }
      result.total_seconds = clock_.seconds() - item.pending.submitted_at;
      result.sample_seconds = result.total_seconds - result.queue_seconds;
      item.pending.promise.set_value(std::move(result));
    } catch (...) {
      // Assembly failure (e.g. allocation) fails this job's future; it
      // must never escape into the dispatcher thread.
      {
        const std::lock_guard lock(mutex_);
        record_done_locked(item, Outcome::kFailed);
      }
      item.pending.promise.set_exception(std::current_exception());
    }
  }
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
    s.mean_batch_jobs =
        batches_ == 0 ? 0.0
                      : static_cast<double>(batched_jobs_) /
                            static_cast<double>(batches_);
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

// ---------------------------------------------------------- global stack --

namespace {
HostConfig pipeline_host_config() {
  // Touch the global pool before the host/service members construct, so
  // static destruction tears the service down while the pool still runs.
  (void)util::ThreadPool::global();
  HostConfig cfg;
  cfg.capacity = 64;  // pipelines pin their models; generous headroom
  return cfg;
}
}  // namespace

ServingStack::ServingStack() : host(pipeline_host_config()), service(host) {}

ServingStack& global_serving() {
  static ServingStack stack;
  return stack;
}

}  // namespace surro::serve
