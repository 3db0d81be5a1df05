#include "serve/shard_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/client.hpp"
#include "serve/latency_window.hpp"
#include "util/json.hpp"

namespace surro::serve {

namespace {

// Pool job ids carry the shard in the top 16 bits, biased by one so the
// all-zero id stays the "no job" sentinel and a local id can never be
// mistaken for a pool id by cancel().
constexpr unsigned kShardShift = 48;
constexpr std::uint64_t kLocalMask = (1ULL << kShardShift) - 1;

std::uint64_t encode_job_id(std::size_t shard, std::uint64_t local) {
  return (static_cast<std::uint64_t>(shard + 1) << kShardShift) |
         (local & kLocalMask);
}

}  // namespace

ShardPool::ShardPool(ShardPoolConfig cfg)
    : cfg_(std::move(cfg)),
      router_(RouterConfig{cfg_.shards + cfg_.remotes.size(),
                           cfg_.replication, cfg_.virtual_nodes}) {
  const std::size_t total = cfg_.shards + cfg_.remotes.size();
  if (total == 0) {
    throw std::invalid_argument("shard pool: needs at least one shard "
                                "(local or remote)");
  }
  cfg_.replication = router_.config().replication;  // clamped to `total`
  shards_.reserve(total);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    Shard shard;
    shard.host = std::make_unique<ModelHost>(cfg_.host);
    shard.service =
        std::make_unique<SampleService>(*shard.host, cfg_.service);
    shard.backend = shard.service.get();
    shards_.push_back(std::move(shard));
  }
  for (const auto& endpoint : cfg_.remotes) {
    Shard shard;
    shard.remote = std::make_unique<RemoteShard>(endpoint);
    shard.backend = shard.remote.get();
    shards_.push_back(std::move(shard));
  }
}

ShardPool::~ShardPool() = default;

SampleService& ShardPool::service(std::size_t shard) {
  auto& owned = shards_.at(shard).service;
  if (owned == nullptr) {
    throw std::logic_error("shard pool: shard " + std::to_string(shard) +
                           " is remote (no in-process service)");
  }
  return *owned;
}

ModelHost& ShardPool::host(std::size_t shard) {
  auto& owned = shards_.at(shard).host;
  if (owned == nullptr) {
    throw std::logic_error("shard pool: shard " + std::to_string(shard) +
                           " is remote (no in-process host)");
  }
  return *owned;
}

std::vector<std::size_t> ShardPool::owners_of(const std::string& key) const {
  {
    const std::lock_guard lock(mutex_);
    const auto it = placement_.find(key);
    if (it != placement_.end()) return it->second;
  }
  // Unregistered key: still route (the owning shard's service will fail the
  // future with unknown-key, matching single-service behavior).
  return router_.owners(key);
}

void ShardPool::register_archive(const std::string& key,
                                 const std::string& path, double ttl_ms) {
  const auto owners = router_.owners(key);
  for (const std::size_t s : owners) {
    if (shards_[s].service != nullptr) {
      shards_[s].host->register_archive(key, path, ttl_ms);
    } else if (!shards_[s].backend->has_model(key)) {
      // Workers load their own archives from their own --models flags;
      // registration here only *verifies* the placement is serveable.
      throw std::runtime_error(
          "shard pool: remote shard " + std::to_string(s) + " (" +
          shards_[s].remote->remote_config().host + ":" +
          std::to_string(shards_[s].remote->remote_config().port) +
          ") does not serve model '" + key + "'");
    }
  }
  const std::lock_guard lock(mutex_);
  placement_.emplace(key, owners);
}

void ShardPool::register_fitted(
    const std::string& key, std::shared_ptr<models::TabularGenerator> model,
    bool pin) {
  if (model == nullptr || !model->fitted()) {
    throw std::invalid_argument("shard pool: register_fitted needs a fitted "
                                "model");
  }
  const auto owners = router_.owners(key);
  for (const std::size_t s : owners) {
    if (shards_[s].service == nullptr) {
      throw std::invalid_argument(
          "shard pool: model '" + key + "' routes to remote shard " +
          std::to_string(s) +
          " — an in-memory instance cannot cross a process boundary; "
          "save it and use register_archive");
    }
  }
  // Sampling is const, so every owner shard shares the one instance.
  for (const std::size_t s : owners) {
    shards_[s].host->register_fitted(key, model, pin);
  }
  const std::lock_guard lock(mutex_);
  placement_.emplace(key, owners);
}

std::size_t ShardPool::invalidate(const std::string& key) {
  // Cache invalidation is a local concern: remote workers run their own
  // TTL/invalidations against their own archives.
  std::size_t dropped = 0;
  for (const std::size_t s : owners_of(key)) {
    if (shards_[s].host != nullptr && shards_[s].host->invalidate(key)) {
      ++dropped;
    }
  }
  return dropped;
}

Submitted ShardPool::submit_job(SampleJob job) {
  const auto owners = owners_of(job.model_key);

  // Least-depth replica first (the load-balanced lease); ties keep ring
  // order so the pick is deterministic for a quiet pool.
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (depth, shard)
  order.reserve(owners.size());
  for (const std::size_t s : owners) {
    order.emplace_back(shards_[s].backend->queue_depth(), s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  std::exception_ptr refusal;
  bool admission_refused = false;
  bool transport_failed = false;
  for (const auto& [depth, s] : order) {
    try {
      Submitted local = shards_[s].backend->submit_job(job);
      {
        const std::lock_guard lock(mutex_);
        ++routed_;
        if (admission_refused) ++rerouted_;
        if (transport_failed) ++rerouted_transport_;
      }
      local.job_id = encode_job_id(s, local.job_id);
      return local;
    } catch (const ServiceError& e) {
      if (e.code() != ServiceError::Code::kOverloaded &&
          e.code() != ServiceError::Code::kShed) {
        throw;
      }
      admission_refused = true;
      refusal = std::current_exception();  // try the next replica
    } catch (const net::TransportError&) {
      // The replica's worker is gone or unreachable — same re-route, its
      // own tally (a dead worker is not an overloaded one).
      transport_failed = true;
      refusal = std::current_exception();
    }
  }
  std::rethrow_exception(refusal);  // every replica refused or failed
}

std::pair<std::size_t, std::uint64_t> ShardPool::decode_job_id(
    std::uint64_t pool_id) const noexcept {
  const std::uint64_t biased = pool_id >> kShardShift;
  if (biased == 0 || biased > shards_.size()) {
    return {shards_.size(), 0};
  }
  return {static_cast<std::size_t>(biased - 1), pool_id & kLocalMask};
}

bool ShardPool::cancel(std::uint64_t job_id) {
  const auto [shard, local] = decode_job_id(job_id);
  if (shard >= shards_.size()) return false;
  return shards_[shard].backend->cancel(local);
}

void ShardPool::drain() {
  for (auto& shard : shards_) shard.backend->drain();
}

std::size_t ShardPool::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) depth += shard.backend->queue_depth();
  return depth;
}

std::vector<std::size_t> ShardPool::shard_depths() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard.backend->queue_depth());
  }
  return out;
}

std::vector<std::string> ShardPool::model_keys() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(placement_.size());
  for (const auto& [key, _] : placement_) out.push_back(key);
  return out;  // std::map iterates in sorted order
}

bool ShardPool::has_model(const std::string& key) const {
  const std::lock_guard lock(mutex_);
  return placement_.contains(key);
}

bool ShardPool::model_resident(const std::string& key) const {
  std::vector<std::size_t> owners;
  {
    const std::lock_guard lock(mutex_);
    const auto it = placement_.find(key);
    if (it == placement_.end()) return false;
    owners = it->second;
  }
  for (const std::size_t s : owners) {
    if (shards_[s].host != nullptr ? shards_[s].host->resident(key)
                                   : shards_[s].backend->model_resident(key)) {
      return true;
    }
  }
  return false;
}

ServiceStats ShardPool::stats() const {
  // Strict sums of the per-shard counters (tests assert this arithmetic);
  // rates are recomputed over the pool's uptime, and percentiles come from
  // the *merged* latency windows, not an average of per-shard percentiles.
  // host.registered counts replica copies, so with R > 1 it exceeds the
  // number of distinct keys by design.
  ServiceStats agg;
  std::vector<double> window;
  double rows_weighted = 0.0;
  for (const auto& shard : shards_) {
    const ServiceStats s = shard.backend->stats();
    agg.submitted += s.submitted;
    agg.completed += s.completed;
    agg.failed += s.failed;
    agg.rejected += s.rejected;
    agg.shed += s.shed;
    agg.cancelled += s.cancelled;
    agg.deadline_missed += s.deadline_missed;
    agg.blocked += s.blocked;
    agg.queue_depth += s.queue_depth;
    agg.queued_rows += s.queued_rows;
    agg.batches += s.batches;
    agg.uptime_seconds = std::max(agg.uptime_seconds, s.uptime_seconds);
    rows_weighted += s.rows_per_sec * s.uptime_seconds;
    agg.host.registered += s.host.registered;
    agg.host.resident += s.host.resident;
    agg.host.pinned += s.host.pinned;
    agg.host.capacity += s.host.capacity;
    agg.host.hits += s.host.hits;
    agg.host.misses += s.host.misses;
    agg.host.loads += s.host.loads;
    agg.host.load_failures += s.host.load_failures;
    agg.host.evictions += s.host.evictions;
    agg.host.stale_reloads += s.host.stale_reloads;
    agg.host.invalidations += s.host.invalidations;
    if (shard.service != nullptr) {
      // Percentiles merge raw latency windows; a remote shard only ships
      // its percentiles (windows do not cross the wire), so the merged
      // numbers cover the local shards. Per-shard stats keep the remote
      // percentiles individually.
      const auto shard_window = shard.service->latency_snapshot();
      window.insert(window.end(), shard_window.begin(), shard_window.end());
    }
  }
  agg.qps = agg.uptime_seconds > 0.0
                ? static_cast<double>(agg.completed) / agg.uptime_seconds
                : 0.0;
  agg.rows_per_sec =
      agg.uptime_seconds > 0.0 ? rows_weighted / agg.uptime_seconds : 0.0;
  std::sort(window.begin(), window.end());
  agg.p50_latency_ms = LatencyWindow::percentile(window, 0.50);
  agg.p95_latency_ms = LatencyWindow::percentile(window, 0.95);
  agg.p99_latency_ms = LatencyWindow::percentile(window, 0.99);
  agg.pool = util::ThreadPool::global().counters();
  return agg;
}

ShardStats ShardPool::shard_stats() const {
  ShardStats out;
  out.per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.per_shard.push_back(shard.backend->stats());
  }
  out.aggregate = stats();
  const std::lock_guard lock(mutex_);
  out.routed = routed_;
  out.rerouted = rerouted_;
  out.rerouted_transport = rerouted_transport_;
  out.placement.assign(placement_.begin(), placement_.end());
  return out;
}

void ShardPool::append_stats_json(util::JsonWriter& w) const {
  const ShardStats ss = shard_stats();
  w.key("shards").begin_object();
  w.kv("count", shards_.size());
  w.kv("local", cfg_.shards);
  w.kv("remote", cfg_.remotes.size());
  w.kv("replication", cfg_.replication);
  w.kv("virtual_nodes", router_.config().virtual_nodes);
  w.kv("routed", ss.routed);
  w.kv("rerouted", ss.rerouted);
  w.kv("rerouted_transport", ss.rerouted_transport);
  w.key("per_shard").begin_array();
  for (std::size_t s = 0; s < ss.per_shard.size(); ++s) {
    const ServiceStats& st = ss.per_shard[s];
    w.begin_object();
    w.kv("shard", s);
    w.kv("remote", shards_[s].service == nullptr);
    w.kv("queue_depth", st.queue_depth);
    w.kv("submitted", st.submitted);
    w.kv("completed", st.completed);
    w.kv("rejected", st.rejected);
    w.kv("shed", st.shed);
    w.kv("cache_hits", st.host.hits);
    w.kv("cache_misses", st.host.misses);
    w.kv("cache_evictions", st.host.evictions);
    w.kv("stale_reloads", st.host.stale_reloads);
    w.kv("invalidations", st.host.invalidations);
    w.end_object();
  }
  w.end_array();
  w.key("placement").begin_array();
  for (const auto& [key, owners] : ss.placement) {
    w.begin_object();
    w.kv("model", key);
    w.key("owners").begin_array();
    for (const std::size_t s : owners) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

Backend make_backend(ModelHost& host, const ShardPoolConfig& cfg) {
  Backend out;
  if (cfg.shards <= 1 && cfg.remotes.empty()) {
    out.service = std::make_unique<SampleService>(host, cfg.service);
    return out;
  }
  auto pool = std::make_unique<ShardPool>(cfg);
  for (const auto& key : host.keys()) {
    const std::string path = host.archive_path(key);
    if (!path.empty()) {
      // Remote owners are verified to already serve the key: workers load
      // their own archives, paths do not cross the wire.
      pool->register_archive(key, path);
    } else {
      pool->register_fitted(key, host.acquire(key));
    }
  }
  out.pool = pool.get();
  out.service = std::move(pool);
  return out;
}

}  // namespace surro::serve
