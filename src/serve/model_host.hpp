#pragma once
// ModelHost: a thread-safe, string-keyed host of fitted surrogates backed by
// on-disk model archives (the save_model/load_model format), with a
// capacity-bounded LRU cache so far more models can be *addressable* than
// fit in memory — the partition-and-serve shape of ParK (arXiv:2106.12231)
// applied to a pool of cheap fitted sub-models.
//
// Two kinds of entries:
//   * archive-backed (register_archive): loaded lazily on first acquire(),
//     evictable; a later acquire() transparently reloads. Archives are
//     deterministic, so an evict/reload cycle samples bitwise identically.
//   * in-memory (register_fitted): a fitted instance handed over by the
//     caller (e.g. a model fitted in the same process).
//     Pinned by default — there is no archive to reload from, so eviction
//     would lose it; unpinned in-memory entries *can* be evicted, after
//     which acquire() throws.
//
// acquire() returns a shared_ptr lease: eviction only drops the host's
// reference, so a model being sampled stays alive until the last lease
// releases. Hit/miss/load/eviction counters feed serve::ServiceStats.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/generator.hpp"
#include "util/timer.hpp"

namespace surro::serve {

struct HostConfig {
  /// Maximum resident (in-memory) models. Loading past the capacity evicts
  /// the least-recently-used unpinned entry; when everything is pinned the
  /// host temporarily exceeds capacity rather than failing the request.
  std::size_t capacity = 4;
  /// Default staleness bound for archive-backed entries: a resident model
  /// older than this (since its load) is treated as a *miss* on the next
  /// acquire() and reloaded from its archive. 0 = entries never go stale.
  /// Archives are deterministic, so a stale reload never changes bytes —
  /// the TTL exists for operators who overwrite archives in place.
  double ttl_ms = 0.0;
};

/// Fault-injection knobs for archive loads (tests and the soak harness).
/// Injected behavior applies to *archive loads only* — resident hits are
/// untouched — so eviction/reload races can be widened and load-failure
/// paths exercised deterministically.
struct HostFaults {
  /// Sleep this long inside each archive load, outside the host lock (so
  /// concurrent acquires pile up on the loading flag exactly as they would
  /// behind a genuinely slow disk).
  double load_delay_ms = 0.0;
  /// Fail the next N archive loads with std::runtime_error before touching
  /// the file. Decremented per failed load; 0 = loads succeed.
  std::size_t fail_loads = 0;
};

/// Cache effectiveness counters (monotonic since construction) plus the
/// current residency picture.
struct HostStats {
  std::size_t registered = 0;  ///< addressable keys
  std::size_t resident = 0;    ///< models currently in memory
  std::size_t pinned = 0;      ///< resident models exempt from eviction
  std::size_t capacity = 0;    ///< configured residency bound
  std::uint64_t hits = 0;      ///< acquire() served from memory
  std::uint64_t misses = 0;    ///< acquire() had to load (or wait on a load)
  std::uint64_t loads = 0;     ///< archive loads performed
  std::uint64_t load_failures = 0;  ///< archive loads that threw (incl. injected)
  std::uint64_t evictions = 0; ///< models dropped by the LRU policy
  std::uint64_t stale_reloads = 0;  ///< TTL-expired residents reloaded
  std::uint64_t invalidations = 0;  ///< invalidate() calls that dropped a copy

  /// hits / (hits + misses); 1.0 for an untouched host.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 1.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ModelHost {
 public:
  explicit ModelHost(HostConfig cfg = {});

  ModelHost(const ModelHost&) = delete;
  ModelHost& operator=(const ModelHost&) = delete;

  /// Make `key` addressable, backed by a save_model archive at `path`.
  /// Nothing is loaded until the first acquire(). Throws on duplicate keys.
  /// `ttl_ms` overrides HostConfig::ttl_ms for this entry; negative (the
  /// default) inherits the host-wide value, 0 means never stale.
  void register_archive(std::string key, std::string path,
                        double ttl_ms = -1.0);

  /// Make `key` addressable as an already-fitted in-memory instance. The
  /// model must be fitted. `pin` defaults to true because there is no
  /// archive to reload from after an eviction.
  void register_fitted(std::string key,
                       std::shared_ptr<models::TabularGenerator> model,
                       bool pin = true);

  /// Remove a key entirely (resident or not). Outstanding leases stay
  /// valid; unknown keys are ignored so teardown paths can be unconditional.
  void unregister(const std::string& key);

  /// Lease the fitted model for `key`, loading it from its archive on a
  /// miss (concurrent misses on one key load once; the load runs outside
  /// the host lock). Throws std::invalid_argument for unknown keys and
  /// std::runtime_error for evicted in-memory entries.
  [[nodiscard]] std::shared_ptr<models::TabularGenerator> acquire(
      const std::string& key);

  /// Make `key` resident (loading if needed) and exempt from eviction /
  /// undo that. Pinning counts against capacity like any resident model.
  void pin(const std::string& key);
  void unpin(const std::string& key);

  /// Drop every unpinned resident model now (cache clear; counted as
  /// evictions). Leases held by callers stay valid.
  void evict_idle();

  /// Drop the resident copy of one archive-backed key so the next acquire()
  /// reloads from disk (explicit cache invalidation; the shard pool fans
  /// this out to every replica). Returns true when a resident copy was
  /// dropped; in-memory (fitted) entries, unknown keys, non-resident
  /// entries, and entries mid-load are left alone and return false.
  bool invalidate(const std::string& key);

  /// Replace the fault-injection knobs (see HostFaults). Thread-safe;
  /// affects archive loads that *start* after the call.
  void inject_faults(HostFaults faults);

  [[nodiscard]] bool contains(const std::string& key) const;
  /// True when `key` is currently in memory (no load needed to acquire).
  [[nodiscard]] bool resident(const std::string& key) const;
  /// Sorted list of addressable keys.
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Archive path behind `key` — empty for in-memory (fitted) entries and
  /// unknown keys. Lets a shard pool replicate this host's registrations.
  [[nodiscard]] std::string archive_path(const std::string& key) const;
  [[nodiscard]] HostStats stats() const;

 private:
  struct Entry {
    std::string archive_path;  // empty => in-memory only entry
    std::shared_ptr<models::TabularGenerator> model;  // null when evicted
    bool pinned = false;
    bool loading = false;      // a thread is loading the archive right now
    bool ever_loaded = false;  // distinguishes "not yet" from "evicted"
    std::uint64_t last_use = 0;
    double ttl_ms = 0.0;       // resolved at registration; 0 = never stale
    double loaded_at = 0.0;    // age_clock_ seconds at the last (re)load
  };

  /// Evict LRU unpinned entries until residency fits capacity. Caller holds
  /// the lock. `keep` (the just-loaded key's entry) is never evicted.
  void enforce_capacity_locked(const Entry* keep);
  [[nodiscard]] std::size_t resident_count_locked() const;

  HostConfig cfg_;
  HostFaults faults_;  // guarded by mutex_
  mutable std::mutex mutex_;
  std::condition_variable cv_load_;  // a pending archive load finished
  std::map<std::string, Entry> entries_;
  std::uint64_t clock_ = 0;  // LRU clock, bumped on every touch
  util::Stopwatch age_clock_;  // staleness clock for TTL checks
  HostStats tally_;          // counter part only (residency derived live)
};

}  // namespace surro::serve
