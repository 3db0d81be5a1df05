#pragma once
// ShardPool: N worker shards behind one SampleBackend face. A shard is
// either *local* — its own ModelHost LRU + SampleService in this process —
// or *remote* — a serve::RemoteShard proxying to a worker process over the
// HTTP wire protocol. The two mix freely in one pool: a consistent-hash
// ShardRouter partitions the model keyspace over all of them; replication
// factor R places every key on R distinct shards regardless of where each
// shard lives.
//
// Submission policy (the "lease"):
//   1. Route to the key's owner shards, least current queue depth first
//      (ties keep ring order), so replicas load-balance.
//   2. If the chosen shard's admission gate refuses (kOverloaded / kShed),
//      re-route to the next replica; only when *every* replica refuses does
//      the caller see the error. Counted in ShardStats::rerouted.
//   3. If the chosen shard's *transport* fails (net::TransportError —
//      worker dead, connect refused, request timed out), re-route the same
//      way but count it separately in ShardStats::rerouted_transport: an
//      admission refusal is the service protecting itself, a transport
//      failure is a worker being gone.
//
// Determinism: placement never changes bytes. A job's output depends only
// on (model, rows, seed, chunk_rows) — every replica loads the same
// archive (or shares the same fitted instance) and SampleService
// preserves the contract per shard — in-process or across a process
// boundary, because the wire protocol round-trips tables bit-exactly.
// tests/test_shard.cpp machine-checks in-process placements;
// tests/test_remote.cpp extends the sweep to mixed local/remote pools and
// worker-kill re-routes.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/remote_shard.hpp"
#include "serve/sample_service.hpp"
#include "serve/shard_router.hpp"

namespace surro::serve {

struct ShardPoolConfig {
  /// Local (in-process) shards. May be 0 when `remotes` is non-empty.
  std::size_t shards = 1;
  /// Distinct shards hosting each key (clamped to the total shard count).
  std::size_t replication = 1;
  std::size_t virtual_nodes = 64;  ///< ring points per shard (ShardRouter)
  /// Per-shard host and service configuration (every local shard gets the
  /// same knobs; capacity and admission bounds are therefore *per shard*).
  HostConfig host;
  ServiceConfig service;
  /// Remote worker shards, appended after the local ones: shard indices
  /// [shards, shards + remotes.size()) proxy to these endpoints. The
  /// router spans local + remote uniformly, so a key's replicas can mix
  /// placements (that mix is what tests/test_remote.cpp sweeps).
  std::vector<RemoteShardConfig> remotes;
};

/// The routing-layer picture: per-shard service stats plus pool tallies.
struct ShardStats {
  ServiceStats aggregate;               ///< strict sums (see ShardPool::stats)
  std::vector<ServiceStats> per_shard;  ///< index = shard
  std::uint64_t routed = 0;    ///< submits that landed on a shard
  std::uint64_t rerouted = 0;  ///< submits re-placed after a replica refused
  /// Submits re-placed after a replica's *transport* failed (worker dead /
  /// unreachable / timed out) — counted separately from admission
  /// refusals. A submit that saw both kinds before landing counts in both.
  std::uint64_t rerouted_transport = 0;
  /// Routing table: model key -> owner shards (primary first).
  std::vector<std::pair<std::string, std::vector<std::size_t>>> placement;
};

class ShardPool : public SampleBackend {
 public:
  explicit ShardPool(ShardPoolConfig cfg);
  ~ShardPool() override;

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Register `key` on its R owner shards, archive-backed. Local owners
  /// register the path; remote owners are *verified* to already serve the
  /// key (workers load their own archives — paths do not cross the wire)
  /// and a remote owner missing it throws std::runtime_error. `ttl_ms` < 0
  /// inherits the per-shard HostConfig::ttl_ms default.
  void register_archive(const std::string& key, const std::string& path,
                        double ttl_ms = -1.0);
  /// Register a fitted in-memory model. Every owner shard shares the given
  /// instance (sampling is const and re-entrant). An in-memory instance
  /// cannot cross a process boundary: when any owner is remote this throws
  /// std::invalid_argument (use register_archive).
  void register_fitted(const std::string& key,
                       std::shared_ptr<models::TabularGenerator> model,
                       bool pin = true);
  /// Drop the resident copy on every replica (cache invalidation fan-out).
  /// Returns how many replicas actually dropped a copy.
  std::size_t invalidate(const std::string& key);

  // SampleBackend surface.
  [[nodiscard]] Submitted submit_job(SampleJob job) override;
  bool cancel(std::uint64_t job_id) override;
  void drain() override;
  [[nodiscard]] ServiceStats stats() const override;
  [[nodiscard]] std::size_t queue_depth() const override;
  [[nodiscard]] const ServiceConfig& config() const noexcept override {
    return cfg_.service;
  }
  [[nodiscard]] std::vector<std::string> model_keys() const override;
  [[nodiscard]] bool has_model(const std::string& key) const override;
  [[nodiscard]] bool model_resident(const std::string& key) const override;
  void append_stats_json(util::JsonWriter& w) const override;

  // Shard-level introspection (tests, the soak monitor, the CLI banner).
  [[nodiscard]] std::size_t shards() const noexcept { return shards_.size(); }
  /// Local shards occupy indices [0, local_shards()); remote proxies the
  /// rest.
  [[nodiscard]] std::size_t local_shards() const noexcept {
    return cfg_.shards;
  }
  [[nodiscard]] bool shard_is_local(std::size_t shard) const {
    return shards_.at(shard).service != nullptr;
  }
  /// The uniform submission face of any shard, local or remote.
  [[nodiscard]] SampleBackend& backend(std::size_t shard) {
    return *shards_.at(shard).backend;
  }
  /// Local-shard internals; throws std::logic_error for a remote shard
  /// (its host and service live in another process).
  [[nodiscard]] SampleService& service(std::size_t shard);
  [[nodiscard]] ModelHost& host(std::size_t shard);
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  /// Per-shard queue depths in one cheap sweep (soak depth monitor).
  [[nodiscard]] std::vector<std::size_t> shard_depths() const;
  [[nodiscard]] ShardStats shard_stats() const;

  /// Decode a pool job id (used by tests; cancel() does this internally).
  /// Returns {shard, local_id}; shard == shards() means "not a pool id".
  [[nodiscard]] std::pair<std::size_t, std::uint64_t> decode_job_id(
      std::uint64_t pool_id) const noexcept;

 private:
  struct Shard {
    // Local shards own a host + service (host declared first: the service
    // dies before it). Remote shards own a RemoteShard proxy instead.
    std::unique_ptr<ModelHost> host;
    std::unique_ptr<SampleService> service;
    std::unique_ptr<RemoteShard> remote;
    SampleBackend* backend = nullptr;  ///< the uniform face, never null
  };

  [[nodiscard]] std::vector<std::size_t> owners_of(
      const std::string& key) const;

  ShardPoolConfig cfg_;
  ShardRouter router_;
  std::vector<Shard> shards_;

  mutable std::mutex mutex_;  // placement_ + routing tallies
  std::map<std::string, std::vector<std::size_t>> placement_;
  std::uint64_t routed_ = 0;
  std::uint64_t rerouted_ = 0;
  std::uint64_t rerouted_transport_ = 0;
};

/// What make_backend built: it owns one SampleService or one ShardPool,
/// and `pool` points at the pool when it is one (the soak's per-shard
/// depth monitor and shard_stats read it).
struct Backend {
  std::unique_ptr<SampleBackend> service;
  ShardPool* pool = nullptr;
};

/// The serving tier a caller asked for, over the models registered in
/// `host`: one SampleService over `host` with cfg.service when
/// cfg.shards <= 1 and there are no remotes, else a ShardPool(cfg) with
/// every host key registered — by archive path, or by the fitted instance
/// when the key has none (which throws when a remote shard owns it).
/// cfg.host configures the pool's shards only; `host` must outlive the
/// result.
[[nodiscard]] Backend make_backend(ModelHost& host,
                                   const ShardPoolConfig& cfg);

}  // namespace surro::serve
