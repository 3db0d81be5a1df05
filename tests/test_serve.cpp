// Serving layer: ModelHost LRU cache semantics (load-on-miss, pinning,
// eviction, counters, fault injection), SampleService per-job dispatch/
// priority/stats plus the overload-control layer (admission policies,
// deadlines, cancellation), request script parsing, and replay determinism
// — including the headline contract: a job's bytes are identical across
// client concurrency and cache eviction/reload cycles, for all four models.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <latch>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/latency_window.hpp"
#include "serve/model_host.hpp"
#include "serve/replay.hpp"
#include "serve/sample_service.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace surro::serve {
namespace {

// Tiny mixed table with clear structure (mirrors test_generator_api.cpp).
tabular::Table cluster_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical},
                          {"status", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool cluster_a = rng.bernoulli(0.65);
    auto row = t.make_row();
    if (cluster_a) {
      row.set(0, rng.normal(0.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.9) ? "BNL" : "CERN"));
      row.set(2, rng.normal(-2.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.85) ? "finished" : "failed"));
    } else {
      row.set(0, rng.normal(5.0, 0.4));
      row.set(1, std::string(rng.bernoulli(0.8) ? "RAL" : "CERN"));
      row.set(2, rng.normal(3.0, 0.3));
      row.set(3, std::string(rng.bernoulli(0.6) ? "finished" : "failed"));
    }
    t.append_row(row);
  }
  return t;
}

models::TrainBudget tiny_budget() {
  models::TrainBudget b;
  b.epochs = 4;
  b.batch_size = 64;
  b.learning_rate = 1e-3f;
  return b;
}

void expect_tables_identical(const tabular::Table& a,
                             const tabular::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_TRUE(a.schema() == b.schema());
  for (const std::size_t col : a.schema().numerical_indices()) {
    const auto va = a.numerical(col);
    const auto vb = b.numerical(col);
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(va[r], vb[r]) << "numerical col " << col << " row " << r;
    }
  }
  for (const std::size_t col : a.schema().categorical_indices()) {
    for (std::size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.label_at(col, r), b.label_at(col, r))
          << "categorical col " << col << " row " << r;
    }
  }
}

/// Per-test scratch directory for model archives, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<std::uint64_t> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("surro_serve_test_" + std::to_string(++counter) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
  std::filesystem::path path;
};

/// Fit `key` on a small cluster table and persist the archive.
std::string fit_and_archive(const TempDir& dir, const std::string& key,
                            std::uint64_t data_seed = 21) {
  auto model = models::make_generator(key, tiny_budget(), 7);
  model->fit(cluster_table(300, data_seed));
  const std::string path = dir.file(key + ".bin");
  models::save_model_file(*model, path);
  return path;
}

/// Poll `done` every millisecond for up to `limit`; true once it holds.
template <typename Pred>
bool wait_until(Pred done, std::chrono::milliseconds limit =
                               std::chrono::milliseconds(5000)) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A fitted model whose sample_chunk blocks on a latch until release(),
/// counting the calls that reached the gate: a slow model held mid-job on
/// demand. With `gated_rows` set, only chunks of exactly that many rows are
/// held. Sampling itself delegates to a fitted inner model.
class GatedGenerator final : public models::TabularGenerator {
 public:
  GatedGenerator(std::unique_ptr<models::TabularGenerator> inner,
                 std::size_t gated_rows)
      : inner_(std::move(inner)), gated_rows_(gated_rows) {}

  using TabularGenerator::fit;
  void fit(const tabular::Table&, const models::FitOptions&) override {
    throw std::logic_error("gated: fit");
  }
  [[nodiscard]] bool fitted() const noexcept override { return true; }
  [[nodiscard]] std::string key() const override { return "gated"; }
  [[nodiscard]] std::string name() const override { return "Gated"; }
  [[nodiscard]] tabular::Table sample_chunk(
      std::size_t n, std::uint64_t seed) const override {
    if (gated_rows_ == 0 || n == gated_rows_) {
      entered_.fetch_add(1);
      gate_.wait();
    }
    return inner_->sample_chunk(n, seed);
  }
  void save(std::ostream&) const override {
    throw std::logic_error("gated: save");
  }
  void load(std::istream&) override { throw std::logic_error("gated: load"); }

  [[nodiscard]] int entered() const { return entered_.load(); }
  /// Open the gate; idempotent.
  void release() {
    if (!released_.exchange(true)) gate_.count_down();
  }

 private:
  std::unique_ptr<models::TabularGenerator> inner_;
  std::size_t gated_rows_;  // 0 = hold every chunk
  mutable std::atomic<int> entered_{0};
  std::latch gate_{1};
  std::atomic<bool> released_{false};
};

/// A GatedGenerator over a small fitted SMOTE.
std::shared_ptr<GatedGenerator> make_gated(std::size_t gated_rows = 0) {
  auto inner = models::make_generator("smote", tiny_budget(), 7);
  inner->fit(cluster_table(300, 21));
  return std::make_shared<GatedGenerator>(std::move(inner), gated_rows);
}

/// Opens the gate on every way out of a test. Declared after the service,
/// so it runs before the service drains: a failure reports, not hangs.
struct OpenGateOnExit {
  GatedGenerator& gate;
  ~OpenGateOnExit() { gate.release(); }
};

// ---------------------------------------------------------- script parsing --

TEST(ReplayScript, InlineSpecParsesAllFields) {
  const auto script = parse_script_inline(
      "model=smote,rows=500,seed=7,chunk_rows=128,threads=2,priority=3,"
      "deadline_ms=250,repeat=4,seed_stride=2; model=tvae,rows=200");
  ASSERT_EQ(script.requests.size(), 2u);
  const auto& first = script.requests[0];
  EXPECT_EQ(first.job.model_key, "smote");
  EXPECT_EQ(first.job.rows, 500u);
  EXPECT_EQ(first.job.seed, 7u);
  EXPECT_EQ(first.job.chunk_rows, 128u);
  EXPECT_EQ(first.job.threads, 2u);
  EXPECT_EQ(first.job.priority, 3);
  EXPECT_EQ(first.job.deadline_ms, 250.0);
  EXPECT_EQ(first.repeat, 4u);
  EXPECT_EQ(first.seed_stride, 2u);
  const auto& second = script.requests[1];
  EXPECT_EQ(second.job.model_key, "tvae");
  EXPECT_EQ(second.repeat, 1u);      // defaults
  EXPECT_EQ(second.job.seed, 1234u);
  EXPECT_EQ(second.job.deadline_ms, 0.0);  // none
}

TEST(ReplayScript, InlineSpecRejectsBadInput) {
  EXPECT_THROW((void)parse_script_inline("rows=10"), std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote"), std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=0"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=ten"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=5,zorp=1"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote rows=5"),
               std::runtime_error);
  // Out-of-range numerics must fail parsing, never wrap through a cast.
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=-1"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=1e30"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=5,repeat=-2"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=5,seed=-7"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script_inline("model=smote,rows=5,priority=1e9"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_script_inline("model=smote,rows=5,deadline_ms=-1"),
      std::runtime_error);
}

TEST(ReplayScript, JsonlParsesAndReportsLineNumbers) {
  std::istringstream script_text(
      "# a comment\n"
      "{\"model\": \"smote\", \"rows\": 500, \"seed\": 9, \"repeat\": 2}\n"
      "\n"
      "{\"model\": \"tvae\", \"rows\": 100, \"priority\": -1}\n");
  const auto script = parse_script_jsonl(script_text);
  ASSERT_EQ(script.requests.size(), 2u);
  EXPECT_EQ(script.requests[0].job.model_key, "smote");
  EXPECT_EQ(script.requests[0].repeat, 2u);
  EXPECT_EQ(script.requests[1].job.priority, -1);

  std::istringstream bad("{\"model\": \"smote\", \"rows\": 10}\n{oops\n");
  try {
    (void)parse_script_jsonl(bad);
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- model host --

TEST(ModelHost, LoadOnMissHitOnResidentAndLruEviction) {
  TempDir dir;
  const auto smote_path = fit_and_archive(dir, "smote");
  HostConfig cfg;
  cfg.capacity = 1;
  ModelHost host(cfg);
  host.register_archive("a", smote_path);
  host.register_archive("b", smote_path);
  EXPECT_TRUE(host.contains("a"));
  EXPECT_FALSE(host.resident("a"));
  EXPECT_EQ(host.keys(), (std::vector<std::string>{"a", "b"}));

  auto lease_a = host.acquire("a");  // miss -> load
  ASSERT_NE(lease_a, nullptr);
  EXPECT_TRUE(host.resident("a"));
  (void)host.acquire("a");           // hit
  auto lease_b = host.acquire("b");  // miss -> load -> evicts a (LRU)
  EXPECT_FALSE(host.resident("a"));
  EXPECT_TRUE(host.resident("b"));

  const auto stats = host.stats();
  EXPECT_EQ(stats.registered, 2u);
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.capacity, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.loads, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_NEAR(stats.hit_rate(), 1.0 / 3.0, 1e-12);

  // The evicted model's lease stays alive and sampling through it works.
  EXPECT_EQ(lease_a->sample(50, 5).num_rows(), 50u);
  // Reload after eviction is transparent.
  (void)host.acquire("a");
  EXPECT_EQ(host.stats().loads, 3u);

  EXPECT_THROW((void)host.acquire("nope"), std::invalid_argument);
  EXPECT_THROW(host.register_archive("a", smote_path),
               std::invalid_argument);
}

TEST(ModelHost, LruPrefersLeastRecentlyTouched) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  HostConfig cfg;
  cfg.capacity = 2;
  ModelHost host(cfg);
  for (const char* key : {"a", "b", "c"}) host.register_archive(key, path);

  (void)host.acquire("a");
  (void)host.acquire("b");
  (void)host.acquire("a");  // refresh a: b is now LRU
  (void)host.acquire("c");
  EXPECT_TRUE(host.resident("a"));
  EXPECT_FALSE(host.resident("b"));
  EXPECT_TRUE(host.resident("c"));
}

TEST(ModelHost, PinningExemptsFromEvictionAndMayExceedCapacity) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  HostConfig cfg;
  cfg.capacity = 1;
  ModelHost host(cfg);
  host.register_archive("a", path);
  host.register_archive("b", path);

  host.pin("a");
  (void)host.acquire("b");  // nothing evictable: runs over capacity
  EXPECT_TRUE(host.resident("a"));
  EXPECT_TRUE(host.resident("b"));
  EXPECT_EQ(host.stats().pinned, 1u);
  EXPECT_EQ(host.stats().resident, 2u);

  host.unpin("a");
  host.evict_idle();  // drops every unpinned resident model
  EXPECT_FALSE(host.resident("a"));
  EXPECT_FALSE(host.resident("b"));
  EXPECT_THROW(host.unpin("nope"), std::invalid_argument);
}

TEST(ModelHost, InMemoryEntriesNeedNoArchiveButCannotReload) {
  auto model = models::make_generator("smote", tiny_budget(), 7);
  model->fit(cluster_table(200, 31));
  ModelHost host;
  EXPECT_THROW(host.register_fitted("m", nullptr), std::invalid_argument);
  host.register_fitted("m", std::move(model), /*pin=*/false);
  EXPECT_TRUE(host.resident("m"));
  EXPECT_EQ(host.acquire("m")->key(), "smote");

  host.evict_idle();
  EXPECT_THROW((void)host.acquire("m"), std::runtime_error);
  host.unregister("m");
  EXPECT_FALSE(host.contains("m"));
  host.unregister("m");  // unknown keys are ignored
}

// ---------------------------------------------------------- sample service --

class ServeAllModels : public ::testing::TestWithParam<std::string> {};

TEST_P(ServeAllModels, ServiceBytesMatchDirectAcrossConcurrencyAndEviction) {
  const std::string key = GetParam();
  TempDir dir;
  auto model = models::make_generator(key, tiny_budget(), 7);
  model->fit(cluster_table(300, 21));
  const std::string path = dir.file(key + ".bin");
  models::save_model_file(*model, path);

  models::SampleRequest request;
  request.rows = 300;
  request.seed = 4242;
  request.chunk_rows = 64;
  request.threads = 1;
  tabular::Table direct;
  model->sample_into(direct, request);

  SampleJob job;
  job.model_key = key;
  job.rows = request.rows;
  job.seed = request.seed;
  job.chunk_rows = request.chunk_rows;

  {
    // Lone job, default threading.
    HostConfig host_cfg;
    host_cfg.capacity = 2;
    ModelHost host(host_cfg);
    host.register_archive(key, path);
    SampleService service(host);
    expect_tables_identical(direct, service.sample(job));
  }
  {
    // The same job submitted from four concurrent clients amid decoy
    // traffic with other seeds and priorities: every copy must equal the
    // direct bytes.
    HostConfig host_cfg;
    host_cfg.capacity = 2;
    ModelHost host(host_cfg);
    host.register_archive(key, path);
    SampleService service(host);
    std::vector<std::thread> clients;
    std::vector<tabular::Table> results(4);
    for (std::size_t c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        SampleJob decoy = job;
        decoy.seed = 9000 + c;
        decoy.priority = static_cast<int>(c);
        auto decoy_future = service.submit(decoy);
        results[c] = service.sample(job);
        (void)decoy_future.get();
      });
    }
    for (auto& t : clients) t.join();
    for (const auto& result : results) {
      expect_tables_identical(direct, result);
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.failed, 0u);
  }
  {
    // Eviction/reload cycle: capacity 1 with a second key behind the same
    // archive; alternating jobs force evict+reload between repeats.
    HostConfig host_cfg;
    host_cfg.capacity = 1;
    ModelHost host(host_cfg);
    host.register_archive(key, path);
    host.register_archive("other", path);
    SampleService service(host);
    expect_tables_identical(direct, service.sample(job));
    SampleJob other = job;
    other.model_key = "other";
    (void)service.sample(other);
    expect_tables_identical(direct, service.sample(job));
    EXPECT_GE(service.stats().host.evictions, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Keys, ServeAllModels,
                         ::testing::Values("tvae", "ctabgan", "smote",
                                           "tabddpm"),
                         [](const auto& info) { return info.param; });

TEST(SampleService, DispatchesJobsInStrictPriorityOrder) {
  // One dispatch per job, best first: a low-priority job that shares the
  // best job's key does not ride ahead of a higher-priority job with
  // another key.
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  HostConfig host_cfg;
  host_cfg.capacity = 2;
  ModelHost host(host_cfg);
  host.register_archive("a", path);
  host.register_archive("b", path);
  SampleService service(host);

  service.pause();
  SampleJob a5{"a", 100, 10};
  a5.priority = 5;
  auto a5_future = service.submit(a5);
  auto a0_future = service.submit(SampleJob{"a", 100, 11});  // priority 0
  SampleJob b3{"b", 100, 20};
  b3.priority = 3;
  auto b3_future = service.submit(b3);
  service.resume();
  service.drain();

  const SampleResult a5_result = a5_future.get();
  const SampleResult b3_result = b3_future.get();
  const SampleResult a0_result = a0_future.get();
  EXPECT_LT(a5_result.dispatch_index, b3_result.dispatch_index);
  EXPECT_LT(b3_result.dispatch_index, a0_result.dispatch_index);
  EXPECT_FALSE(b3_result.cache_hit);  // the only "b" job loads it
  for (const auto* r : {&a5_result, &b3_result, &a0_result}) {
    EXPECT_EQ(r->table.num_rows(), 100u);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_TRUE(std::isfinite(stats.p50_latency_ms));

  // Round two on a resident model: a cache hit now.
  auto again = service.submit(SampleJob{"a", 50, 1});
  EXPECT_TRUE(again.get().cache_hit);
}

TEST(SampleService, OneChunkJobResolvesWhileASameKeyLongJobIsHeld) {
  // Jobs are not coalesced: a 1-chunk job staged beside a 10-chunk job of
  // the same key resolves while the long job's chunks are held.
  if (util::ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "needs at least two pool workers";
  }
  auto gated = make_gated(/*gated_rows=*/64);
  ModelHost host;
  host.register_fitted("slow", gated);
  SampleService service(host);
  const OpenGateOnExit open_gate{*gated};

  service.pause();
  SampleJob long_job{"slow", 640, 1};
  long_job.chunk_rows = 64;  // 10 chunks, each held at the gate
  // Serial, so the long job queues no chunk tasks ahead of the short job's
  // task in the pool's FIFO.
  long_job.threads = 1;
  auto long_future = service.submit(long_job);
  SampleJob short_job{"slow", 32, 2};  // one 32-row chunk: never held
  short_job.chunk_rows = 64;
  auto short_future = service.submit(short_job);
  service.resume();

  ASSERT_TRUE(wait_until([&] { return gated->entered() >= 1; }));
  EXPECT_EQ(short_future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "the 1-chunk job waited for its same-key neighbour";
  EXPECT_EQ(long_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_EQ(gated->entered(), 1);

  gated->release();
  EXPECT_EQ(short_future.get().table.num_rows(), 32u);
  EXPECT_EQ(long_future.get().table.num_rows(), 640u);
  EXPECT_EQ(service.stats().batches, 2u);
}

TEST(SampleService, FastJobsOvertakeABlockedSlowJob) {
  // Jobs run concurrently on the pool: while one job is stuck inside a
  // slow model, a job for another model completes, and a second job of
  // the *same* key starts sampling on the shared instance.
  if (util::ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "needs at least two pool workers";
  }
  TempDir dir;
  const auto smote_path = fit_and_archive(dir, "smote");
  auto gated = make_gated();
  ModelHost host;
  host.register_archive("smote", smote_path);
  host.register_fitted("slow", gated);
  SampleService service(host);
  const OpenGateOnExit open_gate{*gated};

  auto slow = service.submit(SampleJob{"slow", 64, 1});
  ASSERT_TRUE(wait_until([&] { return gated->entered() >= 1; }));
  auto fast = service.submit(SampleJob{"smote", 64, 2});
  EXPECT_EQ(fast.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a fast job queued behind the blocked job";
  auto same_key = service.submit(SampleJob{"slow", 64, 3});
  EXPECT_TRUE(wait_until([&] { return gated->entered() >= 2; }))
      << "a second job of the blocked key did not start sampling";

  gated->release();
  EXPECT_EQ(slow.get().table.num_rows(), 64u);
  EXPECT_EQ(fast.get().table.num_rows(), 64u);
  EXPECT_EQ(same_key.get().table.num_rows(), 64u);
  EXPECT_EQ(service.stats().batches, 3u);
}

TEST(SampleService, ErrorsSurfaceOnTheFutureNotTheService) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  SampleService service(host);

  auto bad = service.submit(SampleJob{"unknown", 100, 1});
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  // The service keeps serving afterwards.
  EXPECT_EQ(service.sample(SampleJob{"a", 80, 2}).num_rows(), 80u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);

  // A zero-row job resolves to an empty table rather than erroring.
  auto empty = service.submit(SampleJob{"a", 0, 3});
  EXPECT_EQ(empty.get().table.num_rows(), 0u);
}

TEST(SampleService, FreshServiceReportsInfinitePercentilesAsJsonNull) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  SampleService service(host);

  const auto stats = service.stats();
  EXPECT_TRUE(std::isinf(stats.p50_latency_ms));
  EXPECT_TRUE(std::isinf(stats.p95_latency_ms));

  ReplayResult result;
  result.stats = stats;
  const auto doc =
      util::parse_json(serve_stats_to_json(service, ReplayOptions{}, result));
  EXPECT_EQ(doc.at("kind").as_string(), "serve_stats");
  EXPECT_TRUE(doc.at("latency_ms").at("p50").is_null());
  EXPECT_TRUE(doc.at("latency_ms").at("p95").is_null());
  EXPECT_TRUE(doc.at("latency_ms").at("p99").is_null());
  EXPECT_EQ(doc.at("cache").at("hit_rate").as_number(), 1.0);
  // Overload-control fields ride along in the artifact.
  EXPECT_EQ(doc.at("config").at("admission").as_string(), "block");
  EXPECT_EQ(doc.at("service").at("rejected").as_number(), 0.0);
  EXPECT_EQ(doc.at("service").at("shed").as_number(), 0.0);
  EXPECT_EQ(doc.at("service").at("deadline_missed").as_number(), 0.0);
  EXPECT_EQ(doc.at("service").at("cancelled").as_number(), 0.0);
  EXPECT_EQ(doc.at("cache").at("load_failures").as_number(), 0.0);
}

TEST(SampleService, StatsJsonRoundTripsEveryField) {
  ServiceStats in;
  in.submitted = 11;
  in.completed = 7;
  in.failed = 1;
  in.queue_depth = 3;
  in.queued_rows = 900;
  in.batches = 8;
  in.qps = 12.5;
  in.rows_per_sec = 4321.25;
  in.rejected = 2;
  in.shed = 4;
  in.cancelled = 5;
  in.deadline_missed = 6;
  in.blocked = 9;
  in.p50_latency_ms = 1.5;
  in.p95_latency_ms = 2.75;
  in.p99_latency_ms = 3.125;
  in.host.registered = 4;
  in.host.resident = 2;
  in.host.pinned = 1;
  in.host.capacity = 3;
  in.host.hits = 40;
  in.host.misses = 10;
  in.host.loads = 12;
  in.host.load_failures = 2;
  in.host.evictions = 9;
  in.host.stale_reloads = 1;
  in.host.invalidations = 3;
  const auto to_doc = [](const ServiceStats& s) {
    util::JsonWriter w;
    w.begin_object();
    write_service_stats(w, s);
    w.end_object();
    return util::parse_json(w.str());
  };

  const util::JsonValue doc = to_doc(in);
  EXPECT_EQ(doc.at("service").object.size(), 16u);
  EXPECT_EQ(doc.at("cache").object.size(), 12u);
  EXPECT_EQ(doc.at("cache").at("hit_rate").as_number(), 0.8);
  const ServiceStats out = read_service_stats(doc);
  EXPECT_EQ(out.submitted, in.submitted);
  EXPECT_EQ(out.completed, in.completed);
  EXPECT_EQ(out.failed, in.failed);
  EXPECT_EQ(out.queue_depth, in.queue_depth);
  EXPECT_EQ(out.queued_rows, in.queued_rows);
  EXPECT_EQ(out.batches, in.batches);
  EXPECT_EQ(out.qps, in.qps);
  EXPECT_EQ(out.rows_per_sec, in.rows_per_sec);
  EXPECT_EQ(out.rejected, in.rejected);
  EXPECT_EQ(out.shed, in.shed);
  EXPECT_EQ(out.cancelled, in.cancelled);
  EXPECT_EQ(out.deadline_missed, in.deadline_missed);
  EXPECT_EQ(out.blocked, in.blocked);
  EXPECT_EQ(out.p50_latency_ms, in.p50_latency_ms);
  EXPECT_EQ(out.p95_latency_ms, in.p95_latency_ms);
  EXPECT_EQ(out.p99_latency_ms, in.p99_latency_ms);
  EXPECT_EQ(out.host.registered, in.host.registered);
  EXPECT_EQ(out.host.resident, in.host.resident);
  EXPECT_EQ(out.host.pinned, in.host.pinned);
  EXPECT_EQ(out.host.capacity, in.host.capacity);
  EXPECT_EQ(out.host.hits, in.host.hits);
  EXPECT_EQ(out.host.misses, in.host.misses);
  EXPECT_EQ(out.host.loads, in.host.loads);
  EXPECT_EQ(out.host.load_failures, in.host.load_failures);
  EXPECT_EQ(out.host.evictions, in.host.evictions);
  EXPECT_EQ(out.host.stale_reloads, in.host.stale_reloads);
  EXPECT_EQ(out.host.invalidations, in.host.invalidations);

  // An empty window's +inf percentiles travel as JSON null and come back
  // as +inf; a document without the sections reads as zeros.
  ServiceStats empty;
  empty.p50_latency_ms = empty.p95_latency_ms = empty.p99_latency_ms =
      std::numeric_limits<double>::infinity();
  const util::JsonValue null_doc = to_doc(empty);
  EXPECT_TRUE(null_doc.at("service").at("p99_latency_ms").is_null());
  const ServiceStats back = read_service_stats(null_doc);
  EXPECT_TRUE(std::isinf(back.p50_latency_ms) && back.p50_latency_ms > 0);
  EXPECT_TRUE(std::isinf(back.p95_latency_ms) && back.p95_latency_ms > 0);
  EXPECT_TRUE(std::isinf(back.p99_latency_ms) && back.p99_latency_ms > 0);
  const ServiceStats zeros = read_service_stats(util::parse_json("{}"));
  EXPECT_EQ(zeros.submitted, 0u);
  EXPECT_EQ(zeros.p99_latency_ms, 0.0);
}

TEST(SampleService, ShutdownDrainsQueuedJobs) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  std::future<SampleResult> pending;
  {
    SampleService service(host);
    service.pause();
    pending = service.submit(SampleJob{"a", 120, 4});
    // The destructor overrides the pause and runs the queued job.
  }
  EXPECT_EQ(pending.get().table.num_rows(), 120u);
}

// ------------------------------------------------------------------ replay --

TEST(Replay, OutputHashIsClientCountAndCapacityInvariant) {
  TempDir dir;
  const auto smote_path = fit_and_archive(dir, "smote");
  const auto tvae_path = fit_and_archive(dir, "tvae");
  const auto script = parse_script_inline(
      "model=smote,rows=150,seed=5,repeat=3,seed_stride=1;"
      "model=tvae,rows=90,seed=11,repeat=2,seed_stride=1");

  const auto run = [&](std::size_t clients, std::size_t capacity) {
    HostConfig host_cfg;
    host_cfg.capacity = capacity;
    ModelHost host(host_cfg);
    host.register_archive("smote", smote_path);
    host.register_archive("tvae", tvae_path);
    SampleService service(host);
    ReplayOptions opts;
    opts.clients = clients;
    return run_replay(service, script, opts);
  };

  const auto serial = run(1, 2);
  EXPECT_EQ(serial.counts.submitted, 5u);
  EXPECT_EQ(serial.counts.rows, 3u * 150u + 2u * 90u);
  EXPECT_EQ(serial.counts.failed, 0u);
  EXPECT_NE(serial.output_hash, 0u);

  const auto concurrent = run(4, 2);
  const auto thrashing = run(3, 1);  // capacity 1: every model swap evicts
  EXPECT_EQ(concurrent.output_hash, serial.output_hash);
  EXPECT_EQ(thrashing.output_hash, serial.output_hash);
  EXPECT_EQ(concurrent.counts.failed, 0u);
  EXPECT_EQ(thrashing.counts.failed, 0u);
  EXPECT_GE(thrashing.stats.host.evictions, 1u);

  // Distinct traffic hashes differently (the probe can actually fail).
  const auto other_script =
      parse_script_inline("model=smote,rows=150,seed=6");
  HostConfig host_cfg;
  ModelHost host(host_cfg);
  host.register_archive("smote", smote_path);
  SampleService service(host);
  const auto other = run_replay(service, other_script, ReplayOptions{});
  EXPECT_NE(other.output_hash, serial.output_hash);
}

// A backend whose every submit throws something other than a
// ServiceError, as a pool does when every replica's transport failed.
class ThrowingBackend : public SampleBackend {
 public:
  Submitted submit_job(SampleJob) override {
    throw std::runtime_error("transport down");
  }
  bool cancel(std::uint64_t) override { return false; }
  void drain() override {}
  ServiceStats stats() const override { return {}; }
  std::size_t queue_depth() const override { return 0; }
  const ServiceConfig& config() const noexcept override { return cfg_; }
  std::vector<std::string> model_keys() const override { return {}; }
  bool has_model(const std::string&) const override { return false; }
  bool model_resident(const std::string&) const override { return false; }

 private:
  ServiceConfig cfg_;
};

TEST(Replay, SubmitFailureBelowTheServiceCountsAsFailure) {
  ThrowingBackend backend;
  ReplayOptions opts;
  opts.clients = 3;
  const auto result = run_replay(
      backend, parse_script_inline("model=smote,rows=10,repeat=6"), opts);
  EXPECT_EQ(result.counts.submitted, 6u);
  EXPECT_EQ(result.counts.failed, 6u);
  EXPECT_EQ(result.counts.completed, 0u);
  EXPECT_EQ(result.counts.rejected, 0u);
}

// ---------------------------------------------------------- latency window --

TEST(LatencyWindowTest, EmptyWindowReportsInfinity) {
  LatencyWindow window(8);
  EXPECT_EQ(window.size(), 0u);
  const auto sorted = window.snapshot_sorted();
  EXPECT_TRUE(std::isinf(LatencyWindow::percentile(sorted, 0.50)));
  EXPECT_TRUE(std::isinf(LatencyWindow::percentile(sorted, 0.99)));
}

TEST(LatencyWindowTest, SingleSampleIsEveryPercentile) {
  LatencyWindow window(8);
  window.record(42.0);
  const auto sorted = window.snapshot_sorted();
  for (const double p : {0.0, 0.50, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(LatencyWindow::percentile(sorted, p), 42.0) << p;
  }
}

TEST(LatencyWindowTest, ExactlyFullWindowIsSortedWhateverInsertionOrder) {
  LatencyWindow window(4);
  for (const double ms : {9.0, 1.0, 7.0, 3.0}) window.record(ms);
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.recorded(), 4u);
  const auto sorted = window.snapshot_sorted();
  EXPECT_EQ(sorted, (std::vector<double>{1.0, 3.0, 7.0, 9.0}));
  EXPECT_EQ(LatencyWindow::percentile(sorted, 0.50), 3.0);
  EXPECT_EQ(LatencyWindow::percentile(sorted, 0.95), 9.0);
}

TEST(LatencyWindowTest, WrappedWindowKeepsNewestAndStaysSorted) {
  // Capacity 4, 7 samples: the ring has wrapped — its *insertion order* is
  // rotated ([5, 6, 2, 4] internally), which is exactly the case where an
  // unsorted percentile read would be wrong.
  LatencyWindow window(4);
  for (const double ms : {9.0, 1.0, 2.0, 4.0, 5.0, 6.0}) window.record(ms);
  window.record(3.0);
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.recorded(), 7u);
  const auto sorted = window.snapshot_sorted();
  EXPECT_EQ(sorted, (std::vector<double>{3.0, 4.0, 5.0, 6.0}));
  EXPECT_EQ(LatencyWindow::percentile(sorted, 0.50), 4.0);
  EXPECT_EQ(LatencyWindow::percentile(sorted, 1.0), 6.0);
}

// --------------------------------------------------------- overload control --

TEST(AdmissionControl, PolicyNamesRoundTrip) {
  for (const auto policy : {AdmissionPolicy::kBlock, AdmissionPolicy::kReject,
                            AdmissionPolicy::kShed}) {
    EXPECT_EQ(parse_admission_policy(admission_policy_name(policy)), policy);
  }
  EXPECT_THROW((void)parse_admission_policy("drop"), std::invalid_argument);
}

TEST(AdmissionControl, RejectPolicyThrowsOverloadedAndKeepsServing) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kReject;
  cfg.max_queue_depth = 2;
  SampleService service(host, cfg);

  service.pause();  // queue fills deterministically
  auto f1 = service.submit(SampleJob{"a", 50, 1});
  auto f2 = service.submit(SampleJob{"a", 50, 2});
  try {
    (void)service.submit(SampleJob{"a", 50, 3});
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kOverloaded);
  }
  EXPECT_EQ(service.stats().rejected, 1u);
  service.resume();
  service.drain();
  EXPECT_EQ(f1.get().table.num_rows(), 50u);
  EXPECT_EQ(f2.get().table.num_rows(), 50u);
  // Space freed: the service admits again.
  EXPECT_EQ(service.sample(SampleJob{"a", 50, 3}).num_rows(), 50u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(AdmissionControl, RowBoundAppliesButEmptyQueueAlwaysAdmits) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kReject;
  cfg.max_queued_rows = 100;
  SampleService service(host, cfg);

  service.pause();
  // 400 rows > the 100-row bound, but the queue is empty: admitted.
  auto big = service.submit(SampleJob{"a", 400, 1});
  // Now the backlog is over the row bound: the next job is rejected.
  EXPECT_THROW((void)service.submit(SampleJob{"a", 10, 2}), ServiceError);
  EXPECT_EQ(service.stats().queued_rows, 400u);
  service.resume();
  EXPECT_EQ(big.get().table.num_rows(), 400u);
  EXPECT_EQ(service.stats().queued_rows, 0u);
}

TEST(AdmissionControl, InFlightJobsCountTowardTheDepthBound) {
  // Jobs run concurrently, so the depth bound counts in-flight jobs beyond
  // the first: with every admitted job held inside the model, a
  // service bounded at one backlog job admits exactly two, whatever the
  // pool size.
  auto gated = make_gated();
  ModelHost host;
  host.register_fitted("slow", gated);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kReject;
  cfg.max_queue_depth = 1;
  SampleService service(host, cfg);
  const OpenGateOnExit open_gate{*gated};

  const std::size_t workers = util::ThreadPool::global().size();
  std::vector<std::future<SampleResult>> admitted;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < workers + 2; ++i) {
    try {
      admitted.push_back(service.submit(SampleJob{"slow", 32, i + 1}));
      // Let the job reach the model when a worker is free for it.
      const auto running =
          static_cast<int>(std::min(admitted.size(), workers));
      EXPECT_TRUE(wait_until([&] { return gated->entered() >= running; }));
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), ServiceError::Code::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_EQ(admitted.size(), 2u);
  EXPECT_EQ(rejected, workers);
  EXPECT_LE(service.queue_depth(), cfg.max_queue_depth + 1);

  gated->release();
  for (auto& f : admitted) EXPECT_EQ(f.get().table.num_rows(), 32u);
}

TEST(AdmissionControl, BlockedSubmitWakesWhenInFlightWorkFinishes) {
  // A submitter blocked by in-flight jobs (not by the queue) must wake
  // when they finish.
  auto gated = make_gated();
  ModelHost host;
  host.register_fitted("slow", gated);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.max_queue_depth = 1;
  std::atomic<bool> admitted{false};
  std::thread submitter;
  std::future<SampleResult> third;
  {
    SampleService service(host, cfg);
    const OpenGateOnExit open_gate{*gated};
    auto first = service.submit(SampleJob{"slow", 32, 1});
    ASSERT_TRUE(wait_until([&] { return gated->entered() >= 1; }));
    auto second = service.submit(SampleJob{"slow", 32, 2});  // backlog 0
    submitter = std::thread([&] {
      try {
        third = service.submit(SampleJob{"slow", 32, 3});  // backlog 1
        admitted.store(true);
      } catch (const std::logic_error&) {
        // Released by shutdown after a failed wait below.
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(admitted.load());
    gated->release();
    EXPECT_TRUE(wait_until([&] { return admitted.load(); }))
        << "the blocked submit never woke";
    EXPECT_EQ(first.get().table.num_rows(), 32u);
    EXPECT_EQ(second.get().table.num_rows(), 32u);
  }
  submitter.join();
  if (admitted.load()) EXPECT_EQ(third.get().table.num_rows(), 32u);
}

TEST(AdmissionControl, ShedNeverDropsInFlightJobs) {
  // In-flight jobs count toward the bound but are never shed: with the
  // whole backlog in flight, even a higher-priority newcomer is refused.
  if (util::ThreadPool::global().size() < 2) {
    GTEST_SKIP() << "needs at least two pool workers";
  }
  auto gated = make_gated();
  ModelHost host;
  host.register_fitted("slow", gated);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kShed;
  cfg.max_queue_depth = 1;
  SampleService service(host, cfg);
  const OpenGateOnExit open_gate{*gated};

  auto first = service.submit(SampleJob{"slow", 32, 1});
  ASSERT_TRUE(wait_until([&] { return gated->entered() >= 1; }));
  auto second = service.submit(SampleJob{"slow", 32, 2});  // backlog 0
  ASSERT_TRUE(wait_until([&] { return gated->entered() >= 2; }));
  SampleJob urgent{"slow", 32, 3};
  urgent.priority = 9;
  try {
    (void)service.submit(urgent);  // backlog 1, nothing queued to shed
    FAIL() << "expected the incoming job to be refused";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kShed);
  }

  gated->release();
  EXPECT_EQ(first.get().table.num_rows(), 32u);
  EXPECT_EQ(second.get().table.num_rows(), 32u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(AdmissionControl, BlockPolicyBackpressuresUntilSpaceFrees) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.max_queue_depth = 1;
  SampleService service(host, cfg);

  service.pause();
  auto f1 = service.submit(SampleJob{"a", 60, 1});
  std::atomic<bool> admitted{false};
  std::future<SampleResult> f2;
  std::thread submitter([&] {
    f2 = service.submit(SampleJob{"a", 60, 2});  // blocks: queue is full
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());  // still blocked while paused
  service.resume();  // dispatches f1 -> space frees -> f2 admitted
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(f1.get().table.num_rows(), 60u);
  EXPECT_EQ(f2.get().table.num_rows(), 60u);
  EXPECT_GE(service.stats().blocked, 1u);
}

TEST(AdmissionControl, CancelWhileBlockedAtAdmissionResolvesCancelled) {
  // A kBlock submitter parked at the admission gate already has a job id
  // (submit_job published it before blocking), so cancel() must reach it
  // *there*: wake the waiter, resolve its future with kCancelled, and
  // never enqueue it — not hang, and not misfile it as admitted work.
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.max_queue_depth = 1;
  SampleService service(host, cfg);

  service.pause();
  auto occupying = service.submit_job(SampleJob{"a", 60, 1});
  std::atomic<bool> returned{false};
  Submitted blocked;
  std::thread submitter([&] {
    blocked = service.submit_job(SampleJob{"a", 60, 2});  // queue is full
    returned.store(true);
  });
  // submit_job publishes the id + cancel flag under the lock *before*
  // parking, so once the waiter shows up in the stats its id — sequential,
  // occupying + 1 — is already cancellable.
  while (service.stats().blocked == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(returned.load());
  EXPECT_TRUE(service.cancel(occupying.job_id + 1));

  // The service stays paused, so space never frees: only the cancel can
  // have released the submitter.
  submitter.join();
  ASSERT_TRUE(returned.load());
  EXPECT_EQ(blocked.job_id, occupying.job_id + 1);
  try {
    (void)blocked.future.get();
    FAIL() << "expected cancellation";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kCancelled);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queue_depth, 1u);  // the cancelled job was never enqueued
  service.resume();
  EXPECT_EQ(occupying.future.get().table.num_rows(), 60u);
}

TEST(AdmissionControl, ShedPolicyDropsLowestPriorityIncludingIncoming) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kShed;
  cfg.max_queue_depth = 2;
  SampleService service(host, cfg);

  service.pause();
  SampleJob low{"a", 40, 1};
  low.priority = 0;
  auto low_future = service.submit(low);
  SampleJob mid{"a", 40, 2};
  mid.priority = 3;
  auto mid_future = service.submit(mid);

  // Queue full. A higher-priority job displaces the weakest queued one.
  SampleJob high{"a", 40, 3};
  high.priority = 5;
  auto high_future = service.submit(high);
  try {
    (void)low_future.get();
    FAIL() << "expected the low-priority job to be shed";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kShed);
  }

  // An incoming job weaker than everything queued is itself shed — ties
  // shed the newcomer too.
  SampleJob weak{"a", 40, 4};
  weak.priority = 3;  // ties mid's priority -> newcomer loses
  try {
    (void)service.submit(weak);
    FAIL() << "expected the incoming job to be shed";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kShed);
  }

  service.resume();
  EXPECT_EQ(mid_future.get().table.num_rows(), 40u);
  EXPECT_EQ(high_future.get().table.num_rows(), 40u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);      // the queued victim
  EXPECT_EQ(stats.rejected, 1u);  // the refused newcomer: never admitted
  EXPECT_EQ(stats.completed, 2u);
  // The outcome partition holds: every admitted job resolved once.
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.shed +
                                 stats.cancelled + stats.deadline_missed);
}

TEST(AdmissionControl, VictimsShedBeforeIncomingLosesStillGetShedError) {
  // Rows-bound shedding can evict a victim and *then* discover the
  // remaining weakest outranks the incoming job. The already-evicted
  // victim must still see ServiceError{kShed} — not a broken promise.
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  ServiceConfig cfg;
  cfg.admission = AdmissionPolicy::kShed;
  cfg.max_queued_rows = 100;
  SampleService service(host, cfg);

  service.pause();
  SampleJob a{"a", 10, 1};
  a.priority = 1;
  auto fa = service.submit(a);
  SampleJob b{"a", 80, 2};
  b.priority = 5;
  auto fb = service.submit(b);  // 90 rows queued: under the bound
  SampleJob c{"a", 80, 3};
  c.priority = 3;  // outranks a, loses to b
  try {
    (void)service.submit(c);  // sheds a, then b blocks c -> c is shed
    FAIL() << "expected the incoming job to be shed";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kShed);
  }
  try {
    (void)fa.get();
    FAIL() << "expected the evicted victim to be shed";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kShed);
  }
  service.resume();
  EXPECT_EQ(fb.get().table.num_rows(), 80u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);      // the evicted victim
  EXPECT_EQ(stats.rejected, 1u);  // the refused incoming job
}

TEST(Deadlines, QueuedJobPastDeadlineFailsAtDispatch) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  SampleService service(host);

  service.pause();
  SampleJob doomed{"a", 80, 1};
  doomed.deadline_ms = 5.0;
  auto doomed_future = service.submit(doomed);
  auto fine_future = service.submit(SampleJob{"a", 80, 2});  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.resume();
  try {
    (void)doomed_future.get();
    FAIL() << "expected a deadline miss";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kDeadline);
  }
  EXPECT_EQ(fine_future.get().table.num_rows(), 80u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.deadline_missed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);  // a deadline miss is not an execution error
}

TEST(Deadlines, MidSamplingExpiryUnwindsAtChunkBoundary) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  SampleService service(host);

  // Serial chunks (threads=1) with a progress hook that burns past the
  // deadline after the first chunk: the next chunk-boundary check must
  // kill the job and discard its partial output.
  SampleJob job{"a", 200, 7};
  job.chunk_rows = 50;  // 4 chunks
  job.threads = 1;
  job.deadline_ms = 40.0;
  job.on_progress = [](std::size_t done, std::size_t /*total*/) {
    if (done <= 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
  };
  auto future = service.submit(job);
  try {
    (void)future.get();
    FAIL() << "expected a mid-sampling deadline miss";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kDeadline);
  }
  EXPECT_EQ(service.stats().deadline_missed, 1u);
  // The service keeps serving (the job unwound cleanly).
  EXPECT_EQ(service.sample(SampleJob{"a", 60, 8}).num_rows(), 60u);
}

TEST(Cancellation, QueuedJobCancelsImmediately) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  SampleService service(host);

  service.pause();
  auto submitted = service.submit_job(SampleJob{"a", 80, 1});
  EXPECT_TRUE(service.cancel(submitted.job_id));
  try {
    (void)submitted.future.get();
    FAIL() << "expected cancellation";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kCancelled);
  }
  EXPECT_FALSE(service.cancel(submitted.job_id));  // already resolved
  EXPECT_FALSE(service.cancel(12345));             // never existed
  service.resume();
  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Cancellation, InFlightJobStopsAtNextChunkBoundary) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  SampleService service(host);

  // The job cancels *itself* from its progress hook — by then it is
  // definitely mid-sampling, so this exercises the chunk-boundary path, not
  // the queued-removal path. threads=1 serializes chunks so at least one
  // boundary check runs after the flag is set.
  std::atomic<std::uint64_t> job_id{0};
  std::atomic<bool> requested{false};
  SampleJob job{"a", 400, 9};
  job.chunk_rows = 50;  // 8 chunks
  job.threads = 1;
  job.on_progress = [&](std::size_t /*done*/, std::size_t /*total*/) {
    const std::uint64_t id = job_id.load();
    if (id != 0 && !requested.exchange(true)) {
      EXPECT_TRUE(service.cancel(id));
    }
  };
  service.pause();  // the id is stored before sampling can begin
  auto submitted = service.submit_job(std::move(job));
  job_id.store(submitted.job_id);
  service.resume();
  try {
    (void)submitted.future.get();
    FAIL() << "expected cancellation";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), ServiceError::Code::kCancelled);
  }
  EXPECT_EQ(service.stats().cancelled, 1u);
  // Later jobs are untouched.
  EXPECT_EQ(service.sample(SampleJob{"a", 70, 10}).num_rows(), 70u);
}

TEST(OverloadShutdown, DestructionMidOverloadReleasesBlockedSubmitters) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);

  std::future<SampleResult> queued;
  std::thread blocked;
  std::atomic<bool> threw{false};
  {
    ServiceConfig cfg;
    cfg.admission = AdmissionPolicy::kBlock;
    cfg.max_queue_depth = 1;
    SampleService service(host, cfg);
    service.pause();
    queued = service.submit(SampleJob{"a", 90, 1});
    blocked = std::thread([&] {
      try {
        (void)service.submit(SampleJob{"a", 90, 2});
      } catch (const std::logic_error&) {
        threw.store(true);  // shutdown released the blocked submit
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Destructor: stop overrides pause, drains the queue, and wakes the
    // blocked submitter — no deadlock.
  }
  blocked.join();
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(queued.get().table.num_rows(), 90u);
}

// ----------------------------------------------------- host fault injection --

TEST(HostFaultInjection, InjectedLoadFailureSurfacesAndThenRecovers) {
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  ModelHost host;
  host.register_archive("a", path);
  host.inject_faults({.load_delay_ms = 0.0, .fail_loads = 1});

  EXPECT_THROW((void)host.acquire("a"), std::runtime_error);
  EXPECT_EQ(host.stats().load_failures, 1u);
  // The loading flag was reset: the next acquire retries and succeeds.
  EXPECT_NE(host.acquire("a"), nullptr);
  EXPECT_EQ(host.stats().loads, 1u);

  // Through the service: the failure lands on the job's future as an
  // execution error, and the service keeps serving afterwards.
  host.evict_idle();
  host.inject_faults({.load_delay_ms = 0.0, .fail_loads = 1});
  SampleService service(host);
  auto doomed = service.submit(SampleJob{"a", 50, 1});
  EXPECT_THROW((void)doomed.get(), std::runtime_error);
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.sample(SampleJob{"a", 50, 2}).num_rows(), 50u);
}

TEST(HostFaultInjection, LeaseStaysDeterministicAcrossEvictReloadEvict) {
  // The eviction-vs-lease race, widened with injected slow loads: a
  // sampler holds a lease on "a" while other threads force a's entry
  // through evict -> slow reload -> evict cycles. The lease must keep
  // sampling bitwise-identically throughout, and post-race acquires must
  // match too.
  TempDir dir;
  const auto path = fit_and_archive(dir, "smote");
  HostConfig cfg;
  cfg.capacity = 1;
  ModelHost host(cfg);
  host.register_archive("a", path);
  host.register_archive("b", path);

  models::SampleRequest request;
  request.rows = 120;
  request.seed = 77;
  request.chunk_rows = 32;
  request.threads = 1;
  tabular::Table direct;
  host.acquire("a")->sample_into(direct, request);
  host.evict_idle();

  host.inject_faults({.load_delay_ms = 10.0, .fail_loads = 0});
  auto lease = host.acquire("a");  // slow load, then held across the race
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    // Alternating acquires at capacity 1: every switch evicts the other
    // key and reloads it slowly.
    while (!stop.load()) {
      (void)host.acquire("b");
      (void)host.acquire("a");
    }
  });
  // Sample through the held lease until the churn thread has demonstrably
  // pushed a's entry through evict -> reload -> evict again.
  for (int i = 0; i < 200 && host.stats().evictions < 3; ++i) {
    tabular::Table via_lease;
    lease->sample_into(via_lease, request);
    expect_tables_identical(direct, via_lease);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  churn.join();
  host.inject_faults({});

  EXPECT_GE(host.stats().evictions, 2u);
  tabular::Table after;
  host.acquire("a")->sample_into(after, request);
  expect_tables_identical(direct, after);
}

}  // namespace
}  // namespace surro::serve
