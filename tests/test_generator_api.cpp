// Surrogate Model API v2: registry lookup/enumeration, fitted-model
// persistence (save -> load -> sample round trips), chunked parallel
// sampling equivalence, re-entrant sampling on one shared instance, fit
// progress/cancellation and the sampling stop predicate — for all four
// built-in models.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "models/generator.hpp"
#include "models/tvae.hpp"
#include "serve/replay.hpp"
#include "util/rng.hpp"

namespace surro::models {
namespace {

// Tiny mixed table with clear structure (mirrors test_models.cpp).
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

TrainBudget tiny_budget() {
  TrainBudget b;
  b.epochs = 4;
  b.batch_size = 64;
  b.learning_rate = 1e-3f;
  return b;
}

/// Bitwise table equality: schema, numerical doubles, categorical labels.
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

// ---------------------------------------------------------------- registry --

TEST(GeneratorRegistry, EnumeratesAllBuiltinModels) {
  const auto keys = GeneratorRegistry::instance().keys();
  const std::vector<std::string> expected{"ctabgan", "smote", "tabddpm",
                                          "tvae"};
  EXPECT_EQ(keys, expected);  // sorted enumeration
}

TEST(GeneratorRegistry, InfoIsComplete) {
  auto& registry = GeneratorRegistry::instance();
  for (const auto& key : registry.keys()) {
    const auto& info = registry.info(key);
    EXPECT_EQ(info.key, key);
    EXPECT_FALSE(info.display_name.empty());
    EXPECT_FALSE(info.description.empty());
    auto model = registry.create(key, tiny_budget(), 3);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->key(), key);
    EXPECT_EQ(model->name(), info.display_name);
    EXPECT_FALSE(model->fitted());
  }
}

TEST(GeneratorRegistry, UnknownKeyThrows) {
  auto& registry = GeneratorRegistry::instance();
  EXPECT_FALSE(registry.contains("copulagan"));
  EXPECT_THROW(static_cast<void>(registry.info("copulagan")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(registry.create("copulagan", tiny_budget(),
                                                 1)),
               std::invalid_argument);
  EXPECT_THROW(make_generator("", tiny_budget(), 1), std::invalid_argument);
}

TEST(GeneratorRegistry, DuplicateRegistrationThrows) {
  GeneratorInfo dup;
  dup.key = "smote";
  dup.display_name = "SMOTE2";
  dup.description = "duplicate";
  dup.factory = [](const TrainBudget&, std::uint64_t) {
    return std::unique_ptr<TabularGenerator>{};
  };
  EXPECT_THROW(GeneratorRegistry::instance().register_generator(dup),
               std::invalid_argument);
}

// ------------------------------------------------- fit options / progress --

TEST(FitOptions, ProgressReportsEveryEpoch) {
  const auto train = cluster_table(200, 11);
  TvaeConfig cfg;
  cfg.budget = tiny_budget();
  Tvae model(cfg);
  std::vector<FitProgress> seen;
  FitOptions opts;
  opts.on_progress = [&seen](const FitProgress& p) { seen.push_back(p); };
  model.fit(train, opts);
  ASSERT_EQ(seen.size(), cfg.budget.epochs);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].epoch, i + 1);
    EXPECT_EQ(seen[i].total_epochs, cfg.budget.epochs);
  }
}

TEST(FitOptions, CancellationAbortsTraining) {
  const auto train = cluster_table(200, 12);
  TvaeConfig cfg;
  cfg.budget = tiny_budget();
  Tvae model(cfg);
  std::atomic<bool> cancel{false};
  FitOptions opts;
  opts.cancel = &cancel;
  std::size_t epochs_seen = 0;
  opts.on_progress = [&](const FitProgress& p) {
    ++epochs_seen;
    if (p.epoch == 2) cancel.store(true);
  };
  EXPECT_THROW(model.fit(train, opts), FitCancelled);
  EXPECT_FALSE(model.fitted());
  EXPECT_EQ(epochs_seen, 2u);
}

// ------------------------------------------------- per-model API contract --

class AllGeneratorsV2 : public ::testing::TestWithParam<std::string> {};

TEST_P(AllGeneratorsV2, SaveLoadSampleRoundTripIsExact) {
  const auto train = cluster_table(300, 21);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const auto original = model->sample(120, 99);

  std::stringstream archive;
  save_model(*model, archive);
  auto reloaded = load_model(archive);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->key(), GetParam());
  EXPECT_TRUE(reloaded->fitted());

  const auto replayed = reloaded->sample(120, 99);
  expect_tables_identical(original, replayed);
}

TEST_P(AllGeneratorsV2, ParallelSamplingMatchesSerialBitwise) {
  const auto train = cluster_table(300, 22);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);

  SampleRequest request;
  request.rows = 500;
  request.seed = 4242;
  request.chunk_rows = 128;

  request.threads = 1;
  tabular::Table serial;
  model->sample_into(serial, request);

  request.threads = 4;
  tabular::Table parallel4;
  model->sample_into(parallel4, request);

  request.threads = 0;  // every pool worker
  tabular::Table parallel_all;
  model->sample_into(parallel_all, request);

  EXPECT_EQ(serial.num_rows(), 500u);
  expect_tables_identical(serial, parallel4);
  expect_tables_identical(serial, parallel_all);
}

TEST_P(AllGeneratorsV2, ConcurrentSampleChunkOnOneInstanceMatchesSerial) {
  // Sampling is const and re-entrant: four threads drawing chunks from one
  // fitted instance at once must each get exactly the serial bytes.
  const auto train = cluster_table(300, 25);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);
  const TabularGenerator& shared = *model;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  const auto seed_of = [](std::size_t t, std::size_t round) {
    return std::uint64_t{500 + 10 * t + round};
  };

  std::vector<std::vector<tabular::Table>> serial(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      serial[t].push_back(shared.sample_chunk(150, seed_of(t, round)));
    }
  }

  std::vector<std::vector<tabular::Table>> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t round = 0; round < kRounds; ++round) {
        concurrent[t].push_back(shared.sample_chunk(150, seed_of(t, round)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      expect_tables_identical(serial[t][round], concurrent[t][round]);
    }
  }
}

TEST_P(AllGeneratorsV2, SampleIntoReportsProgressAndAppends) {
  const auto train = cluster_table(250, 23);
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  model->fit(train);

  SampleRequest request;
  request.rows = 200;
  request.seed = 5;
  request.chunk_rows = 64;
  request.threads = 2;
  std::size_t last_done = 0;
  request.on_progress = [&](std::size_t done, std::size_t total) {
    EXPECT_LE(done, total);
    EXPECT_GT(done, last_done);
    last_done = done;
  };
  tabular::Table out;
  model->sample_into(out, request);
  EXPECT_EQ(out.num_rows(), 200u);
  EXPECT_EQ(last_done, 200u);

  // A second request appends to the same table.
  request.on_progress = nullptr;
  model->sample_into(out, request);
  EXPECT_EQ(out.num_rows(), 400u);
}

TEST(SampleInto, ThrowingProgressCallbackDoesNotWedgeThePool) {
  const auto train = cluster_table(200, 25);
  auto model = make_generator("smote", tiny_budget(), 7);
  model->fit(train);
  SampleRequest request;
  request.rows = 300;
  request.seed = 6;
  request.chunk_rows = 64;
  request.threads = 4;
  request.on_progress = [](std::size_t, std::size_t) {
    throw std::runtime_error("abort sampling");
  };
  tabular::Table out;
  EXPECT_THROW(model->sample_into(out, request), std::runtime_error);
  // The pool stays serviceable afterwards.
  request.on_progress = nullptr;
  tabular::Table retry;
  model->sample_into(retry, request);
  EXPECT_EQ(retry.num_rows(), 300u);
}

TEST(SampleInto, StopSkipsRemainingChunksAndLeavesOutputUntouched) {
  const auto train = cluster_table(200, 26);
  auto model = make_generator("smote", tiny_budget(), 7);
  model->fit(train);
  constexpr std::size_t kChunks = 24;
  for (const std::size_t threads : {1, 4}) {
    SampleRequest request;
    request.rows = kChunks * 16;
    request.seed = 8;
    request.chunk_rows = 16;
    request.threads = threads;
    std::atomic<std::size_t> ran{0};
    request.on_progress = [&](std::size_t, std::size_t) { ran.fetch_add(1); };
    request.stop = [&] { return ran.load() >= 2; };  // trips after 2 chunks
    tabular::Table out;
    EXPECT_THROW(model->sample_into(out, request), SampleStopped) << threads;
    EXPECT_EQ(out.num_columns(), 0u) << threads;
    EXPECT_EQ(out.num_rows(), 0u) << threads;
    EXPECT_LT(ran.load(), kChunks) << threads;
    if (threads == 1) EXPECT_EQ(ran.load(), 2u);
  }
}

TEST_P(AllGeneratorsV2, SaveBeforeFitThrows) {
  auto model = make_generator(GetParam(), tiny_budget(), 7);
  std::stringstream buffer;
  EXPECT_THROW(save_model(*model, buffer), std::logic_error);
  EXPECT_THROW(model->save(buffer), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Keys, AllGeneratorsV2,
                         ::testing::Values("tvae", "ctabgan", "smote",
                                           "tabddpm"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------- archive --

TEST(ModelArchive, CorruptStreamIsRejected) {
  std::stringstream garbage("not a model archive at all");
  EXPECT_THROW(load_model(garbage), std::runtime_error);
}

TEST(ModelArchive, TruncatedStreamIsRejected) {
  const auto train = cluster_table(200, 31);
  auto model = make_generator("smote", tiny_budget(), 7);
  model->fit(train);
  std::stringstream archive;
  save_model(*model, archive);
  const std::string full = archive.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), std::runtime_error);
}

// TabDDPM's payload opens with tag "DDPM", a u32 version, then the u64
// timesteps and time_embed_dim that size its schedule and the denoiser's
// input. Doctored values must be rejected at load: a wrong embedding width
// makes sampling read past the first weight matrix, and 2^64 - 1 timesteps
// wraps the schedule's size.
TEST(ModelArchive, TabDdpmShapeFieldsAreChecked) {
  const auto train = cluster_table(200, 33);
  auto model = make_generator("tabddpm", tiny_budget(), 7);
  model->fit(train);
  std::stringstream archive;
  save_model(*model, archive);
  const std::string full = archive.str();
  const std::size_t payload = full.find("DDPM");
  ASSERT_NE(payload, std::string::npos);
  const auto doctored = [&](std::size_t field_offset, std::uint64_t value) {
    std::string bytes = full;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[payload + field_offset + i] = static_cast<char>(value >> (8 * i));
    }
    return bytes;
  };
  constexpr std::size_t kTimesteps = 8;
  constexpr std::size_t kTimeEmbedDim = 16;
  for (const std::string& bad :
       {doctored(kTimeEmbedDim, 34), doctored(kTimesteps, 0),
        doctored(kTimesteps, 1), doctored(kTimesteps, ~std::uint64_t{0})}) {
    std::stringstream is(bad);
    EXPECT_THROW((void)load_model(is), std::runtime_error);
  }
  std::stringstream intact(full);
  const auto reloaded = load_model(intact);
  EXPECT_EQ(serve::hash_table(reloaded->sample(150, 5)),
            serve::hash_table(model->sample(150, 5)));
}

// A copy of `archive` whose first network repeats its first layer after its
// second: the stack still takes the model's input width and produces its
// output width, but the repeated Linear no longer takes what the layer
// before it produces.
std::string with_repeated_first_layer(const std::string& archive) {
  const std::size_t mlp = archive.find("MLP0");
  const std::size_t first = archive.find("LAYR", mlp);
  const std::size_t second = archive.find("LAYR", first + 4);
  const std::size_t third = archive.find("LAYR", second + 4);
  EXPECT_NE(third, std::string::npos);
  std::string out = archive;
  out.insert(third, archive.substr(first, second - first));
  ++out[mlp + 4];  // low byte of the little-endian u64 layer count
  return out;
}

// A copy of `archive` with the u64 `offset` bytes into the payload tagged
// `tag` set to `value`.
std::string with_field(const std::string& archive, const char* tag,
                       std::size_t offset, std::uint64_t value) {
  std::string out = archive;
  const std::size_t at = out.find(tag) + offset;
  for (std::size_t i = 0; i < 8; ++i) {
    out[at + i] = static_cast<char>(value >> (8 * i));
  }
  return out;
}

// Every neural model hands its encoder's widths to nn::load_mlp, and
// CTAB-GAN+ checks its condition width against its encoder: a doctored
// archive throws at load instead of reading past a buffer when it samples.
TEST(ModelArchive, NeuralModelShapesAreCheckedAgainstTheEncoder) {
  const auto train = cluster_table(200, 33);
  for (const std::string key : {"tvae", "ctabgan", "tabddpm"}) {
    auto model = make_generator(key, tiny_budget(), 7);
    model->fit(train);
    std::stringstream archive;
    save_model(*model, archive);
    const std::string full = archive.str();
    std::vector<std::string> doctored = {with_repeated_first_layer(full)};
    if (key == "tvae") {
      // latent_dim follows the "TVAE" tag and the u32 version.
      doctored.push_back(with_field(full, "TVAE", 8, 3));
    } else if (key == "ctabgan") {
      // cond_width follows the tag, version, noise_dim and gumbel_tau.
      const std::size_t at = full.find("CTGN") + 20;
      std::uint64_t cond_width = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        cond_width |= std::uint64_t{static_cast<unsigned char>(full[at + i])}
                      << (8 * i);
      }
      doctored.push_back(with_field(full, "CTGN", 20, cond_width + 1));
    }
    for (const std::string& bad : doctored) {
      std::stringstream is(bad);
      EXPECT_THROW((void)load_model(is), std::runtime_error) << key;
    }
    std::stringstream intact(full);
    EXPECT_EQ(serve::hash_table(load_model(intact)->sample(150, 5)),
              serve::hash_table(model->sample(150, 5)))
        << key;
  }
}

TEST(ModelArchive, PipelinePersistsFittedModel) {
  core::PipelineConfig cfg;
  cfg.experiment = eval::quick_experiment_config();
  cfg.experiment.data.model.days = 8.0;
  cfg.experiment.data.model.base_jobs_per_day = 120.0;
  cfg.model = "smote";
  core::SurrogatePipeline pipe(cfg);
  pipe.fit();

  std::stringstream archive;
  pipe.save_model(archive);

  core::SurrogatePipeline served(cfg);
  EXPECT_FALSE(served.fitted());
  served.load_model(archive);
  EXPECT_TRUE(served.fitted());
  expect_tables_identical(pipe.sample(300, 77), served.sample(300, 77));
  // Loaded pipelines can sample but have no train/test partitions.
  EXPECT_THROW(static_cast<void>(served.train_table()), std::logic_error);
}

TEST(Pipeline, ParallelSampleMatchesSerialSampleIntoBitwise) {
  core::PipelineConfig cfg;
  cfg.experiment = eval::quick_experiment_config();
  cfg.experiment.data.model.days = 8.0;
  cfg.experiment.data.model.base_jobs_per_day = 120.0;
  cfg.experiment.budget.epochs = 4;
  cfg.model = "smote";
  core::SurrogatePipeline pipe(cfg);
  pipe.fit();

  SampleRequest request;
  request.rows = 250;
  request.seed = 77;
  request.chunk_rows = 64;
  request.threads = 2;
  const auto parallel = pipe.sample(request);

  request.threads = 1;
  tabular::Table direct;
  pipe.model().sample_into(direct, request);
  expect_tables_identical(direct, parallel);

  SampleRequest bad;
  bad.rows = 10;
  bad.chunk_rows = 0;
  EXPECT_THROW((void)pipe.sample(bad), std::invalid_argument);
}

}  // namespace
}  // namespace surro::models
