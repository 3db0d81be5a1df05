// Streaming collection-window subsystem: window/delta extraction, drift
// scenario families, warm-start model refresh for all four surrogates
// (including the cold-vs-warm cost asymmetry and thread-count determinism
// of warm-refreshed sampling), refresher stats, stream-matrix runs, and
// the JSON artifact.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "eval/experiment.hpp"
#include "panda/filters.hpp"
#include "panda/generator.hpp"
#include "stream/drift.hpp"
#include "stream/refresh.hpp"
#include "stream/stream_eval.hpp"
#include "stream/window.hpp"
#include "util/timer.hpp"

namespace surro::stream {
namespace {

// ------------------------------------------------------------- fixtures --

/// Hand-built temporal table: events at the given times, one numerical
/// feature following the time, one 3-ary categorical cycling.
tabular::Table make_temporal_table(const std::vector<double>& times) {
  tabular::Schema schema({{"creationtime", tabular::ColumnKind::kNumerical},
                          {"load", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  const char* sites[] = {"A", "B", "C"};
  for (std::size_t i = 0; i < times.size(); ++i) {
    auto row = t.make_row();
    row.set(0, times[i]);
    row.set(1, 10.0 + static_cast<double>(i));
    row.set(2, std::string(sites[i % 3]));
    t.append_row(row);
  }
  return t;
}

/// Small PanDA job table (the schema the drift families and models target).
tabular::Table make_job_table(double days = 6.0, double rate = 150.0) {
  panda::GeneratorConfig cfg;
  cfg.model.days = days;
  cfg.model.base_jobs_per_day = rate;
  cfg.model.campaigns_per_day = 0.8;
  cfg.extra_tier2_sites = 12;
  panda::RecordGenerator gen(cfg);
  return panda::build_job_table(gen.generate(), gen.catalog());
}

eval::ExperimentConfig tiny_config() {
  auto cfg = eval::quick_experiment_config();
  cfg.data.model.days = 8.0;
  cfg.data.model.base_jobs_per_day = 150.0;
  cfg.data.model.campaigns_per_day = 0.8;
  cfg.data.extra_tier2_sites = 12;
  cfg.budget.epochs = 4;
  return cfg;
}

models::TrainBudget tiny_budget() {
  models::TrainBudget budget;
  budget.epochs = 4;
  budget.batch_size = 128;
  return budget;
}

// -------------------------------------------------------- window stream --

TEST(WindowStream, TumblingWindowsPartitionTheStream) {
  const auto table = make_temporal_table({0.5, 1.5, 2.5, 3.5, 4.5, 5.5});
  WindowConfig cfg;
  cfg.window_days = 2.0;
  cfg.stride_days = 2.0;
  const WindowStream ws(table, cfg);

  ASSERT_EQ(ws.num_windows(), 3u);
  EXPECT_DOUBLE_EQ(ws.horizon_days(), 5.5);
  std::size_t total = 0;
  for (const auto& win : ws.windows()) {
    EXPECT_DOUBLE_EQ(win.t_end - win.t_begin, 2.0);
    // Tumbling: every row of the window is also a delta row.
    EXPECT_EQ(win.rows, win.delta_rows);
    total += win.rows.size();
  }
  EXPECT_EQ(total, table.num_rows());
}

TEST(WindowStream, SlidingWindowsOverlapAndDeltaIsSuffix) {
  const auto table =
      make_temporal_table({0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5});
  WindowConfig cfg;
  cfg.window_days = 4.0;
  cfg.stride_days = 2.0;
  const WindowStream ws(table, cfg);

  ASSERT_GE(ws.num_windows(), 2u);
  const auto& w0 = ws.window(0);
  EXPECT_EQ(w0.rows, w0.delta_rows);  // the first window is all-new
  for (std::size_t i = 1; i < ws.num_windows(); ++i) {
    const auto& win = ws.window(i);
    const auto& prev = ws.window(i - 1);
    ASSERT_LE(win.delta_rows.size(), win.rows.size());
    // The delta is exactly the suffix of the time-ordered row list that
    // starts where the previous window ended.
    const std::size_t start = win.rows.size() - win.delta_rows.size();
    for (std::size_t k = 0; k < win.delta_rows.size(); ++k) {
      EXPECT_EQ(win.delta_rows[k], win.rows[start + k]);
      EXPECT_GE(table.numerical(0)[win.delta_rows[k]], prev.t_end);
    }
  }
}

TEST(WindowStream, EventOnTheHorizonBoundaryStillLandsInAWindow) {
  // Day-aligned timestamps where the natural last window ends exactly on
  // the horizon: the max-time event must still be covered (regression for
  // the half-open boundary dropping it).
  const auto table = make_temporal_table({0.0, 7.0, 14.0});
  WindowConfig cfg;
  cfg.window_days = 7.0;
  cfg.stride_days = 7.0;
  const WindowStream ws(table, cfg);
  std::size_t covered = 0;
  for (const auto& win : ws.windows()) covered += win.rows.size();
  EXPECT_EQ(covered, table.num_rows());
  EXPECT_EQ(ws.windows().back().rows.size(), 1u);  // the t=14 event
}

TEST(WindowStream, MaterializePreservesSchemaAndVocabulary) {
  const auto table = make_temporal_table({0.5, 1.0, 2.5});
  WindowConfig cfg;
  cfg.window_days = 2.0;
  cfg.stride_days = 2.0;
  const WindowStream ws(table, cfg);
  const auto window = ws.materialize(ws.window(0).rows);
  EXPECT_EQ(window.num_rows(), 2u);
  EXPECT_EQ(window.schema(), table.schema());
  EXPECT_EQ(window.vocabulary(2), table.vocabulary(2));
}

TEST(WindowStream, RejectsBadConfigs) {
  const auto table = make_temporal_table({0.5});
  EXPECT_THROW(WindowStream(table, {.window_days = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(WindowStream(table, {.window_days = 1.0, .stride_days = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(WindowStream(table, {.window_days = 1.0,
                                    .stride_days = 1.0,
                                    .time_column = "no-such-column"}),
               std::out_of_range);
}

// ----------------------------------------------------------------- drift --

TEST(Drift, NamesRoundTripForEveryFamily) {
  for (const DriftKind kind : all_drift_kinds()) {
    EXPECT_EQ(parse_drift_kind(drift_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)parse_drift_kind("sideways"), std::invalid_argument);
}

TEST(Drift, SeverityRampsToIntensityAndPlateaus) {
  DriftConfig cfg;
  cfg.kind = DriftKind::kMeanShift;
  cfg.intensity = 0.4;
  cfg.full_strength_window = 4;
  EXPECT_DOUBLE_EQ(drift_severity(cfg, 0), 0.1);
  EXPECT_DOUBLE_EQ(drift_severity(cfg, 3), 0.4);
  EXPECT_DOUBLE_EQ(drift_severity(cfg, 9), 0.4);
  cfg.kind = DriftKind::kNone;
  EXPECT_DOUBLE_EQ(drift_severity(cfg, 9), 0.0);
}

TEST(Drift, NoneLeavesTheWindowUntouched) {
  const auto window = make_job_table();
  DriftConfig cfg;  // kNone
  const auto out = apply_drift(window, 3, cfg);
  EXPECT_EQ(out.affected_rows, 0u);
  ASSERT_EQ(out.table.num_rows(), window.num_rows());
  EXPECT_EQ(out.table.numerical(0)[0], window.numerical(0)[0]);
}

TEST(Drift, MeanShiftMovesFeaturesButNotTime) {
  const auto window = make_job_table();
  DriftConfig cfg;
  cfg.kind = DriftKind::kMeanShift;
  cfg.intensity = 0.5;
  cfg.full_strength_window = 1;  // full strength immediately
  const auto out = apply_drift(window, 0, cfg);
  ASSERT_EQ(out.table.num_rows(), window.num_rows());

  const auto& schema = window.schema();
  const std::size_t c_time = schema.index_of(panda::features::kCreationTime);
  const std::size_t c_load = schema.index_of(panda::features::kWorkload);
  double time_diff = 0.0;
  double load_diff = 0.0;
  for (std::size_t r = 0; r < window.num_rows(); ++r) {
    time_diff += std::abs(out.table.numerical(c_time)[r] -
                          window.numerical(c_time)[r]);
    load_diff += out.table.numerical(c_load)[r] -
                 window.numerical(c_load)[r];
  }
  EXPECT_EQ(time_diff, 0.0);   // the windowing axis never drifts
  EXPECT_GT(load_diff, 0.0);   // the workload shifted upward
}

TEST(Drift, CategoryChurnStaysInsideTheVocabulary) {
  const auto window = make_job_table();
  DriftConfig cfg;
  cfg.kind = DriftKind::kCategoryChurn;
  cfg.intensity = 0.5;
  cfg.full_strength_window = 1;
  const auto out = apply_drift(window, 2, cfg);
  EXPECT_GT(out.affected_rows, 0u);
  EXPECT_LT(out.affected_rows, window.num_rows());
  for (const std::size_t c : window.schema().categorical_indices()) {
    EXPECT_EQ(out.table.cardinality(c), window.cardinality(c));
    for (const auto code : out.table.categorical(c)) {
      ASSERT_GE(code, 0);
      ASSERT_LT(code, static_cast<std::int32_t>(window.cardinality(c)));
    }
  }
}

TEST(Drift, RateRampAppendsRows) {
  const auto window = make_job_table();
  DriftConfig cfg;
  cfg.kind = DriftKind::kRateRamp;
  cfg.intensity = 0.3;
  cfg.full_strength_window = 1;
  const auto out = apply_drift(window, 0, cfg);
  EXPECT_EQ(out.table.num_rows(), window.num_rows() + out.affected_rows);
  EXPECT_NEAR(static_cast<double>(out.affected_rows),
              0.3 * static_cast<double>(window.num_rows()), 2.0);
}

TEST(Drift, AnomalyBurstCorruptsALabeledFraction) {
  const auto window = make_job_table();
  DriftConfig cfg;
  cfg.kind = DriftKind::kAnomalyBurst;
  cfg.intensity = 0.2;
  cfg.full_strength_window = 1;
  const auto out = apply_drift(window, 0, cfg);
  EXPECT_GT(out.affected_rows, 0u);
  EXPECT_EQ(out.table.num_rows(), window.num_rows());
}

TEST(Drift, DeterministicInSeedAndWindow) {
  const auto window = make_job_table();
  DriftConfig cfg;
  cfg.kind = DriftKind::kMeanShift;
  cfg.intensity = 0.5;
  const auto a = apply_drift(window, 3, cfg);
  const auto b = apply_drift(window, 3, cfg);
  ASSERT_EQ(a.table.num_rows(), b.table.num_rows());
  for (const std::size_t c : window.schema().numerical_indices()) {
    for (std::size_t r = 0; r < a.table.num_rows(); ++r) {
      ASSERT_EQ(a.table.numerical(c)[r], b.table.numerical(c)[r]);
    }
  }
}

// ------------------------------------------------- warm-start model layer --

/// Split a table into [0, pivot) and [pivot, n) halves.
std::pair<tabular::Table, tabular::Table> split_at(const tabular::Table& t,
                                                   std::size_t pivot) {
  std::vector<std::size_t> head, tail;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    (r < pivot ? head : tail).push_back(r);
  }
  return {t.select_rows(head), t.select_rows(tail)};
}

const char* kAllModels[] = {"tvae", "ctabgan", "smote", "tabddpm"};

TEST(WarmFit, AllModelsAbsorbDeltasAndStaySampleable) {
  const auto table = make_job_table();
  const auto [base, delta] = split_at(table, table.num_rows() / 2);
  for (const std::string key : kAllModels) {
    auto model = models::make_generator(key, tiny_budget(), 7);
    EXPECT_FALSE(model->warm_startable()) << key;
    model->fit(base);
    ASSERT_TRUE(model->warm_startable()) << key;
    model->warm_fit(delta);
    EXPECT_TRUE(model->fitted()) << key;
    const auto sample = model->sample(300, 11);
    EXPECT_EQ(sample.num_rows(), 300u) << key;
    EXPECT_EQ(sample.schema(), table.schema()) << key;
  }
}

TEST(WarmFit, ThrowsBeforeFit) {
  for (const std::string key : kAllModels) {
    auto model = models::make_generator(key, tiny_budget(), 7);
    EXPECT_THROW(model->warm_fit(make_job_table()), std::logic_error) << key;
  }
}

TEST(WarmFit, EmptyDeltaIsANoOp) {
  const auto table = make_job_table();
  const auto empty = table.select_rows(std::vector<std::size_t>{});
  for (const std::string key : kAllModels) {
    auto model = models::make_generator(key, tiny_budget(), 7);
    model->fit(table);
    const auto before = model->sample(100, 5);
    model->warm_fit(empty);
    const auto after = model->sample(100, 5);
    for (const std::size_t c : table.schema().numerical_indices()) {
      for (std::size_t r = 0; r < 100; ++r) {
        ASSERT_EQ(before.numerical(c)[r], after.numerical(c)[r]) << key;
      }
    }
  }
}

TEST(WarmFit, SaveLoadRoundTripPreservesTrainingState) {
  const auto table = make_job_table();
  const auto [base, delta] = split_at(table, table.num_rows() / 2);
  for (const std::string key : kAllModels) {
    auto original = models::make_generator(key, tiny_budget(), 7);
    original->fit(base);

    std::stringstream archive;
    models::save_model(*original, archive);
    auto restored = models::load_model(archive);
    ASSERT_TRUE(restored->warm_startable()) << key;

    // Identical warm refreshes from identical checkpoints must produce
    // identical models — optimizer moments, step clock, and training RNG
    // all round-trip through the archive.
    original->warm_fit(delta);
    restored->warm_fit(delta);
    const auto a = original->sample(400, 13);
    const auto b = restored->sample(400, 13);
    for (const std::size_t c : table.schema().numerical_indices()) {
      for (std::size_t r = 0; r < 400; ++r) {
        ASSERT_EQ(a.numerical(c)[r], b.numerical(c)[r]) << key;
      }
    }
    for (const std::size_t c : table.schema().categorical_indices()) {
      for (std::size_t r = 0; r < 400; ++r) {
        ASSERT_EQ(a.categorical(c)[r], b.categorical(c)[r]) << key;
      }
    }
  }
}

TEST(WarmFit, RefusesRowsOutsideTheFittedVocabularyWithoutCorruption) {
  const auto table = make_job_table();
  const auto cats = table.schema().categorical_indices();
  // A delta whose *last* categorical block has an out-of-vocabulary code —
  // the rejection must fire before any per-block state mutated (regression
  // for half-applied deltas leaving a fitted model inconsistent).
  auto bad_delta = table.select_rows(std::vector<std::size_t>{0, 1});
  auto codes = bad_delta.categorical_mut(cats.back());
  codes[0] = static_cast<std::int32_t>(table.cardinality(cats.back()));

  for (const std::string key : {"smote", "ctabgan"}) {
    auto model = models::make_generator(key, tiny_budget(), 7);
    model->fit(table);
    const auto before = model->sample(200, 5);
    EXPECT_THROW(model->warm_fit(bad_delta), std::invalid_argument) << key;
    // The rejected refresh left the fitted state untouched.
    const auto after = model->sample(200, 5);
    for (const std::size_t c : table.schema().numerical_indices()) {
      for (std::size_t r = 0; r < 200; ++r) {
        ASSERT_EQ(before.numerical(c)[r], after.numerical(c)[r]) << key;
      }
    }
    for (const std::size_t c : cats) {
      for (std::size_t r = 0; r < 200; ++r) {
        ASSERT_EQ(before.categorical(c)[r], after.categorical(c)[r]) << key;
      }
    }
  }
}

// The acceptance contract: a warm-refreshed model samples bitwise
// identically for any thread count, exactly like a cold-fitted one.
TEST(WarmFit, WarmRefreshedSamplingIsThreadCountDeterministic) {
  const auto table = make_job_table();
  const auto [base, delta] = split_at(table, table.num_rows() / 2);
  for (const std::string key : kAllModels) {
    auto model = models::make_generator(key, tiny_budget(), 7);
    model->fit(base);
    model->warm_fit(delta);

    models::SampleRequest serial;
    serial.rows = 600;
    serial.seed = 21;
    serial.chunk_rows = 128;
    serial.threads = 1;
    models::SampleRequest parallel = serial;
    parallel.threads = 0;  // every pool worker

    tabular::Table a;
    model->sample_into(a, serial);
    tabular::Table b;
    model->sample_into(b, parallel);
    ASSERT_EQ(a.num_rows(), b.num_rows()) << key;
    for (const std::size_t c : table.schema().numerical_indices()) {
      for (std::size_t r = 0; r < a.num_rows(); ++r) {
        ASSERT_EQ(a.numerical(c)[r], b.numerical(c)[r]) << key;
      }
    }
    for (const std::size_t c : table.schema().categorical_indices()) {
      for (std::size_t r = 0; r < a.num_rows(); ++r) {
        ASSERT_EQ(a.categorical(c)[r], b.categorical(c)[r]) << key;
      }
    }
  }
}

// --------------------------------------------------------- ModelRefresher --

TEST(ModelRefresher, ColdRefitsEveryWindowWarmConsumesDeltas) {
  const auto table = make_job_table(8.0);
  WindowConfig wcfg;
  wcfg.window_days = 4.0;
  wcfg.stride_days = 4.0;
  const WindowStream ws(table, wcfg);
  ASSERT_GE(ws.num_windows(), 2u);

  for (const auto mode : {RefreshMode::kCold, RefreshMode::kWarm}) {
    RefresherConfig cfg;
    cfg.model_key = "smote";
    cfg.budget = tiny_budget();
    cfg.mode = mode;
    ModelRefresher refresher(cfg);
    for (const auto& win : ws.windows()) {
      if (win.rows.size() < 2) continue;
      const auto stats = refresher.refresh(ws.materialize(win.rows),
                                           ws.materialize(win.delta_rows),
                                           win.index);
      EXPECT_EQ(stats.mode, mode);
      if (mode == RefreshMode::kCold || win.index == 0) {
        EXPECT_TRUE(stats.cold_start);
        EXPECT_EQ(stats.trained_rows, win.rows.size());
      } else {
        EXPECT_FALSE(stats.cold_start);
        EXPECT_EQ(stats.trained_rows, win.delta_rows.size());
      }
    }
    EXPECT_TRUE(refresher.model().fitted());
  }
}

TEST(ModelRefresher, RejectsUnknownModelKey) {
  RefresherConfig cfg;
  cfg.model_key = "no-such-model";
  EXPECT_THROW(ModelRefresher{cfg}, std::invalid_argument);
}

// The acceptance contract: warm refresh is measurably faster than cold fit
// for every surrogate. Compare post-cold-start windows only (window 0 cold-
// starts in both regimes by construction).
TEST(ModelRefresher, WarmRefreshFasterThanColdFitForAllModels) {
  const auto table = make_job_table(8.0, 220.0);
  WindowConfig wcfg;
  wcfg.window_days = 4.0;
  wcfg.stride_days = 2.0;  // sliding: deltas are half a window
  const WindowStream ws(table, wcfg);

  for (const std::string key : kAllModels) {
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    for (const auto mode : {RefreshMode::kCold, RefreshMode::kWarm}) {
      RefresherConfig cfg;
      cfg.model_key = key;
      cfg.budget = tiny_budget();
      cfg.mode = mode;
      ModelRefresher refresher(cfg);
      double seconds = 0.0;
      for (const auto& win : ws.windows()) {
        if (win.rows.size() < 2) continue;
        const auto stats = refresher.refresh(ws.materialize(win.rows),
                                             ws.materialize(win.delta_rows),
                                             win.index);
        if (win.index > 0) seconds += stats.seconds;
      }
      (mode == RefreshMode::kCold ? cold_seconds : warm_seconds) = seconds;
    }
    EXPECT_LT(warm_seconds, cold_seconds)
        << key << ": warm " << warm_seconds << "s vs cold " << cold_seconds
        << "s";
  }
}

// ----------------------------------------------------------- stream matrix --

TEST(ExpandStreamScenarios, DefaultsAndDedup) {
  StreamOptions opts;
  opts.window_days = 7.0;
  // Empty axes: tumbling stride, no drift, both refresh regimes.
  const auto defaults = expand_stream_scenarios({}, opts);
  ASSERT_EQ(defaults.size(), 2u);
  EXPECT_EQ(defaults[0].stride_days, 7.0);
  EXPECT_EQ(defaults[0].drift, DriftKind::kNone);
  EXPECT_EQ(defaults[0].refresh, RefreshMode::kCold);
  EXPECT_EQ(defaults[1].refresh, RefreshMode::kWarm);

  StreamAxes axes;
  axes.stride_days = {1.0, 7.0, 1.0};
  axes.drifts = {DriftKind::kNone, DriftKind::kMeanShift, DriftKind::kNone};
  axes.refresh = {RefreshMode::kCold};
  const auto expanded = expand_stream_scenarios(axes, opts);
  EXPECT_EQ(expanded.size(), 2u * 2u * 1u);
  EXPECT_EQ(expanded.front().id, "s1_none_cold");
  EXPECT_EQ(expanded.back().id, "s7_mean_shift_cold");
}

TEST(ExpandStreamScenarios, RejectsBadValues) {
  StreamOptions opts;
  StreamAxes axes;
  axes.stride_days = {-1.0};
  EXPECT_THROW((void)expand_stream_scenarios(axes, opts),
               std::invalid_argument);
  opts.window_days = 0.0;
  EXPECT_THROW((void)expand_stream_scenarios({}, opts),
               std::invalid_argument);
}

TEST(RunStreamMatrix, CoversEveryCellAndEmitsJson) {
  auto base = tiny_config();
  StreamAxes axes;
  axes.stride_days = {4.0};
  axes.drifts = {DriftKind::kNone, DriftKind::kMeanShift};
  axes.refresh = {RefreshMode::kCold, RefreshMode::kWarm};
  axes.model_keys = {"smote"};
  StreamOptions opts;
  opts.window_days = 4.0;
  opts.synth_rows = 400;

  const auto result = run_stream_matrix(base, axes, opts);
  ASSERT_EQ(result.runs.size(), 4u);
  EXPECT_GT(result.source_rows, 100u);
  for (const auto& run : result.runs) {
    ASSERT_EQ(run.tracks.size(), 1u);
    const auto& track = run.tracks.front();
    EXPECT_EQ(track.model_key, "smote");
    ASSERT_EQ(track.windows.size(), run.num_windows);
    for (const auto& cell : track.windows) {
      if (cell.skipped) continue;
      EXPECT_GE(cell.window_rows, 2u);
      EXPECT_EQ(cell.synth_rows, 400u);
      EXPECT_TRUE(std::isfinite(cell.wd));
      EXPECT_TRUE(std::isfinite(cell.jsd));
      EXPECT_TRUE(std::isfinite(cell.diff_corr));
      EXPECT_TRUE(std::isnan(cell.dcr));  // score_dcr off
      EXPECT_GT(cell.sample_rows_per_sec, 0.0);
      if (run.scenario.drift == DriftKind::kMeanShift) {
        EXPECT_GT(cell.drift_severity, 0.0);
      } else {
        EXPECT_EQ(cell.drift_severity, 0.0);
      }
    }
    EXPECT_GT(track.total_refresh_seconds, 0.0);
  }

  const auto json = stream_to_json(base, opts, result);
  EXPECT_NE(json.find("\"kind\":\"stream_matrix\""), std::string::npos);
  for (const auto& run : result.runs) {
    EXPECT_NE(json.find("\"id\":\"" + run.scenario.id + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"refresh_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"wd\":"), std::string::npos);
  // NaN degrades to null (dcr was skipped).
  EXPECT_NE(json.find("\"dcr\":null"), std::string::npos);
}

TEST(RunStreamMatrix, ConcurrentScoringMatchesSerialBitwise) {
  auto base = tiny_config();
  base.metric_threads = 1;
  StreamAxes axes;
  axes.stride_days = {4.0};
  axes.refresh = {RefreshMode::kWarm};
  axes.model_keys = {"smote"};
  StreamOptions serial;
  serial.window_days = 4.0;
  serial.synth_rows = 300;
  serial.concurrent_scoring = false;
  StreamOptions concurrent = serial;
  concurrent.concurrent_scoring = true;

  const auto a = run_stream_matrix(base, axes, serial);
  const auto b = run_stream_matrix(base, axes, concurrent);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t s = 0; s < a.runs.size(); ++s) {
    ASSERT_EQ(a.runs[s].tracks.size(), b.runs[s].tracks.size());
    for (std::size_t t = 0; t < a.runs[s].tracks.size(); ++t) {
      const auto& ta = a.runs[s].tracks[t];
      const auto& tb = b.runs[s].tracks[t];
      ASSERT_EQ(ta.windows.size(), tb.windows.size());
      for (std::size_t w = 0; w < ta.windows.size(); ++w) {
        EXPECT_EQ(ta.windows[w].wd, tb.windows[w].wd);
        EXPECT_EQ(ta.windows[w].jsd, tb.windows[w].jsd);
        EXPECT_EQ(ta.windows[w].diff_corr, tb.windows[w].diff_corr);
      }
    }
  }
}

}  // namespace
}  // namespace surro::stream
