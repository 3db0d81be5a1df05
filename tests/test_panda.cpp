// Nomenclature parsing, site catalog invariants, the stochastic workload
// model, the record generator, and the Fig. 3(b) filter funnel.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "panda/filters.hpp"
#include "panda/generator.hpp"
#include "panda/nomenclature.hpp"
#include "panda/site_catalog.hpp"
#include "panda/workload_model.hpp"

namespace surro::panda {
namespace {

// ----------------------------------------------------------- nomenclature --

TEST(Nomenclature, DatasetNameRoundTrip) {
  Nomenclature nom;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const DatasetName d = nom.sample(rng, 0.8);
    const auto parsed = parse_dataset_name(d.to_string());
    ASSERT_TRUE(parsed.has_value()) << d.to_string();
    EXPECT_EQ(parsed->project, d.project);
    EXPECT_EQ(parsed->prodstep, d.prodstep);
    EXPECT_EQ(parsed->datatype, d.datatype);
  }
}

TEST(Nomenclature, ParseRejectsMalformedNames) {
  EXPECT_FALSE(parse_dataset_name("unknown").has_value());
  EXPECT_FALSE(parse_dataset_name("a.b.c.d.e").has_value());
  EXPECT_FALSE(parse_dataset_name("a.b.c.d.e.f.g").has_value());
  EXPECT_FALSE(parse_dataset_name("a..c.d.e.f").has_value());
  EXPECT_FALSE(parse_dataset_name("").has_value());
}

TEST(Nomenclature, DaodBiasControlsDaodFraction) {
  Nomenclature nom;
  util::Rng rng(2);
  int daod_high = 0;
  int daod_low = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    daod_high += nom.sample(rng, 0.9).is_daod();
    daod_low += nom.sample(rng, 0.1).is_daod();
  }
  EXPECT_NEAR(daod_high / static_cast<double>(n), 0.9, 0.03);
  EXPECT_NEAR(daod_low / static_cast<double>(n), 0.1, 0.03);
}

TEST(Nomenclature, DaodPhysIsDominantDaodType) {
  Nomenclature nom;
  util::Rng rng(3);
  std::map<std::string, int> counts;
  for (int i = 0; i < 5000; ++i) {
    counts[nom.sample(rng, 1.0).datatype]++;
  }
  int max_count = 0;
  std::string top;
  for (const auto& [k, v] : counts) {
    if (v > max_count) {
      max_count = v;
      top = k;
    }
  }
  EXPECT_EQ(top, "DAOD_PHYS");
}

TEST(Nomenclature, SizeAndCpuScalesArePositive) {
  Nomenclature nom;
  for (const auto& dt : nom.daod_types()) {
    EXPECT_GT(nom.datatype_size_scale(dt), 0.0) << dt;
    EXPECT_GT(nom.datatype_cpu_scale(dt), 0.0) << dt;
  }
  EXPECT_LT(nom.datatype_size_scale("DAOD_PHYSLITE"),
            nom.datatype_size_scale("DAOD_PHYS"));
}

TEST(Nomenclature, DataProjectsUsePhysicsMainStream) {
  Nomenclature nom;
  util::Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const auto d = nom.sample(rng, 0.8);
    if (d.project.rfind("data", 0) == 0) {
      EXPECT_EQ(d.stream, "physics_Main");
    }
  }
}

// ----------------------------------------------------------- site catalog --

TEST(SiteCatalog, DefaultCatalogShape) {
  const auto catalog = SiteCatalog::make_default(96, 17);
  EXPECT_GE(catalog.size(), 120u);
  std::set<std::string> names;
  for (const auto& s : catalog.sites()) {
    EXPECT_GT(s.hs23_per_core, 0.0);
    EXPECT_GT(s.gflops_per_core, 0.0);
    EXPECT_GT(s.cores, 0u);
    names.insert(s.name);
  }
  EXPECT_EQ(names.size(), catalog.size()) << "site names must be unique";
}

TEST(SiteCatalog, BnlIsMostPopular) {
  const auto catalog = SiteCatalog::make_default();
  double max_pop = 0.0;
  std::string top;
  for (const auto& s : catalog.sites()) {
    if (s.popularity > max_pop) {
      max_pop = s.popularity;
      top = s.name;
    }
  }
  EXPECT_EQ(top, "BNL");
}

TEST(SiteCatalog, IndexOfFindsAndThrows) {
  const auto catalog = SiteCatalog::make_default();
  EXPECT_EQ(catalog.site(catalog.index_of("BNL")).name, "BNL");
  EXPECT_THROW((void)catalog.index_of("NOT-A-SITE"), std::out_of_range);
}

TEST(SiteCatalog, DeterministicForSeed) {
  const auto a = SiteCatalog::make_default(10, 5);
  const auto b = SiteCatalog::make_default(10, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.site(i).name, b.site(i).name);
    EXPECT_DOUBLE_EQ(a.site(i).hs23_per_core, b.site(i).hs23_per_core);
  }
}

TEST(SiteCatalog, ReferenceHs23InRange) {
  const auto catalog = SiteCatalog::make_default();
  const double ref = catalog.reference_hs23();
  EXPECT_GT(ref, 10.0);
  EXPECT_LT(ref, 30.0);
}

TEST(SiteCatalog, EmptyCatalogThrows) {
  EXPECT_THROW(SiteCatalog(std::vector<Site>{}), std::invalid_argument);
}

// ---------------------------------------------------------- workload model --

TEST(RateModulation, WeekendsAreQuieter) {
  WorkloadModelConfig cfg;
  // Average over full days to cancel the diurnal term.
  const auto day_avg = [&cfg](double day) {
    double acc = 0.0;
    for (int h = 0; h < 24; ++h) {
      acc += rate_modulation(cfg, day + h / 24.0);
    }
    return acc / 24.0;
  };
  EXPECT_NEAR(day_avg(1.0), 1.0, 0.02);              // weekday
  EXPECT_NEAR(day_avg(5.5), cfg.weekend_factor, 0.02);  // weekend
}

TEST(RateModulation, DiurnalCycleWithinDay) {
  WorkloadModelConfig cfg;
  const double midnight = rate_modulation(cfg, 0.0);
  const double midday = rate_modulation(cfg, 0.5);
  EXPECT_GT(midday, midnight);
}

class WorkloadModelTest : public ::testing::Test {
 protected:
  WorkloadModelTest()
      : catalog_(SiteCatalog::make_default(16, 1)),
        model_(WorkloadModelConfig{}, catalog_, nomenclature_) {}
  SiteCatalog catalog_;
  Nomenclature nomenclature_;
  WorkloadModel model_;
};

TEST_F(WorkloadModelTest, JobFieldsAreValid) {
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const RawRecord rec = model_.draw_job(rng, 3.0, nullptr);
    EXPECT_GE(rec.creation_time_days, 0.0);
    EXPECT_GE(rec.site_index, 0);
    EXPECT_LT(static_cast<std::size_t>(rec.site_index), catalog_.size());
    EXPECT_GE(rec.ninputdatafiles, 1);
    EXPECT_GT(rec.inputfilebytes, 0.0);
    EXPECT_GE(rec.cpu_seconds, 0.0);
    EXPECT_GE(rec.workload, 0.0);
    EXPECT_TRUE(rec.cores == 1 || rec.cores == 8 || rec.cores == 16);
    EXPECT_TRUE(rec.status == "finished" || rec.status == "failed" ||
                rec.status == "cancelled" || rec.status == "closed");
  }
}

TEST_F(WorkloadModelTest, WorkloadCorrelatesWithFiles) {
  util::Rng rng(6);
  std::vector<double> nfiles;
  std::vector<double> workloads;
  for (int i = 0; i < 4000; ++i) {
    const RawRecord rec = model_.draw_job(rng, 1.0, nullptr);
    if (rec.status != "finished") continue;
    nfiles.push_back(std::log(static_cast<double>(rec.ninputdatafiles)));
    workloads.push_back(std::log(rec.workload + 1.0));
  }
  // Strong positive association in the generative process.
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < nfiles.size(); ++i) {
    mx += nfiles[i];
    my += workloads[i];
  }
  mx /= static_cast<double>(nfiles.size());
  my /= static_cast<double>(nfiles.size());
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < nfiles.size(); ++i) {
    sxy += (nfiles[i] - mx) * (workloads[i] - my);
    sxx += (nfiles[i] - mx) * (nfiles[i] - mx);
    syy += (workloads[i] - my) * (workloads[i] - my);
  }
  EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.6);
}

TEST_F(WorkloadModelTest, CampaignJobsShareDataset) {
  util::Rng rng(7);
  const auto campaigns = model_.draw_campaigns(rng);
  ASSERT_FALSE(campaigns.empty());
  const Campaign& c = campaigns.front();
  const RawRecord a = model_.draw_job(rng, c.start_day, &c);
  const RawRecord b = model_.draw_job(rng, c.start_day, &c);
  const auto pa = parse_dataset_name(a.dataset_name);
  const auto pb = parse_dataset_name(b.dataset_name);
  if (pa && pb) {
    EXPECT_EQ(pa->datatype, pb->datatype);
    EXPECT_EQ(pa->project, pb->project);
  }
}

TEST_F(WorkloadModelTest, CampaignsWithinWindow) {
  util::Rng rng(8);
  const auto campaigns = model_.draw_campaigns(rng);
  for (const auto& c : campaigns) {
    EXPECT_GE(c.start_day, 0.0);
    EXPECT_LT(c.start_day, model_.config().days);
    EXPECT_GT(c.num_jobs, 0u);
    EXPECT_LE(c.num_jobs,
              static_cast<std::size_t>(model_.config().campaign_max_jobs));
  }
}

TEST_F(WorkloadModelTest, FailedJobsUseLessCpuOnAverage) {
  util::Rng rng(9);
  double finished_sum = 0.0;
  double failed_sum = 0.0;
  int finished_n = 0;
  int failed_n = 0;
  for (int i = 0; i < 20000; ++i) {
    const RawRecord rec = model_.draw_job(rng, 0.0, nullptr);
    if (rec.status == "finished") {
      finished_sum += rec.cpu_seconds;
      ++finished_n;
    } else if (rec.status == "failed") {
      failed_sum += rec.cpu_seconds;
      ++failed_n;
    }
  }
  ASSERT_GT(finished_n, 0);
  ASSERT_GT(failed_n, 0);
  EXPECT_LT(failed_sum / failed_n, finished_sum / finished_n);
}

// --------------------------------------------------------------- generator --

TEST(RecordGenerator, DeterministicForSeed) {
  GeneratorConfig cfg;
  cfg.model.days = 3.0;
  cfg.model.base_jobs_per_day = 100.0;
  cfg.model.campaigns_per_day = 0.5;
  cfg.seed = 77;
  RecordGenerator g1(cfg);
  RecordGenerator g2(cfg);
  const auto r1 = g1.generate();
  const auto r2 = g2.generate();
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(r1.size(), 50); ++i) {
    EXPECT_DOUBLE_EQ(r1[i].creation_time_days, r2[i].creation_time_days);
    EXPECT_EQ(r1[i].dataset_name, r2[i].dataset_name);
  }
}

TEST(RecordGenerator, RecordsSortedByTime) {
  GeneratorConfig cfg;
  cfg.model.days = 5.0;
  cfg.model.base_jobs_per_day = 200.0;
  RecordGenerator gen(cfg);
  const auto records = gen.generate();
  ASSERT_GT(records.size(), 100u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].creation_time_days,
              records[i].creation_time_days);
  }
}

TEST(RecordGenerator, TimesWithinWindow) {
  GeneratorConfig cfg;
  cfg.model.days = 4.0;
  cfg.model.base_jobs_per_day = 150.0;
  RecordGenerator gen(cfg);
  for (const auto& rec : gen.generate()) {
    EXPECT_GE(rec.creation_time_days, 0.0);
    EXPECT_LE(rec.creation_time_days, 4.0);
  }
}

// ----------------------------------------------------------------- filters --

TEST(Filters, SchemaMatchesPaper) {
  const auto schema = job_table_schema();
  EXPECT_EQ(schema.num_columns(), 9u);
  EXPECT_EQ(schema.numerical_indices().size(), 4u);
  EXPECT_EQ(schema.categorical_indices().size(), 5u);
  EXPECT_EQ(schema.column(0).name, "creationtime");
  EXPECT_EQ(schema.column(8).name, "workload");
}

TEST(Filters, FunnelIsMonotone) {
  GeneratorConfig cfg;
  cfg.model.days = 6.0;
  cfg.model.base_jobs_per_day = 250.0;
  RecordGenerator gen(cfg);
  const auto records = gen.generate();
  FilterFunnel funnel;
  const auto table = build_job_table(records, gen.catalog(), &funnel);
  EXPECT_EQ(funnel.gross, records.size());
  EXPECT_LE(funnel.parseable, funnel.gross);
  EXPECT_LE(funnel.daod_only, funnel.parseable);
  EXPECT_LE(funnel.complete, funnel.daod_only);
  EXPECT_EQ(funnel.complete, table.num_rows());
  EXPECT_GT(funnel.complete, 0u);
}

TEST(Filters, OnlyDaodRowsSurvive) {
  GeneratorConfig cfg;
  cfg.model.days = 4.0;
  cfg.model.base_jobs_per_day = 200.0;
  RecordGenerator gen(cfg);
  const auto table = build_job_table(gen.generate(), gen.catalog());
  const std::size_t dt_col = table.schema().index_of(features::kDataType);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(table.label_at(dt_col, r).rfind("DAOD", 0), 0u);
  }
}

TEST(Filters, StatusVocabularyIsExpected) {
  GeneratorConfig cfg;
  cfg.model.days = 4.0;
  cfg.model.base_jobs_per_day = 300.0;
  RecordGenerator gen(cfg);
  const auto table = build_job_table(gen.generate(), gen.catalog());
  const std::size_t col = table.schema().index_of(features::kJobStatus);
  EXPECT_LE(table.cardinality(col), 4u);  // the paper's four statuses
  EXPECT_TRUE(table.code_of(col, "finished").has_value());
}

TEST(Filters, FunnelDescriptionHasFourStages) {
  FilterFunnel funnel;
  funnel.gross = 100;
  funnel.parseable = 90;
  funnel.daod_only = 60;
  funnel.complete = 55;
  const auto lines = funnel.describe();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("100"), std::string::npos);
  EXPECT_NE(lines[3].find("55"), std::string::npos);
}

}  // namespace
}  // namespace surro::panda
