// Quantile transform properties, scalers, one-hot, and the mixed encoder's
// Table ⇄ Matrix round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "preprocess/mixed_encoder.hpp"
#include "preprocess/one_hot.hpp"
#include "preprocess/quantile_transformer.hpp"
#include "preprocess/scalers.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace surro::preprocess {
namespace {

std::vector<double> lognormal_sample(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.lognormal(2.0, 1.0);
  return v;
}

// --------------------------------------------------- quantile transformer --

TEST(QuantileTransformer, OutputIsApproximatelyStandardNormal) {
  const auto data = lognormal_sample(20000, 1);
  QuantileTransformer qt(1000);
  qt.fit(data);
  const auto z = qt.transform(data);
  double mean = 0.0;
  for (const double v : z) mean += v;
  mean /= static_cast<double>(z.size());
  double var = 0.0;
  for (const double v : z) var += (v - mean) * (v - mean);
  var /= static_cast<double>(z.size());
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(QuantileTransformer, RoundTripOnTrainingRange) {
  const auto data = lognormal_sample(5000, 2);
  QuantileTransformer qt(1000);
  qt.fit(data);
  for (std::size_t i = 0; i < data.size(); i += 97) {
    const double z = qt.transform_one(data[i]);
    const double back = qt.inverse_one(z);
    EXPECT_NEAR(back, data[i], std::abs(data[i]) * 0.05 + 1e-6);
  }
}

TEST(QuantileTransformer, MonotoneTransform) {
  const auto data = lognormal_sample(2000, 3);
  QuantileTransformer qt(500);
  qt.fit(data);
  double prev = qt.transform_one(0.01);
  for (double v = 0.1; v < 100.0; v *= 1.5) {
    const double z = qt.transform_one(v);
    EXPECT_GE(z, prev - 1e-12);
    prev = z;
  }
}

TEST(QuantileTransformer, ClampsOutOfRange) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 4.0, 5.0};
  QuantileTransformer qt(10);
  qt.fit(data);
  EXPECT_TRUE(std::isfinite(qt.transform_one(-1000.0)));
  EXPECT_TRUE(std::isfinite(qt.transform_one(1000.0)));
  EXPECT_LT(qt.transform_one(-1000.0), qt.transform_one(3.0));
}

TEST(QuantileTransformer, ConstantColumn) {
  const std::vector<double> data(100, 42.0);
  QuantileTransformer qt(10);
  qt.fit(data);
  const double z = qt.transform_one(42.0);
  EXPECT_TRUE(std::isfinite(z));
  EXPECT_NEAR(qt.inverse_one(0.0), 42.0, 1e-9);
}

TEST(QuantileTransformer, ThrowsOnEmptyAndUnfitted) {
  QuantileTransformer qt;
  EXPECT_THROW(qt.fit({}), std::invalid_argument);
  EXPECT_THROW((void)qt.transform_one(1.0), std::logic_error);
  EXPECT_THROW((void)qt.inverse_one(0.0), std::logic_error);
}

TEST(QuantileTransformer, InverseOfExtremeZHitsRangeEnds) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 10.0};
  QuantileTransformer qt(10);
  qt.fit(data);
  EXPECT_NEAR(qt.inverse_one(-10.0), 1.0, 1e-9);
  EXPECT_NEAR(qt.inverse_one(10.0), 10.0, 1e-9);
}

class QuantileGridSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantileGridSizes, CdfInverseConsistency) {
  const auto data = lognormal_sample(3000, 17);
  QuantileTransformer qt(GetParam());
  qt.fit(data);
  // transform then inverse must be near-identity at interior quantiles.
  std::vector<double> sorted(data);
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double v = util::quantile_sorted(sorted, q);
    EXPECT_NEAR(qt.inverse_one(qt.transform_one(v)), v,
                std::abs(v) * 0.1 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, QuantileGridSizes,
                         ::testing::Values(10, 100, 1000, 5000));

// ------------------------------------------------------------------ scalers --

TEST(StandardScaler, NormalizesMoments) {
  const auto data = lognormal_sample(10000, 4);
  StandardScaler s;
  s.fit(data);
  const auto z = s.transform(data);
  EXPECT_NEAR(util::mean(z), 0.0, 1e-9);
  EXPECT_NEAR(util::stddev(z), 1.0, 1e-6);
  EXPECT_NEAR(s.inverse_one(s.transform_one(7.7)), 7.7, 1e-9);
}

TEST(StandardScaler, ConstantColumnSafe) {
  const std::vector<double> data(10, 5.0);
  StandardScaler s;
  s.fit(data);
  EXPECT_DOUBLE_EQ(s.transform_one(5.0), 0.0);
}

TEST(MinMaxScaler, MapsToUnitInterval) {
  const std::vector<double> data = {-2.0, 0.0, 2.0};
  MinMaxScaler s;
  s.fit(data);
  EXPECT_DOUBLE_EQ(s.transform_one(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(s.transform_one(2.0), 1.0);
  EXPECT_DOUBLE_EQ(s.transform_one(0.0), 0.5);
  EXPECT_DOUBLE_EQ(s.inverse_one(0.25), -1.0);
}

TEST(MinMaxScaler, ConstantColumnMapsToHalf) {
  const std::vector<double> data(5, 3.0);
  MinMaxScaler s;
  s.fit(data);
  EXPECT_DOUBLE_EQ(s.transform_one(3.0), 0.5);
}

TEST(Scalers, ThrowOnEmpty) {
  StandardScaler a;
  MinMaxScaler b;
  EXPECT_THROW(a.fit({}), std::invalid_argument);
  EXPECT_THROW(b.fit({}), std::invalid_argument);
}

// ------------------------------------------------------------------ one-hot --

TEST(OneHot, EncodeDecode) {
  OneHotEncoder enc(4);
  std::vector<float> buf(4, -1.0f);
  enc.encode_into(2, buf);
  EXPECT_FLOAT_EQ(buf[2], 1.0f);
  EXPECT_FLOAT_EQ(buf[0], 0.0f);
  EXPECT_EQ(enc.decode(buf), 2);
}

TEST(OneHot, EncodeWithOffset) {
  OneHotEncoder enc(3);
  std::vector<float> buf(6, 9.0f);
  enc.encode_into(1, buf, 3);
  EXPECT_FLOAT_EQ(buf[4], 1.0f);
  EXPECT_FLOAT_EQ(buf[3], 0.0f);
  EXPECT_FLOAT_EQ(buf[0], 9.0f);  // untouched before offset
}

TEST(OneHot, EncodeColumnMatrix) {
  OneHotEncoder enc(3);
  const std::vector<std::int32_t> codes = {0, 2, 1};
  const auto m = enc.encode_column(codes);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.0f);
  EXPECT_FLOAT_EQ(m(2, 1), 1.0f);
}

TEST(OneHot, Errors) {
  EXPECT_THROW(OneHotEncoder(0), std::invalid_argument);
  OneHotEncoder enc(2);
  std::vector<float> buf(2);
  EXPECT_THROW(enc.encode_into(5, buf), std::out_of_range);
  const std::vector<float> wrong(3);
  EXPECT_THROW((void)enc.decode(wrong), std::invalid_argument);
}

// ------------------------------------------------------------ mixed encoder --

tabular::Table mixed_table(std::size_t n, std::uint64_t seed) {
  tabular::Schema schema({{"v", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"w", tabular::ColumnKind::kNumerical},
                          {"type", tabular::ColumnKind::kCategorical}});
  tabular::Table t(schema);
  util::Rng rng(seed);
  static constexpr const char* kSites[] = {"BNL", "CERN", "RAL"};
  static constexpr const char* kTypes[] = {"PHYS", "LITE"};
  for (std::size_t i = 0; i < n; ++i) {
    auto row = t.make_row();
    row.set(0, rng.lognormal(1.0, 0.5));
    row.set(1, std::string(kSites[rng.uniform_index(3)]));
    row.set(2, rng.normal(5.0, 2.0));
    row.set(3, std::string(kTypes[rng.uniform_index(2)]));
    t.append_row(row);
  }
  return t;
}

TEST(MixedEncoder, LayoutIsCompact) {
  const auto t = mixed_table(500, 5);
  MixedEncoder enc;
  enc.fit(t);
  EXPECT_EQ(enc.num_numerical(), 2u);
  ASSERT_EQ(enc.blocks().size(), 2u);
  EXPECT_EQ(enc.blocks()[0].offset, 2u);
  EXPECT_EQ(enc.encoded_width(),
            2u + enc.blocks()[0].cardinality + enc.blocks()[1].cardinality);
}

TEST(MixedEncoder, EncodeProducesValidOneHots) {
  const auto t = mixed_table(200, 6);
  MixedEncoder enc;
  enc.fit(t);
  const auto m = enc.encode(t);
  EXPECT_EQ(m.rows(), t.num_rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (const auto& b : enc.blocks()) {
      float sum = 0.0f;
      for (std::size_t j = 0; j < b.cardinality; ++j) {
        sum += m(r, b.offset + j);
      }
      EXPECT_FLOAT_EQ(sum, 1.0f);
    }
  }
}

TEST(MixedEncoder, RoundTripRecoversTable) {
  const auto t = mixed_table(1000, 7);
  MixedEncoder enc;
  enc.fit(t, 2000);
  const auto m = enc.encode(t);
  const auto back = enc.decode(m);
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); r += 37) {
    EXPECT_NEAR(back.numerical(0)[r], t.numerical(0)[r],
                std::abs(t.numerical(0)[r]) * 0.05 + 1e-6);
    EXPECT_EQ(back.label_at(1, r), t.label_at(1, r));
    EXPECT_EQ(back.label_at(3, r), t.label_at(3, r));
  }
}

TEST(MixedEncoder, DecodeSamplesCategoricalBlocks) {
  const auto t = mixed_table(100, 8);
  MixedEncoder enc;
  enc.fit(t);
  // A soft block: 70/30 over first two site categories.
  linalg::Matrix m(4000, enc.encoded_width(), 0.0f);
  const auto& b = enc.blocks()[0];
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m(r, b.offset + 0) = 0.7f;
    m(r, b.offset + 1) = 0.3f;
    m(r, enc.blocks()[1].offset) = 1.0f;
  }
  util::Rng rng(9);
  const auto out = enc.decode(m, &rng);
  std::size_t zero_count = 0;
  const auto codes = out.categorical(1);
  for (const auto c : codes) zero_count += c == 0;
  EXPECT_NEAR(static_cast<double>(zero_count) / 4000.0, 0.7, 0.03);
}

TEST(MixedEncoder, SchemaMismatchThrows) {
  const auto t = mixed_table(50, 10);
  MixedEncoder enc;
  enc.fit(t);
  tabular::Table other{tabular::Schema({{"q", tabular::ColumnKind::kNumerical}})};
  EXPECT_THROW(enc.encode(other), std::invalid_argument);
  linalg::Matrix wrong(3, 2);
  EXPECT_THROW(enc.decode(wrong), std::invalid_argument);
}

TEST(MixedEncoder, UnfittedThrows) {
  MixedEncoder enc;
  const auto t = mixed_table(10, 11);
  EXPECT_THROW(enc.encode(t), std::logic_error);
  linalg::Matrix m(1, 1);
  EXPECT_THROW(enc.decode(m), std::logic_error);
}

}  // namespace
}  // namespace surro::preprocess
