// String helpers, CSV round trips, stable math, and histograms.

#include <gtest/gtest.h>

#include <cmath>

#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/mathx.hpp"
#include "util/stringx.hpp"

namespace surro::util {
namespace {

// ----------------------------------------------------------------- stringx --

TEST(Stringx, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Stringx, SplitPreservesEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Stringx, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Stringx, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Stringx, SplitListTrimsAndDropsEmptyEntries) {
  EXPECT_EQ(split_list(" random, hybrid ,,least-loaded ", ','),
            (std::vector<std::string>{"random", "hybrid", "least-loaded"}));
  EXPECT_TRUE(split_list(" ; ", ';').empty());
  EXPECT_TRUE(split_list("", ',').empty());
}

TEST(Stringx, SplitKeyValueAtTheFirstEquals) {
  std::string key = "k";
  std::string value = "v";
  EXPECT_FALSE(split_key_value("no equals", key, value));
  EXPECT_EQ(key, "k");
  ASSERT_TRUE(split_key_value(" days = 10,21=x ", key, value));
  EXPECT_EQ(key, "days");
  EXPECT_EQ(value, "10,21=x");
}

TEST(Stringx, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"x"}, "."), "x");
}

TEST(Stringx, StartsEndsWith) {
  EXPECT_TRUE(starts_with("DAOD_PHYS", "DAOD"));
  EXPECT_FALSE(starts_with("AOD", "DAOD"));
  EXPECT_TRUE(ends_with("file.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", "file.csv"));
}

TEST(Stringx, ParseDouble) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(parse_double("  -1e3 ", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("12x", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Stringx, ParseInt64) {
  long long v = 0;
  EXPECT_TRUE(parse_int64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(parse_int64("4.2", v));
}

TEST(Stringx, FormatBytes) {
  EXPECT_EQ(format_bytes(512.0), "512.00 B");
  EXPECT_EQ(format_bytes(2048.0), "2.00 KB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024 * 1024), "3.50 GB");
}

// --------------------------------------------------------------------- csv --

TEST(Csv, RoundTripSimple) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"1", "x"}, {"2", "y"}};
  const auto parsed = parse_csv(to_csv(doc));
  EXPECT_EQ(parsed.header, doc.header);
  EXPECT_EQ(parsed.rows, doc.rows);
}

TEST(Csv, QuotedFieldsWithCommasAndNewlines) {
  CsvDocument doc;
  doc.header = {"name", "note"};
  doc.rows = {{"a,b", "line1\nline2"}, {"with \"quote\"", "plain"}};
  const auto parsed = parse_csv(to_csv(doc));
  EXPECT_EQ(parsed.rows, doc.rows);
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1,2,3\n"), std::runtime_error);
}

TEST(Csv, UnclosedQuoteThrows) {
  EXPECT_THROW(parse_csv("a\n\"oops\n"), std::runtime_error);
}

TEST(Csv, NoHeaderMode) {
  const auto doc = parse_csv("1,2\n3,4\n", /*has_header=*/false);
  EXPECT_EQ(doc.header.size(), 2u);
  EXPECT_EQ(doc.num_rows(), 2u);
}

TEST(Csv, ColumnIndex) {
  const auto doc = parse_csv("x,y,z\n1,2,3\n");
  EXPECT_EQ(doc.column_index("y"), 1u);
  EXPECT_EQ(doc.column_index("nope"), CsvDocument::npos);
}

TEST(Csv, CrlfLineEndings) {
  const auto doc = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(doc.num_rows(), 1u);
  EXPECT_EQ(doc.rows[0][1], "2");
}

// ------------------------------------------------------------------- mathx --

TEST(Mathx, NormalCdfSymmetry) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0) + normal_cdf(-1.0), 1.0, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
}

TEST(Mathx, NormalQuantileInvertsCdf) {
  for (const double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(Mathx, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-7);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963985, 1e-7);
}

TEST(Mathx, NormalQuantileClampsExtremes) {
  EXPECT_TRUE(std::isfinite(normal_quantile(0.0)));
  EXPECT_TRUE(std::isfinite(normal_quantile(1.0)));
  EXPECT_LT(normal_quantile(0.0), -6.0);
  EXPECT_GT(normal_quantile(1.0), 6.0);
}

TEST(Mathx, LogSumExp) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const double expected =
      std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(logsumexp(x), expected, 1e-12);
}

TEST(Mathx, LogSumExpHandlesLargeValues) {
  const std::vector<double> x = {1000.0, 1000.0};
  EXPECT_NEAR(logsumexp(x), 1000.0 + std::log(2.0), 1e-9);
}

TEST(Mathx, SoftmaxSumsToOne) {
  std::vector<double> x = {1.0, -2.0, 0.5, 100.0};
  softmax_inplace(x);
  double sum = 0.0;
  for (const double v : x) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Mathx, MeanVarianceStddev) {
  const std::vector<double> x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_NEAR(variance(x), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Mathx, QuantileSorted) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(x, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(x, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(x, 0.25), 2.0);
}

TEST(Mathx, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> neg = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Mathx, PearsonConstantColumnIsZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Mathx, Digitize) {
  const std::vector<double> edges = {0.0, 1.0, 2.0, 3.0};
  EXPECT_EQ(digitize(-5.0, edges), 0u);
  EXPECT_EQ(digitize(0.5, edges), 0u);
  EXPECT_EQ(digitize(1.5, edges), 1u);
  EXPECT_EQ(digitize(2.5, edges), 2u);
  EXPECT_EQ(digitize(99.0, edges), 2u);
}

TEST(Mathx, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Mathx, ClampFinite) {
  EXPECT_DOUBLE_EQ(clamp_finite(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp_finite(std::nan(""), 0.0, 1.0), 0.0);
}

// --------------------------------------------------------------- histogram --

TEST(Histogram, CountsAndNormalization) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  const auto mass = h.normalized();
  for (const double m : mass) EXPECT_NEAR(m, 0.1, 1e-12);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(-10.0);
  h.add(10.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, LogBinning) {
  Histogram h(1.0, 1e4, 4, BinScale::kLog10);
  h.add(5.0);     // decade [1,10)
  h.add(50.0);    // decade [10,100)
  h.add(5000.0);  // decade [1e3,1e4)
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, FromDataCoversRange) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 10.0};
  const auto h = Histogram::from_data(data, 8);
  EXPECT_EQ(h.total(), 4u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < h.num_bins(); ++i) total += h.count(i);
  EXPECT_EQ(total, 4u);
}

TEST(Histogram, ConstantDataDoesNotThrow) {
  const std::vector<double> data = {5.0, 5.0, 5.0};
  const auto h = Histogram::from_data(data, 4);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(-1.0, 1.0, 4, BinScale::kLog10),
               std::invalid_argument);
}

TEST(Histogram, CentersAreMonotone) {
  Histogram h(1.0, 1000.0, 6, BinScale::kLog10);
  const auto centers = h.centers();
  for (std::size_t i = 1; i < centers.size(); ++i) {
    EXPECT_GT(centers[i], centers[i - 1]);
  }
}

}  // namespace
}  // namespace surro::util
