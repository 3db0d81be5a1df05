#include "util/mathx.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace surro::util {

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double normal_quantile(double p) noexcept {
  p = std::clamp(p, kQuantileEps, 1.0 - kQuantileEps);

  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double p_low = 0.02425;

  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }

  // One Halley refinement step sharpens the tail accuracy to ~1e-13.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * kPi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double logsumexp(std::span<const double> x) noexcept {
  if (x.empty()) return -INFINITY;
  const double m = *std::max_element(x.begin(), x.end());
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (const double v : x) s += std::exp(v - m);
  return m + std::log(s);
}

void softmax_inplace(std::span<double> x) noexcept {
  if (x.empty()) return;
  const double m = *std::max_element(x.begin(), x.end());
  double s = 0.0;
  for (double& v : x) {
    v = std::exp(v - m);
    s += v;
  }
  for (double& v : x) v /= s;
}

double mean(std::span<const double> x) noexcept {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (const double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(std::span<const double> x) noexcept {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (const double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(n - 1);
}

double stddev(std::span<const double> x) noexcept {
  return std::sqrt(variance(x));
}

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  assert(!sorted.empty());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> x, std::span<const double> y) noexcept {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double clamp_finite(double v, double lo, double hi) noexcept {
  if (std::isnan(v)) return lo;
  return std::clamp(v, lo, hi);
}

std::size_t digitize(double v, std::span<const double> edges) noexcept {
  assert(edges.size() >= 2);
  const std::size_t nbins = edges.size() - 1;
  if (v <= edges.front()) return 0;
  if (v >= edges.back()) return nbins - 1;
  const auto it = std::upper_bound(edges.begin(), edges.end(), v);
  const auto idx = static_cast<std::size_t>(it - edges.begin());
  return std::min(idx - 1, nbins - 1);
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  assert(n >= 2);
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = lo + step * static_cast<double>(i);
  out.back() = hi;
  return out;
}

}  // namespace surro::util
