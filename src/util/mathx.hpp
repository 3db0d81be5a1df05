#pragma once
// Numerically-stable scalar math shared by preprocessing, metrics, and the
// diffusion model: normal CDF / inverse CDF (the Gaussian quantile transform
// has no closed form in <cmath>), logsumexp, softmax, and basic summary
// statistics on spans.

#include <cstddef>
#include <span>
#include <vector>

namespace surro::util {

inline constexpr double kPi = 3.14159265358979323846;

/// Standard normal CDF via erfc (stable in both tails).
[[nodiscard]] double normal_cdf(double x) noexcept;
/// Inverse standard normal CDF (Acklam's rational approximation refined by
/// one Halley step; |error| < 1e-13 on (0,1)). Clamps p into
/// [kQuantileEps, 1-kQuantileEps] to keep transforms finite.
[[nodiscard]] double normal_quantile(double p) noexcept;

inline constexpr double kQuantileEps = 1e-10;

/// log(sum(exp(x))) without overflow.
[[nodiscard]] double logsumexp(std::span<const double> x) noexcept;

/// In-place softmax (stable).
void softmax_inplace(std::span<double> x) noexcept;

/// Mean of a span (0 for empty).
[[nodiscard]] double mean(std::span<const double> x) noexcept;
/// Unbiased sample variance (0 for n < 2).
[[nodiscard]] double variance(std::span<const double> x) noexcept;
[[nodiscard]] double stddev(std::span<const double> x) noexcept;

/// Linear-interpolated quantile of *sorted* data, q in [0,1].
[[nodiscard]] double quantile_sorted(std::span<const double> sorted,
                                     double q) noexcept;

/// Pearson correlation of two equal-length spans (0 when either is constant).
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y) noexcept;

/// Clamp helper that also squashes NaN to lo.
[[nodiscard]] double clamp_finite(double v, double lo, double hi) noexcept;

/// Digitize value into one of `edges.size()-1` bins given ascending edges;
/// values below/above the range land in the first/last bin.
[[nodiscard]] std::size_t digitize(double v,
                                   std::span<const double> edges) noexcept;

/// Evenly spaced values [lo, hi] inclusive (n >= 2).
[[nodiscard]] std::vector<double> linspace(double lo, double hi,
                                           std::size_t n);

}  // namespace surro::util
