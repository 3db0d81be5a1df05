#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/mathx.hpp"

namespace surro::util {

Histogram::Histogram(double lo, double hi, std::size_t bins, BinScale scale)
    : scale_(scale) {
  if (bins == 0) throw std::invalid_argument("histogram: zero bins");
  if (!(lo < hi)) throw std::invalid_argument("histogram: lo must be < hi");
  if (scale == BinScale::kLog10 && lo <= 0.0) {
    throw std::invalid_argument("histogram: log scale requires lo > 0");
  }
  const double tlo = scale == BinScale::kLog10 ? std::log10(lo) : lo;
  const double thi = scale == BinScale::kLog10 ? std::log10(hi) : hi;
  trans_edges_ = linspace(tlo, thi, bins + 1);
  edges_.resize(bins + 1);
  for (std::size_t i = 0; i <= bins; ++i) {
    edges_[i] = scale == BinScale::kLog10 ? std::pow(10.0, trans_edges_[i])
                                          : trans_edges_[i];
  }
  counts_.assign(bins, 0);
}

Histogram Histogram::from_data(std::span<const double> data,
                               std::size_t bins, BinScale scale) {
  if (data.empty()) return Histogram(0.0, 1.0, std::max<std::size_t>(bins, 1));
  double lo = data[0];
  double hi = data[0];
  for (const double v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (scale == BinScale::kLog10) lo = std::max(lo, 1e-12);
  if (!(lo < hi)) hi = lo + 1.0;  // constant column
  // Pad slightly so max values land inside the last bin.
  const double pad = (hi - lo) * 1e-9 + 1e-12;
  Histogram h(lo, hi + pad, bins, scale);
  h.add_all(data);
  return h;
}

void Histogram::add(double v) noexcept {
  if (scale_ == BinScale::kLog10) {
    if (v <= 0.0) v = edges_.front();
    v = std::log10(v);
    counts_[digitize(v, trans_edges_)]++;
  } else {
    counts_[digitize(v, trans_edges_)]++;
  }
  ++total_;
}

void Histogram::add_all(std::span<const double> values) noexcept {
  for (const double v : values) add(v);
}

std::vector<double> Histogram::normalized() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ == 0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return out;
}

std::vector<double> Histogram::centers() const {
  std::vector<double> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (scale_ == BinScale::kLog10) {
      out[i] = std::sqrt(edges_[i] * edges_[i + 1]);
    } else {
      out[i] = 0.5 * (edges_[i] + edges_[i + 1]);
    }
  }
  return out;
}

}  // namespace surro::util
