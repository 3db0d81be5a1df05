#pragma once
// Histogramming for marginal-distribution figures (Fig. 4) and for the 1-D
// Wasserstein / JSD metrics. Supports linear and log10 binning because the
// PanDA byte/file-count features span many decades.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace surro::util {

enum class BinScale { kLinear, kLog10 };

class Histogram {
 public:
  /// Build `bins` equal-width bins over [lo, hi] (log-space when kLog10;
  /// then lo must be > 0). Throws std::invalid_argument on bad ranges.
  Histogram(double lo, double hi, std::size_t bins,
            BinScale scale = BinScale::kLinear);

  /// Convenience: range from the data itself (with tiny padding). Empty data
  /// yields a degenerate single-bin histogram over [0, 1].
  static Histogram from_data(std::span<const double> data, std::size_t bins,
                             BinScale scale = BinScale::kLinear);

  void add(double v) noexcept;
  void add_all(std::span<const double> values) noexcept;

  [[nodiscard]] std::size_t num_bins() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const noexcept {
    return counts_[bin];
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// Probability mass per bin (all zeros when empty).
  [[nodiscard]] std::vector<double> normalized() const;
  /// Bin centers in data space (geometric centers for log bins).
  [[nodiscard]] std::vector<double> centers() const;
  /// Bin edges in data space.
  [[nodiscard]] const std::vector<double>& edges() const noexcept {
    return edges_;
  }

 private:
  std::vector<double> edges_;        // data-space edges, ascending
  std::vector<double> trans_edges_;  // binning-space edges (log10 when log)
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  BinScale scale_;
};

}  // namespace surro::util
