#pragma once
// CTABGAN+ (Zhao et al., 2024), simplified to the parts that matter for a
// 9-column mixed table: a conditional GAN with
//   * training-by-sampling — each step conditions on a (column, category)
//     pair drawn with log-frequency weighting, and the real batch is drawn
//     from rows matching the condition, which rebalances rare categories;
//   * Gumbel-softmax categorical heads on the generator (soft one-hots flow
//     to the discriminator, gradients flow back through the softmax);
//   * an auxiliary generator cross-entropy pushing the conditioned block to
//     produce the requested category;
//   * non-saturating GAN losses with one-sided label smoothing.
//
// Substitution note (DESIGN.md): the original uses WGAN-GP and CNN feature
// extractors; for a 9-column table MLPs are the faithful backbone, and the
// documented failure modes (mode amplification, weak cross-column
// correlation) are preserved.

#include "models/generator.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "preprocess/mixed_encoder.hpp"

namespace surro::models {

struct CtabganConfig {
  std::size_t noise_dim = 64;
  std::vector<std::size_t> gen_hidden = {128, 128};
  std::vector<std::size_t> disc_hidden = {128, 128};
  float gumbel_tau = 0.2f;
  float label_smoothing = 0.1f;
  float cond_loss_weight = 1.0f;
  std::size_t disc_steps_per_gen = 1;
  float grad_clip = 5.0f;
  std::size_t num_quantiles = 1000;
  TrainBudget budget;
  std::uint64_t seed = 2;
};

class CtabganPlus final : public TabularGenerator {
 public:
  explicit CtabganPlus(CtabganConfig cfg = {});

  using TabularGenerator::fit;
  void fit(const tabular::Table& train, const FitOptions& opts) override;
  using TabularGenerator::warm_fit;
  void warm_fit(const tabular::Table& delta,
                const RefreshOptions& opts) override;
  [[nodiscard]] bool warm_startable() const noexcept override {
    return fitted_ && g_opt_ != nullptr;
  }
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] tabular::Table sample_chunk(
      std::size_t n, std::uint64_t seed) const override;
  [[nodiscard]] std::string key() const override { return "ctabgan"; }
  [[nodiscard]] std::string name() const override { return "CTABGAN+"; }

  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  [[nodiscard]] float last_disc_loss() const noexcept { return last_d_; }
  [[nodiscard]] float last_gen_loss() const noexcept { return last_g_; }

 private:
  struct Condition {
    std::size_t block = 0;
    std::size_t category = 0;
  };

  /// Draw a batch of conditions (training-by-sampling).
  void draw_conditions(util::Rng& rng, std::size_t batch,
                       std::vector<Condition>& out) const;
  /// One-hot condition matrix (batch, cond_width).
  void conditions_to_matrix(const std::vector<Condition>& conds,
                            linalg::Matrix& out) const;
  /// Gumbel-softmax over each categorical block of the generator's raw
  /// output, in place; the numerical slice passes through. Shared by
  /// training and the const sampling path.
  void gumbel_heads(linalg::Matrix& logits, util::Rng& rng) const;
  /// Training generator forward: noise+cond -> soft mixed rows. Returns the
  /// head output, cached in head_out_ for generator_backward().
  const linalg::Matrix& generator_forward(const linalg::Matrix& z_cond,
                                          util::Rng& rng);
  /// Backward through the Gumbel-softmax heads into the generator body.
  void generator_backward(const linalg::Matrix& grad_soft);

  /// (Re)build the per-category row pools from `table` and fold its
  /// category counts into the cumulative totals (reset first when
  /// `accumulate` is false). The sampling-time condition distribution
  /// (category_log_freq_) follows the cumulative counts, so a warm refresh
  /// shifts it toward the stream's current mix instead of forgetting
  /// history.
  void index_training_rows(const tabular::Table& table, bool accumulate);

  /// Run `total_steps` adversarial steps against encoded rows `data` with
  /// the retained optimizers. Shared by cold fit and warm refresh.
  void train_steps(const linalg::Matrix& data, std::size_t total_steps,
                   std::size_t steps_per_epoch, const nn::LrSchedule& schedule,
                   const FitOptions& opts);

  CtabganConfig cfg_;
  bool fitted_ = false;
  preprocess::MixedEncoder encoder_;
  util::Rng rng_;
  nn::Mlp gen_;
  nn::Mlp disc_;
  std::size_t cond_width_ = 0;
  // Training-by-sampling state: per block, per category, matching row ids
  // (into the table last indexed), cumulative category counts, and the
  // log-frequency weights derived from them.
  std::vector<std::vector<std::vector<std::size_t>>> rows_by_category_;
  std::vector<std::vector<double>> category_counts_;
  std::vector<std::vector<double>> category_log_freq_;
  // Training state retained for warm_fit (absent after a state-less load).
  std::unique_ptr<nn::Adam> g_opt_;
  std::unique_ptr<nn::Adam> d_opt_;
  std::size_t opt_steps_ = 0;
  // Head caches for backward.
  linalg::Matrix head_out_;
  linalg::Matrix head_grad_;
  float last_d_ = 0.0f;
  float last_g_ = 0.0f;
};

}  // namespace surro::models
