#pragma once
// TVAE (Xu et al., 2019): variational autoencoder for mixed-type tabular
// data. Encoder maps an encoded row to a Gaussian posterior N(mu, sigma²);
// decoder reconstructs the mixed layout (linear numericals + per-block
// categorical logits). Training minimizes reconstruction loss + beta·KL;
// synthesis decodes z ~ N(0, I).

#include "models/generator.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "preprocess/mixed_encoder.hpp"

namespace surro::models {

struct TvaeConfig {
  std::size_t latent_dim = 16;
  std::vector<std::size_t> hidden = {128, 128};
  float kl_weight = 1.0f;
  float grad_clip = 5.0f;
  std::size_t num_quantiles = 1000;
  TrainBudget budget;
  std::uint64_t seed = 1;
};

class Tvae final : public TabularGenerator {
 public:
  explicit Tvae(TvaeConfig cfg = {});

  using TabularGenerator::fit;
  void fit(const tabular::Table& train, const FitOptions& opts) override;
  using TabularGenerator::warm_fit;
  void warm_fit(const tabular::Table& delta,
                const RefreshOptions& opts) override;
  [[nodiscard]] bool warm_startable() const noexcept override {
    return fitted_ && opt_ != nullptr;
  }
  [[nodiscard]] bool fitted() const noexcept override { return fitted_; }
  [[nodiscard]] tabular::Table sample_chunk(
      std::size_t n, std::uint64_t seed) const override;
  [[nodiscard]] std::string key() const override { return "tvae"; }
  [[nodiscard]] std::string name() const override { return "TVAE"; }

  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Mean total loss of the last training epoch (diagnostics/tests).
  [[nodiscard]] float last_epoch_loss() const noexcept {
    return last_epoch_loss_;
  }

 private:
  /// Run `epochs` training epochs over encoded rows, advancing the shared
  /// optimizer clock (opt_steps_). Shared by cold fit (cosine schedule) and
  /// warm refresh (flat reduced LR).
  void train_epochs(const linalg::Matrix& data, std::size_t epochs,
                    const nn::LrSchedule& schedule, const FitOptions& opts);

  TvaeConfig cfg_;
  bool fitted_ = false;
  preprocess::MixedEncoder encoder_map_;
  util::Rng rng_;
  nn::Mlp encoder_;  // width -> ... -> 2·latent (mu | logvar)
  nn::Mlp decoder_;  // latent -> ... -> width
  // Training state retained for warm_fit (absent after a state-less load).
  std::unique_ptr<nn::Adam> opt_;
  std::size_t opt_steps_ = 0;
  float last_epoch_loss_ = 0.0f;
};

}  // namespace surro::models
