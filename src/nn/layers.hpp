#pragma once
// Layers with exact manual reverse-mode gradients. Each layer caches what its
// backward pass needs during forward; backward() must be called with the same
// batch that was last forwarded (the MLP container enforces this pairing).
// infer() is the const, re-entrant eval-mode forward: it caches nothing and
// writes the same bytes as forward(in, out, false).
//
// Gradients ACCUMULATE into the parameter .grad buffers; optimizers zero them
// after each step. That makes multi-head models (e.g. the VAE's mu/logvar
// branches sharing an encoder trunk) correct without extra machinery.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "util/rng.hpp"

namespace surro::nn {

/// A trainable tensor with its gradient accumulator.
struct Param {
  linalg::Matrix value;
  linalg::Matrix grad;

  void resize(std::size_t r, std::size_t c) {
    value.resize(r, c);
    grad.resize(r, c);
  }
  void zero_grad() noexcept { grad.zero(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute out = f(in). `train` enables dropout noise etc.
  virtual void forward(const linalg::Matrix& in, linalg::Matrix& out,
                       bool train) = 0;
  /// Eval-mode out = f(in) without touching the layer (re-entrant).
  virtual void infer(const linalg::Matrix& in, linalg::Matrix& out) const = 0;
  /// Given dL/dout, accumulate parameter grads and compute dL/din.
  virtual void backward(const linalg::Matrix& grad_out,
                        linalg::Matrix& grad_in) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Binary persistence of architecture + parameters (not the forward/
  /// backward caches). load_layer() is the matching factory.
  virtual void save(std::ostream& os) const = 0;
};

/// Reconstruct a layer written by Layer::save().
[[nodiscard]] std::unique_ptr<Layer> load_layer(std::istream& is);

/// Affine: out = in·W + b.   W: (in_dim, out_dim), b: (1, out_dim).
class Linear final : public Layer {
 public:
  Linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng,
         bool kaiming = true);

  void forward(const linalg::Matrix& in, linalg::Matrix& out,
               bool train) override;
  void infer(const linalg::Matrix& in, linalg::Matrix& out) const override;
  void backward(const linalg::Matrix& grad_out,
                linalg::Matrix& grad_in) override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  [[nodiscard]] std::string name() const override { return "Linear"; }
  void save(std::ostream& os) const override;

  [[nodiscard]] std::size_t in_dim() const noexcept { return in_dim_; }
  [[nodiscard]] std::size_t out_dim() const noexcept { return out_dim_; }
  [[nodiscard]] Param& weight() noexcept { return w_; }
  [[nodiscard]] Param& bias() noexcept { return b_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Param w_;
  Param b_;
  linalg::Matrix cached_in_;
};

enum class Activation { kReLU, kLeakyReLU, kTanh, kSigmoid, kSiLU };

class ActivationLayer final : public Layer {
 public:
  explicit ActivationLayer(Activation kind, float leaky_slope = 0.2f);

  void forward(const linalg::Matrix& in, linalg::Matrix& out,
               bool train) override;
  void infer(const linalg::Matrix& in, linalg::Matrix& out) const override;
  void backward(const linalg::Matrix& grad_out,
                linalg::Matrix& grad_in) override;
  [[nodiscard]] std::string name() const override;
  void save(std::ostream& os) const override;

  [[nodiscard]] Activation kind() const noexcept { return kind_; }
  [[nodiscard]] float slope() const noexcept { return slope_; }

 private:
  Activation kind_;
  float slope_;
  linalg::Matrix cached_in_;
};

/// Inverted dropout (scales kept units by 1/(1-p) at train time; identity at
/// eval time).
class Dropout final : public Layer {
 public:
  Dropout(float p, util::Rng& rng);

  void forward(const linalg::Matrix& in, linalg::Matrix& out,
               bool train) override;
  void infer(const linalg::Matrix& in, linalg::Matrix& out) const override;
  void backward(const linalg::Matrix& grad_out,
                linalg::Matrix& grad_in) override;
  [[nodiscard]] std::string name() const override { return "Dropout"; }
  void save(std::ostream& os) const override;

  [[nodiscard]] float prob() const noexcept { return p_; }

 private:
  float p_;
  util::Rng rng_;
  linalg::Matrix mask_;
  bool last_train_ = false;
};

/// Per-row layer normalization with learnable gain/offset.
class LayerNorm final : public Layer {
 public:
  explicit LayerNorm(std::size_t dim, float eps = 1e-5f);

  void forward(const linalg::Matrix& in, linalg::Matrix& out,
               bool train) override;
  void infer(const linalg::Matrix& in, linalg::Matrix& out) const override;
  void backward(const linalg::Matrix& grad_out,
                linalg::Matrix& grad_in) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  [[nodiscard]] std::string name() const override { return "LayerNorm"; }
  void save(std::ostream& os) const override;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

 private:
  std::size_t dim_;
  float eps_;
  Param gamma_;
  Param beta_;
  linalg::Matrix cached_norm_;   // normalized activations
  std::vector<float> inv_std_;   // per-row 1/std
};

}  // namespace surro::nn
