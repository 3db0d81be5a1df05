#pragma once
// Sequential MLP container: owns a layer stack and the inter-layer
// activation/gradient buffers, so forward/backward are allocation-free in
// steady state. This is the backbone of all three neural generative models
// (TVAE encoder/decoder, GAN generator/discriminator, TabDDPM denoiser).
// Sampling runs the const infer() over a caller-owned workspace instead, so
// one fitted network serves any number of threads at once.

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace surro::nn {

class Mlp {
 public:
  Mlp() = default;

  /// Takes ownership; layers execute in push order.
  void push(std::unique_ptr<Layer> layer);

  /// Convenience builders.
  Mlp& linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng,
              bool kaiming = true);
  Mlp& activation(Activation act, float slope = 0.2f);
  Mlp& dropout(float p, util::Rng& rng);
  Mlp& layer_norm(std::size_t dim);

  [[nodiscard]] std::size_t num_layers() const noexcept {
    return layers_.size();
  }

  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// Forward through every layer; the returned reference stays valid until
  /// the next forward call.
  const linalg::Matrix& forward(const linalg::Matrix& in, bool train);

  /// Eval-mode forward over caller-owned activations: ws[i] receives the
  /// output of layer i (resized as needed) and the returned reference is
  /// ws.back(). Caches nothing, so concurrent calls with distinct
  /// workspaces are safe; the bytes equal forward(in, false).
  linalg::Matrix& infer(const linalg::Matrix& in,
                        std::vector<linalg::Matrix>& ws) const;

  /// Backward from dL/d(output); returns dL/d(input) (valid until next call).
  const linalg::Matrix& backward(const linalg::Matrix& grad_out);

  /// All trainable parameters, in layer order.
  [[nodiscard]] std::vector<Param*> params();

  void zero_grad();

  /// Total scalar parameter count (diagnostics).
  [[nodiscard]] std::size_t num_parameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<linalg::Matrix> acts_;   // acts_[i] = output of layer i
  std::vector<linalg::Matrix> grads_;  // grads_[i] = dL/d(input of layer i)
};

/// Standard body builder: [Linear -> act] * depth with given hidden sizes,
/// then a final Linear to out_dim (no output activation).
[[nodiscard]] Mlp make_mlp(std::size_t in_dim,
                           const std::vector<std::size_t>& hidden,
                           std::size_t out_dim, Activation act,
                           util::Rng& rng, float dropout_p = 0.0f);

/// Binary persistence of the full layer stack (architecture + parameters).
void save_mlp(std::ostream& os, const Mlp& mlp);
/// Load a stack written by save_mlp. Throws std::runtime_error unless its
/// widths chain from `in_width` to `out_width`: the first Linear takes
/// `in_width`, every Linear and LayerNorm takes what the layers before it
/// produce, and the last Linear produces `out_width`.
[[nodiscard]] Mlp load_mlp(std::istream& is, std::size_t in_width,
                           std::size_t out_width);

}  // namespace surro::nn
