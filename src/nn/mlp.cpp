#include "nn/mlp.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/serialize.hpp"

namespace surro::nn {

void Mlp::push(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  acts_.emplace_back();
  grads_.emplace_back();
}

Mlp& Mlp::linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng,
                 bool kaiming) {
  push(std::make_unique<Linear>(in_dim, out_dim, rng, kaiming));
  return *this;
}
Mlp& Mlp::activation(Activation act, float slope) {
  push(std::make_unique<ActivationLayer>(act, slope));
  return *this;
}
Mlp& Mlp::dropout(float p, util::Rng& rng) {
  push(std::make_unique<Dropout>(p, rng));
  return *this;
}
Mlp& Mlp::layer_norm(std::size_t dim) {
  push(std::make_unique<LayerNorm>(dim));
  return *this;
}

const linalg::Matrix& Mlp::forward(const linalg::Matrix& in, bool train) {
  if (layers_.empty()) throw std::logic_error("mlp: empty network");
  const linalg::Matrix* cur = &in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward(*cur, acts_[i], train);
    cur = &acts_[i];
  }
  return acts_.back();
}

linalg::Matrix& Mlp::infer(const linalg::Matrix& in,
                           std::vector<linalg::Matrix>& ws) const {
  if (layers_.empty()) throw std::logic_error("mlp: empty network");
  ws.resize(layers_.size());
  const linalg::Matrix* cur = &in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->infer(*cur, ws[i]);
    cur = &ws[i];
  }
  return ws.back();
}

const linalg::Matrix& Mlp::backward(const linalg::Matrix& grad_out) {
  if (layers_.empty()) throw std::logic_error("mlp: empty network");
  const linalg::Matrix* cur = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->backward(*cur, grads_[i]);
    cur = &grads_[i];
  }
  return grads_.front();
}

std::vector<Param*> Mlp::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

void Mlp::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t Mlp::num_parameters() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

Mlp make_mlp(std::size_t in_dim, const std::vector<std::size_t>& hidden,
             std::size_t out_dim, Activation act, util::Rng& rng,
             float dropout_p) {
  Mlp mlp;
  std::size_t prev = in_dim;
  const bool kaiming =
      act == Activation::kReLU || act == Activation::kLeakyReLU ||
      act == Activation::kSiLU;
  for (const std::size_t h : hidden) {
    mlp.linear(prev, h, rng, kaiming);
    mlp.activation(act);
    if (dropout_p > 0.0f) mlp.dropout(dropout_p, rng);
    prev = h;
  }
  mlp.linear(prev, out_dim, rng, kaiming);
  return mlp;
}

void save_mlp(std::ostream& os, const Mlp& mlp) {
  util::io::write_tag(os, "MLP0");
  util::io::write_u64(os, mlp.num_layers());
  for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
    mlp.layer(i).save(os);
  }
}

Mlp load_mlp(std::istream& is, std::size_t in_width, std::size_t out_width) {
  util::io::expect_tag(is, "MLP0");
  const auto n = static_cast<std::size_t>(util::io::read_u64(is));
  // Linear::infer checks shapes only in debug builds, so a stack whose
  // widths do not chain would read past a weight matrix when it runs.
  const auto mismatch = [](std::size_t layer, std::size_t takes,
                           std::size_t width) {
    return std::runtime_error(
        "nn: layer " + std::to_string(layer) + " takes width " +
        std::to_string(takes) + " but receives " + std::to_string(width));
  };
  Mlp mlp;
  std::size_t width = in_width;
  for (std::size_t i = 0; i < n; ++i) {
    auto layer = load_layer(is);
    if (const auto* lin = dynamic_cast<const Linear*>(layer.get())) {
      if (lin->in_dim() != width) throw mismatch(i, lin->in_dim(), width);
      width = lin->out_dim();
    } else if (const auto* norm =
                   dynamic_cast<const LayerNorm*>(layer.get())) {
      if (norm->dim() != width) throw mismatch(i, norm->dim(), width);
    }
    mlp.push(std::move(layer));
  }
  if (n == 0 || width != out_width) {
    throw std::runtime_error("nn: layer stack ends at width " +
                             std::to_string(width) + ", expected " +
                             std::to_string(out_width));
  }
  return mlp;
}

}  // namespace surro::nn
