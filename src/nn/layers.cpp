#include "nn/layers.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "util/serialize.hpp"

namespace surro::nn {

namespace {
// Layer kind bytes in the serialized stream.
constexpr std::uint32_t kLinearTag = 0;
constexpr std::uint32_t kActivationTag = 1;
constexpr std::uint32_t kDropoutTag = 2;
constexpr std::uint32_t kLayerNormTag = 3;
}  // namespace

std::unique_ptr<Layer> load_layer(std::istream& is) {
  util::io::expect_tag(is, "LAYR");
  const std::uint32_t kind = util::io::read_u32(is);
  switch (kind) {
    case kLinearTag: {
      const auto in_dim = static_cast<std::size_t>(util::io::read_u64(is));
      const auto out_dim = static_cast<std::size_t>(util::io::read_u64(is));
      util::Rng dummy(0);  // weights are overwritten below
      auto layer = std::make_unique<Linear>(in_dim, out_dim, dummy);
      layer->weight().value = linalg::load_matrix(is);
      layer->bias().value = linalg::load_matrix(is);
      if (layer->weight().value.rows() != in_dim ||
          layer->weight().value.cols() != out_dim ||
          layer->bias().value.rows() != 1 ||
          layer->bias().value.cols() != out_dim) {
        throw std::runtime_error("nn: linear layer shape mismatch in stream");
      }
      return layer;
    }
    case kActivationTag: {
      const std::uint32_t raw = util::io::read_u32(is);
      if (raw > static_cast<std::uint32_t>(Activation::kSiLU)) {
        throw std::runtime_error("nn: unknown activation kind in stream");
      }
      const auto act = static_cast<Activation>(raw);
      const float slope = util::io::read_f32(is);
      return std::make_unique<ActivationLayer>(act, slope);
    }
    case kDropoutTag: {
      const float p = util::io::read_f32(is);
      util::Rng rng(util::io::read_u64(is));
      return std::make_unique<Dropout>(p, rng);
    }
    case kLayerNormTag: {
      const auto dim = static_cast<std::size_t>(util::io::read_u64(is));
      const float eps = util::io::read_f32(is);
      auto layer = std::make_unique<LayerNorm>(dim, eps);
      const auto params = layer->params();
      params[0]->value = linalg::load_matrix(is);  // gamma
      params[1]->value = linalg::load_matrix(is);  // beta
      for (const auto* p : params) {
        if (p->value.rows() != 1 || p->value.cols() != dim) {
          throw std::runtime_error(
              "nn: layer norm shape mismatch in stream");
        }
      }
      return layer;
    }
    default:
      throw std::runtime_error("nn: unknown layer kind in stream");
  }
}

// ---------------------------------------------------------------- Linear ---

Linear::Linear(std::size_t in_dim, std::size_t out_dim, util::Rng& rng,
               bool kaiming)
    : in_dim_(in_dim), out_dim_(out_dim) {
  w_.resize(in_dim, out_dim);
  b_.resize(1, out_dim);
  if (kaiming) {
    kaiming_uniform(w_.value, in_dim, rng);
  } else {
    xavier_uniform(w_.value, in_dim, out_dim, rng);
  }
  b_.value.zero();
}

void Linear::forward(const linalg::Matrix& in, linalg::Matrix& out,
                     bool /*train*/) {
  cached_in_ = in;
  infer(in, out);
}

void Linear::infer(const linalg::Matrix& in, linalg::Matrix& out) const {
  assert(in.cols() == in_dim_);
  linalg::gemm(in, w_.value, out);
  linalg::add_row_vector(out, b_.value.flat());
}

void Linear::backward(const linalg::Matrix& grad_out,
                      linalg::Matrix& grad_in) {
  assert(grad_out.cols() == out_dim_);
  assert(grad_out.rows() == cached_in_.rows());
  // dW += x^T · dy ; db += column sums of dy ; dx = dy · W^T.
  linalg::gemm_tn_acc(cached_in_, grad_out, w_.grad);
  std::vector<float> db(out_dim_, 0.0f);
  linalg::col_sums(grad_out, db);
  for (std::size_t j = 0; j < out_dim_; ++j) b_.grad(0, j) += db[j];
  linalg::gemm_nt(grad_out, w_.value, grad_in);
}

void Linear::save(std::ostream& os) const {
  util::io::write_tag(os, "LAYR");
  util::io::write_u32(os, kLinearTag);
  util::io::write_u64(os, in_dim_);
  util::io::write_u64(os, out_dim_);
  linalg::save_matrix(os, w_.value);
  linalg::save_matrix(os, b_.value);
}

// ------------------------------------------------------------ Activation ---

ActivationLayer::ActivationLayer(Activation kind, float leaky_slope)
    : kind_(kind), slope_(leaky_slope) {}

std::string ActivationLayer::name() const {
  switch (kind_) {
    case Activation::kReLU: return "ReLU";
    case Activation::kLeakyReLU: return "LeakyReLU";
    case Activation::kTanh: return "Tanh";
    case Activation::kSigmoid: return "Sigmoid";
    case Activation::kSiLU: return "SiLU";
  }
  return "?";
}

void ActivationLayer::forward(const linalg::Matrix& in, linalg::Matrix& out,
                              bool /*train*/) {
  cached_in_ = in;
  infer(in, out);
}

void ActivationLayer::infer(const linalg::Matrix& in,
                            linalg::Matrix& out) const {
  if (out.rows() != in.rows() || out.cols() != in.cols()) {
    out.resize(in.rows(), in.cols());
  }
  const float* pi = in.data();
  float* po = out.data();
  const std::size_t n = in.size();
  switch (kind_) {
    case Activation::kReLU:
      for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
      break;
    case Activation::kLeakyReLU:
      for (std::size_t i = 0; i < n; ++i) {
        po[i] = pi[i] > 0.0f ? pi[i] : slope_ * pi[i];
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) po[i] = std::tanh(pi[i]);
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        po[i] = 1.0f / (1.0f + std::exp(-pi[i]));
      }
      break;
    case Activation::kSiLU:
      for (std::size_t i = 0; i < n; ++i) {
        const float s = 1.0f / (1.0f + std::exp(-pi[i]));
        po[i] = pi[i] * s;
      }
      break;
  }
}

void ActivationLayer::backward(const linalg::Matrix& grad_out,
                               linalg::Matrix& grad_in) {
  assert(grad_out.rows() == cached_in_.rows() &&
         grad_out.cols() == cached_in_.cols());
  if (grad_in.rows() != grad_out.rows() ||
      grad_in.cols() != grad_out.cols()) {
    grad_in.resize(grad_out.rows(), grad_out.cols());
  }
  const float* px = cached_in_.data();
  const float* pg = grad_out.data();
  float* po = grad_in.data();
  const std::size_t n = cached_in_.size();
  switch (kind_) {
    case Activation::kReLU:
      for (std::size_t i = 0; i < n; ++i) {
        po[i] = px[i] > 0.0f ? pg[i] : 0.0f;
      }
      break;
    case Activation::kLeakyReLU:
      for (std::size_t i = 0; i < n; ++i) {
        po[i] = px[i] > 0.0f ? pg[i] : slope_ * pg[i];
      }
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) {
        const float t = std::tanh(px[i]);
        po[i] = pg[i] * (1.0f - t * t);
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        const float s = 1.0f / (1.0f + std::exp(-px[i]));
        po[i] = pg[i] * s * (1.0f - s);
      }
      break;
    case Activation::kSiLU:
      for (std::size_t i = 0; i < n; ++i) {
        const float s = 1.0f / (1.0f + std::exp(-px[i]));
        po[i] = pg[i] * (s + px[i] * s * (1.0f - s));
      }
      break;
  }
}

void ActivationLayer::save(std::ostream& os) const {
  util::io::write_tag(os, "LAYR");
  util::io::write_u32(os, kActivationTag);
  util::io::write_u32(os, static_cast<std::uint32_t>(kind_));
  util::io::write_f32(os, slope_);
}

// --------------------------------------------------------------- Dropout ---

Dropout::Dropout(float p, util::Rng& rng) : p_(p), rng_(rng.split()) {
  assert(p >= 0.0f && p < 1.0f);
}

void Dropout::save(std::ostream& os) const {
  // The mask RNG restarts from a fixed stream on load; dropout is identity
  // at inference time, so sampling behaviour is unaffected.
  util::io::write_tag(os, "LAYR");
  util::io::write_u32(os, kDropoutTag);
  util::io::write_f32(os, p_);
  util::io::write_u64(os, 0x0D120u);
}

void Dropout::forward(const linalg::Matrix& in, linalg::Matrix& out,
                      bool train) {
  last_train_ = train && p_ > 0.0f;
  if (!last_train_) {
    infer(in, out);
    return;
  }
  if (out.rows() != in.rows() || out.cols() != in.cols()) {
    out.resize(in.rows(), in.cols());
  }
  mask_.resize(in.rows(), in.cols());
  const float keep = 1.0f - p_;
  const float scl = 1.0f / keep;
  const float* pi = in.data();
  float* pm = mask_.data();
  float* po = out.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    const bool keep_it = rng_.uniform() >= p_;
    pm[i] = keep_it ? scl : 0.0f;
    po[i] = pi[i] * pm[i];
  }
}

void Dropout::infer(const linalg::Matrix& in, linalg::Matrix& out) const {
  out = in;
}

void Dropout::backward(const linalg::Matrix& grad_out,
                       linalg::Matrix& grad_in) {
  if (!last_train_) {
    grad_in = grad_out;
    return;
  }
  linalg::hadamard(grad_out, mask_, grad_in);
}

// ------------------------------------------------------------- LayerNorm ---

LayerNorm::LayerNorm(std::size_t dim, float eps) : dim_(dim), eps_(eps) {
  gamma_.resize(1, dim);
  gamma_.value.fill(1.0f);
  beta_.resize(1, dim);
  beta_.value.zero();
}

void LayerNorm::save(std::ostream& os) const {
  util::io::write_tag(os, "LAYR");
  util::io::write_u32(os, kLayerNormTag);
  util::io::write_u64(os, dim_);
  util::io::write_f32(os, eps_);
  linalg::save_matrix(os, gamma_.value);
  linalg::save_matrix(os, beta_.value);
}

namespace {
/// Writes (x - mean) / sqrt(var + eps) of one `dim`-wide row into `nrm` and
/// returns the row's 1/std. Shared by LayerNorm's forward and infer, so both
/// produce the same bytes.
float normalize_row(const float* x, std::size_t dim, float eps, float* nrm) {
  float mean = 0.0f;
  for (std::size_t j = 0; j < dim; ++j) mean += x[j];
  mean /= static_cast<float>(dim);
  float var = 0.0f;
  for (std::size_t j = 0; j < dim; ++j) {
    const float d = x[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(dim);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::size_t j = 0; j < dim; ++j) nrm[j] = (x[j] - mean) * inv;
  return inv;
}
}  // namespace

void LayerNorm::forward(const linalg::Matrix& in, linalg::Matrix& out,
                        bool /*train*/) {
  assert(in.cols() == dim_);
  const std::size_t rows = in.rows();
  if (out.rows() != rows || out.cols() != dim_) out.resize(rows, dim_);
  cached_norm_.resize(rows, dim_);
  inv_std_.assign(rows, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    float* nrm = cached_norm_.data() + r * dim_;
    inv_std_[r] = normalize_row(in.data() + r * dim_, dim_, eps_, nrm);
    float* o = out.data() + r * dim_;
    for (std::size_t j = 0; j < dim_; ++j) {
      o[j] = nrm[j] * gamma_.value(0, j) + beta_.value(0, j);
    }
  }
}

void LayerNorm::infer(const linalg::Matrix& in, linalg::Matrix& out) const {
  assert(in.cols() == dim_);
  const std::size_t rows = in.rows();
  if (out.rows() != rows || out.cols() != dim_) out.resize(rows, dim_);
  for (std::size_t r = 0; r < rows; ++r) {
    float* o = out.data() + r * dim_;
    (void)normalize_row(in.data() + r * dim_, dim_, eps_, o);
    for (std::size_t j = 0; j < dim_; ++j) {
      o[j] = o[j] * gamma_.value(0, j) + beta_.value(0, j);
    }
  }
}

void LayerNorm::backward(const linalg::Matrix& grad_out,
                         linalg::Matrix& grad_in) {
  const std::size_t rows = grad_out.rows();
  assert(grad_out.cols() == dim_ && cached_norm_.rows() == rows);
  if (grad_in.rows() != rows || grad_in.cols() != dim_) {
    grad_in.resize(rows, dim_);
  }
  const auto dimf = static_cast<float>(dim_);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* dy = grad_out.data() + r * dim_;
    const float* nrm = cached_norm_.data() + r * dim_;
    float* dx = grad_in.data() + r * dim_;
    // dL/dnorm_j = dy_j * gamma_j; accumulate gamma/beta grads.
    float sum_dn = 0.0f;
    float sum_dn_nrm = 0.0f;
    for (std::size_t j = 0; j < dim_; ++j) {
      const float dn = dy[j] * gamma_.value(0, j);
      sum_dn += dn;
      sum_dn_nrm += dn * nrm[j];
      gamma_.grad(0, j) += dy[j] * nrm[j];
      beta_.grad(0, j) += dy[j];
    }
    const float inv = inv_std_[r];
    for (std::size_t j = 0; j < dim_; ++j) {
      const float dn = dy[j] * gamma_.value(0, j);
      dx[j] = inv * (dn - sum_dn / dimf - nrm[j] * sum_dn_nrm / dimf);
    }
  }
}

}  // namespace surro::nn
