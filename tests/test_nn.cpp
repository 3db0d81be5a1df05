// NN engine: finite-difference gradient checks for every layer and loss,
// optimizer convergence on analytic objectives, and schedules.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/losses.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/schedule.hpp"
#include "util/rng.hpp"

namespace surro::nn {
namespace {

linalg::Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng,
                             float scale = 1.0f) {
  linalg::Matrix m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.normal()) * scale;
  return m;
}

// Scalar objective used by gradient checks: weighted sum of the outputs so
// dL/dout is a fixed matrix of weights.
float weighted_sum(const linalg::Matrix& out, const linalg::Matrix& w) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < out.size(); ++i) {
    acc += out.flat()[i] * w.flat()[i];
  }
  return acc;
}

// Central-difference check of dL/din for a layer (deterministic layers only).
void check_input_gradient(Layer& layer, const linalg::Matrix& input,
                          float tol = 2e-2f) {
  util::Rng rng(99);
  linalg::Matrix out;
  layer.forward(input, out, /*train=*/false);
  const linalg::Matrix w = random_matrix(out.rows(), out.cols(), rng);
  linalg::Matrix grad_in;
  layer.backward(w, grad_in);

  const float eps = 1e-3f;
  linalg::Matrix perturbed = input;
  linalg::Matrix out2;
  for (std::size_t i = 0; i < input.size(); i += std::max<std::size_t>(input.size() / 24, 1)) {
    const float orig = perturbed.flat()[i];
    perturbed.flat()[i] = orig + eps;
    layer.forward(perturbed, out2, false);
    const float up = weighted_sum(out2, w);
    perturbed.flat()[i] = orig - eps;
    layer.forward(perturbed, out2, false);
    const float down = weighted_sum(out2, w);
    perturbed.flat()[i] = orig;
    const float fd = (up - down) / (2.0f * eps);
    // Re-forward at the original point so the cached state matches.
    layer.forward(perturbed, out2, false);
    EXPECT_NEAR(grad_in.flat()[i], fd,
                tol * std::max(1.0f, std::abs(fd)))
        << "flat index " << i;
  }
  // Restore cache for any further use.
  layer.forward(input, out, false);
  layer.backward(w, grad_in);
}

TEST(Linear, ForwardMatchesManual) {
  util::Rng rng(1);
  Linear layer(2, 3, rng);
  layer.weight().value(0, 0) = 1.0f;
  layer.weight().value(0, 1) = 2.0f;
  layer.weight().value(0, 2) = 3.0f;
  layer.weight().value(1, 0) = -1.0f;
  layer.weight().value(1, 1) = 0.5f;
  layer.weight().value(1, 2) = 0.0f;
  layer.bias().value(0, 0) = 10.0f;
  layer.bias().value(0, 1) = 0.0f;
  layer.bias().value(0, 2) = -1.0f;
  linalg::Matrix in(1, 2);
  in(0, 0) = 2.0f;
  in(0, 1) = 4.0f;
  linalg::Matrix out;
  layer.forward(in, out, false);
  EXPECT_FLOAT_EQ(out(0, 0), 2.0f - 4.0f + 10.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 4.0f + 2.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 6.0f - 1.0f);
}

TEST(Linear, InputGradient) {
  util::Rng rng(2);
  Linear layer(5, 4, rng);
  const auto in = random_matrix(6, 5, rng);
  check_input_gradient(layer, in);
}

TEST(Linear, ParamGradients) {
  util::Rng rng(3);
  Linear layer(3, 2, rng);
  const auto in = random_matrix(4, 3, rng);
  linalg::Matrix out;
  layer.forward(in, out, false);
  const auto wgt = random_matrix(out.rows(), out.cols(), rng);
  linalg::Matrix grad_in;
  for (Param* p : layer.params()) p->zero_grad();
  layer.backward(wgt, grad_in);

  const float eps = 1e-3f;
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->value.size();
         i += std::max<std::size_t>(p->value.size() / 8, 1)) {
      const float orig = p->value.flat()[i];
      p->value.flat()[i] = orig + eps;
      layer.forward(in, out, false);
      const float up = weighted_sum(out, wgt);
      p->value.flat()[i] = orig - eps;
      layer.forward(in, out, false);
      const float down = weighted_sum(out, wgt);
      p->value.flat()[i] = orig;
      const float fd = (up - down) / (2.0f * eps);
      EXPECT_NEAR(p->grad.flat()[i], fd,
                  2e-2f * std::max(1.0f, std::abs(fd)));
    }
  }
}

class ActivationGradient : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradient, MatchesFiniteDifference) {
  util::Rng rng(4);
  ActivationLayer layer(GetParam());
  // Avoid the ReLU kink by nudging values away from zero.
  linalg::Matrix in = random_matrix(5, 7, rng);
  for (float& v : in.flat()) {
    if (std::abs(v) < 0.05f) v += 0.1f;
  }
  check_input_gradient(layer, in);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradient,
                         ::testing::Values(Activation::kReLU,
                                           Activation::kLeakyReLU,
                                           Activation::kTanh,
                                           Activation::kSigmoid,
                                           Activation::kSiLU));

TEST(ActivationLayer, ReluClampsNegative) {
  ActivationLayer relu(Activation::kReLU);
  linalg::Matrix in(1, 3);
  in(0, 0) = -1.0f;
  in(0, 1) = 0.0f;
  in(0, 2) = 2.0f;
  linalg::Matrix out;
  relu.forward(in, out, false);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 2.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(8);
  util::Rng rng(5);
  const auto in = random_matrix(4, 8, rng, 3.0f);
  linalg::Matrix out;
  ln.forward(in, out, false);
  for (std::size_t r = 0; r < out.rows(); ++r) {
    float mean = 0.0f;
    for (std::size_t j = 0; j < 8; ++j) mean += out(r, j);
    mean /= 8.0f;
    float var = 0.0f;
    for (std::size_t j = 0; j < 8; ++j) {
      var += (out(r, j) - mean) * (out(r, j) - mean);
    }
    var /= 8.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(LayerNormTest, InputGradient) {
  LayerNorm ln(6);
  util::Rng rng(6);
  const auto in = random_matrix(3, 6, rng);
  check_input_gradient(ln, in, 5e-2f);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  util::Rng rng(7);
  Dropout drop(0.5f, rng);
  const auto in = random_matrix(3, 4, rng);
  linalg::Matrix out;
  drop.forward(in, out, /*train=*/false);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out.flat()[i], in.flat()[i]);
  }
}

TEST(DropoutTest, TrainModePreservesExpectation) {
  util::Rng rng(8);
  Dropout drop(0.3f, rng);
  linalg::Matrix in(200, 50, 1.0f);
  linalg::Matrix out;
  drop.forward(in, out, /*train=*/true);
  double sum = 0.0;
  for (const float v : out.flat()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(out.size()), 1.0, 0.05);
}

TEST(MlpTest, ForwardBackwardShapes) {
  util::Rng rng(9);
  Mlp mlp = make_mlp(10, {16, 8}, 4, Activation::kReLU, rng);
  const auto in = random_matrix(5, 10, rng);
  const auto& out = mlp.forward(in, true);
  EXPECT_EQ(out.rows(), 5u);
  EXPECT_EQ(out.cols(), 4u);
  const auto grad = random_matrix(5, 4, rng);
  const auto& grad_in = mlp.backward(grad);
  EXPECT_EQ(grad_in.rows(), 5u);
  EXPECT_EQ(grad_in.cols(), 10u);
  EXPECT_GT(mlp.num_parameters(), 0u);
}

TEST(MlpTest, GradientCheckThroughStack) {
  util::Rng rng(10);
  Mlp mlp;
  mlp.linear(4, 6, rng).activation(Activation::kTanh).linear(6, 3, rng);
  const auto in = random_matrix(2, 4, rng);
  const auto& out = mlp.forward(in, false);
  const auto w = random_matrix(2, 3, rng);
  mlp.zero_grad();
  const auto& grad_in = mlp.backward(w);

  linalg::Matrix perturbed = in;
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float orig = perturbed.flat()[i];
    perturbed.flat()[i] = orig + eps;
    const float up = weighted_sum(mlp.forward(perturbed, false), w);
    perturbed.flat()[i] = orig - eps;
    const float down = weighted_sum(mlp.forward(perturbed, false), w);
    perturbed.flat()[i] = orig;
    const float fd = (up - down) / (2.0f * eps);
    EXPECT_NEAR(grad_in.flat()[i], fd, 2e-2f * std::max(1.0f, std::abs(fd)));
  }
  (void)out;
}

TEST(MlpTest, InferMatchesEvalForwardBitwise) {
  // Every layer kind and every activation: the const inference path must
  // write exactly the bytes of forward(x, false), whatever a reused
  // workspace held before.
  util::Rng rng(11);
  Mlp mlp;
  mlp.linear(6, 12, rng)
      .layer_norm(12)
      .activation(Activation::kSiLU)
      .dropout(0.3f, rng)
      .linear(12, 10, rng)
      .activation(Activation::kLeakyReLU)
      .linear(10, 8, rng)
      .activation(Activation::kTanh)
      .linear(8, 8, rng)
      .activation(Activation::kSigmoid)
      .linear(8, 5, rng)
      .activation(Activation::kReLU);
  std::vector<linalg::Matrix> ws;
  (void)mlp.infer(random_matrix(17, 6, rng), ws);  // stale, larger buffers
  (void)mlp.forward(random_matrix(3, 6, rng), /*train=*/true);  // dropout on

  const auto in = random_matrix(9, 6, rng);
  const linalg::Matrix inferred = mlp.infer(in, ws);
  const linalg::Matrix& expected = mlp.forward(in, /*train=*/false);
  ASSERT_EQ(ws.size(), mlp.num_layers());
  ASSERT_EQ(inferred.rows(), expected.rows());
  ASSERT_EQ(inferred.cols(), expected.cols());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(inferred.flat()[i], expected.flat()[i]) << "element " << i;
  }
}

TEST(MlpTest, LoadRejectsStacksWhoseWidthsDoNotChain) {
  // Release builds compile out Linear::infer's shape assert, so a stack
  // that does not chain would read past a weight matrix at inference.
  util::Rng rng(5);
  const auto reload = [](const Mlp& mlp, std::size_t in, std::size_t out) {
    std::stringstream stream;
    save_mlp(stream, mlp);
    return load_mlp(stream, in, out);
  };
  Mlp good;
  good.linear(6, 12, rng)
      .layer_norm(12)
      .activation(Activation::kSiLU)
      .linear(12, 5, rng);
  EXPECT_EQ(reload(good, 6, 5).num_layers(), 4u);
  EXPECT_THROW((void)reload(good, 7, 5), std::runtime_error);  // input
  EXPECT_THROW((void)reload(good, 6, 4), std::runtime_error);  // output

  Mlp broken;
  broken.linear(4, 8, rng).linear(5, 3, rng);
  EXPECT_THROW((void)reload(broken, 4, 3), std::runtime_error);
  Mlp bad_norm;
  bad_norm.linear(6, 12, rng).layer_norm(11);
  EXPECT_THROW((void)reload(bad_norm, 6, 12), std::runtime_error);
  EXPECT_THROW((void)reload(Mlp{}, 3, 3), std::runtime_error);  // no layers
}

// ------------------------------------------------------------------ losses --

TEST(Losses, MseValueAndGradient) {
  linalg::Matrix pred(1, 2);
  pred(0, 0) = 1.0f;
  pred(0, 1) = 3.0f;
  linalg::Matrix target(1, 2, 1.0f);
  linalg::Matrix grad;
  const float loss = mse_loss(pred, target, grad);
  EXPECT_NEAR(loss, (0.0f + 4.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(grad(0, 1), 2.0f * 2.0f / 2.0f, 1e-6f);
}

TEST(Losses, BceWithLogitsMatchesFiniteDifference) {
  util::Rng rng(11);
  linalg::Matrix logits = random_matrix(3, 2, rng);
  linalg::Matrix targets(3, 2);
  for (float& v : targets.flat()) v = rng.bernoulli(0.5) ? 1.0f : 0.0f;
  linalg::Matrix grad;
  const float base = bce_with_logits(logits, targets, grad);
  EXPECT_GT(base, 0.0f);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    linalg::Matrix tmp_grad;
    logits.flat()[i] += eps;
    const float up = bce_with_logits(logits, targets, tmp_grad);
    logits.flat()[i] -= 2 * eps;
    const float down = bce_with_logits(logits, targets, tmp_grad);
    logits.flat()[i] += eps;
    EXPECT_NEAR(grad.flat()[i], (up - down) / (2 * eps), 2e-3f);
  }
}

TEST(Losses, GaussianKlZeroAtStandardNormal) {
  linalg::Matrix mu(4, 3, 0.0f);
  linalg::Matrix logvar(4, 3, 0.0f);
  linalg::Matrix gm;
  linalg::Matrix gv;
  EXPECT_NEAR(gaussian_kl(mu, logvar, gm, gv), 0.0f, 1e-6f);
  for (const float g : gm.flat()) EXPECT_NEAR(g, 0.0f, 1e-7f);
  for (const float g : gv.flat()) EXPECT_NEAR(g, 0.0f, 1e-7f);
}

TEST(Losses, GaussianKlPositiveElsewhere) {
  linalg::Matrix mu(2, 2, 1.0f);
  linalg::Matrix logvar(2, 2, 0.5f);
  linalg::Matrix gm;
  linalg::Matrix gv;
  EXPECT_GT(gaussian_kl(mu, logvar, gm, gv), 0.0f);
}

TEST(Losses, BlockwiseSoftmaxCeGradientSumsToZero) {
  // Softmax CE gradient within each block must sum to zero per row.
  util::Rng rng(12);
  const std::vector<preprocess::CategoricalBlock> blocks = {
      {1, 2, 3}, {3, 5, 4}};
  linalg::Matrix logits = random_matrix(6, 9, rng);
  linalg::Matrix onehot(6, 9, 0.0f);
  for (std::size_t r = 0; r < 6; ++r) {
    onehot(r, 2 + rng.uniform_index(3)) = 1.0f;
    onehot(r, 5 + rng.uniform_index(4)) = 1.0f;
  }
  linalg::Matrix grad;
  const float loss = blockwise_softmax_ce(logits, onehot, blocks, 2, grad);
  EXPECT_GT(loss, 0.0f);
  for (std::size_t r = 0; r < 6; ++r) {
    for (const auto& b : blocks) {
      float sum = 0.0f;
      for (std::size_t j = 0; j < b.cardinality; ++j) {
        sum += grad(r, b.offset + j);
      }
      EXPECT_NEAR(sum, 0.0f, 1e-5f);
    }
    // Numerical slice untouched.
    EXPECT_FLOAT_EQ(grad(r, 0), 0.0f);
    EXPECT_FLOAT_EQ(grad(r, 1), 0.0f);
  }
}

TEST(Losses, GanLossesPushExpectedDirections) {
  linalg::Matrix fake(4, 1, -2.0f);  // discriminator says fake
  linalg::Matrix grad;
  const float g_loss = gan_generator_loss(fake, grad);
  EXPECT_GT(g_loss, 0.5f);
  // Generator gradient on fooled-down logits is negative (push up).
  for (const float g : grad.flat()) EXPECT_LT(g, 0.0f);

  linalg::Matrix real(4, 1, 2.0f);
  linalg::Matrix gr;
  linalg::Matrix gf;
  const float d_loss = gan_discriminator_loss(real, fake, gr, gf);
  EXPECT_LT(d_loss, 0.5f);  // discriminator already winning
}

// --------------------------------------------------------------- optimizer --

TEST(Optimizers, SgdConvergesOnQuadratic) {
  Param p;
  p.resize(1, 1);
  p.value(0, 0) = 5.0f;
  Sgd opt(0.1f, 0.9f);
  opt.add_params({&p});
  for (int i = 0; i < 200; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);  // d/dx x²
    opt.step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 1e-3f);
}

TEST(Optimizers, AdamConvergesOnQuadratic) {
  Param p;
  p.resize(2, 2);
  p.value.fill(3.0f);
  Adam opt(0.05f);
  opt.add_params({&p});
  for (int i = 0; i < 600; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      p.grad.flat()[j] = 2.0f * p.value.flat()[j];
    }
    opt.step();
  }
  for (const float v : p.value.flat()) EXPECT_NEAR(v, 0.0f, 1e-2f);
}

TEST(Optimizers, AdamWDecaysWeights) {
  Param p;
  p.resize(1, 1);
  p.value(0, 0) = 1.0f;
  AdamW opt(0.01f, /*weight_decay=*/0.5f);
  opt.add_params({&p});
  // Zero gradient: only decay acts.
  p.grad(0, 0) = 0.0f;
  opt.step();
  EXPECT_LT(p.value(0, 0), 1.0f);
}

TEST(Optimizers, StepZeroesGradients) {
  Param p;
  p.resize(1, 2);
  p.grad.fill(1.0f);
  Adam opt(0.01f);
  opt.add_params({&p});
  opt.step();
  for (const float g : p.grad.flat()) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(Optimizers, GradClipBoundsNorm) {
  Param p;
  p.resize(1, 4);
  p.grad.fill(10.0f);  // norm 20
  Sgd opt(0.1f);
  opt.add_params({&p});
  opt.clip_grad_norm(1.0f);
  float norm_sq = 0.0f;
  for (const float g : p.grad.flat()) norm_sq += g * g;
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0f, 1e-4f);
}

TEST(Optimizers, ClipNoopWhenSmall) {
  Param p;
  p.resize(1, 1);
  p.grad(0, 0) = 0.1f;
  Sgd opt(0.1f);
  opt.add_params({&p});
  opt.clip_grad_norm(1.0f);
  EXPECT_FLOAT_EQ(p.grad(0, 0), 0.1f);
}

// --------------------------------------------------------------- schedules --

TEST(Schedules, CosineEndpoints) {
  const CosineSchedule s(1.0f, 100);
  EXPECT_NEAR(s.at(0), 1.0f, 1e-6f);
  EXPECT_NEAR(s.at(50), 0.5f, 0.02f);
  EXPECT_NEAR(s.at(100), 0.0f, 1e-6f);
  EXPECT_NEAR(s.at(1000), 0.0f, 1e-6f);  // clamped past the end
}

TEST(Schedules, CosineWithWarmup) {
  const CosineSchedule s(1.0f, 100, 10);
  EXPECT_LT(s.at(0), 0.2f);
  EXPECT_NEAR(s.at(9), 1.0f, 1e-5f);
  EXPECT_NEAR(s.at(10), 1.0f, 1e-5f);
}

TEST(Schedules, CosineMinLr) {
  const CosineSchedule s(1.0f, 10, 0, 0.1f);
  EXPECT_NEAR(s.at(10), 0.1f, 1e-6f);
}

TEST(Schedules, InvalidConfigThrows) {
  EXPECT_THROW(CosineSchedule(1.0f, 0), std::invalid_argument);
  EXPECT_THROW(CosineSchedule(1.0f, 10, 10), std::invalid_argument);
}

TEST(Schedules, ConstantIsConstant) {
  const ConstantSchedule s(0.3f);
  EXPECT_FLOAT_EQ(s.at(0), 0.3f);
  EXPECT_FLOAT_EQ(s.at(999), 0.3f);
}

// -------------------------------------------------------------------- init --

TEST(Init, XavierBounds) {
  util::Rng rng(13);
  linalg::Matrix w(64, 64);
  xavier_uniform(w, 64, 64, rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (const float v : w.flat()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(Init, KaimingNonDegenerate) {
  util::Rng rng(14);
  linalg::Matrix w(32, 32);
  kaiming_uniform(w, 32, rng);
  float min_v = 1e9f;
  float max_v = -1e9f;
  for (const float v : w.flat()) {
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  EXPECT_LT(min_v, 0.0f);
  EXPECT_GT(max_v, 0.0f);
}

}  // namespace
}  // namespace surro::nn
