#include "models/tabddpm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/losses.hpp"
#include "util/logging.hpp"
#include "util/mathx.hpp"
#include "util/serialize.hpp"

namespace surro::models {

TabDdpm::TabDdpm(TabDdpmConfig cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.timesteps < 2) {
    throw std::invalid_argument("tabddpm: need at least 2 timesteps");
  }
}

void TabDdpm::embed_time(std::size_t t, linalg::Matrix& out, std::size_t row,
                         std::size_t offset) const {
  const std::size_t dim = cfg_.time_embed_dim;
  std::copy_n(time_embed_.data() + t * dim, dim,
              out.data() + row * out.cols() + offset);
}

void TabDdpm::build_schedule() {
  // Cosine ᾱ schedule (Nichol & Dhariwal), converted to per-step betas.
  const std::size_t T = cfg_.timesteps;
  alpha_bar_.resize(T + 1);
  const auto f = [](double u) {
    const double s = 0.008;
    const double v = std::cos((u + s) / (1.0 + s) * util::kPi / 2.0);
    return v * v;
  };
  for (std::size_t t = 0; t <= T; ++t) {
    alpha_bar_[t] = f(static_cast<double>(t) / static_cast<double>(T)) /
                    f(0.0);
  }
  betas_.resize(T);
  alphas_.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    const double beta =
        std::clamp(1.0 - alpha_bar_[t + 1] / alpha_bar_[t], 1e-5, 0.999);
    betas_[t] = beta;
    alphas_[t] = 1.0 - beta;
  }
  // Transformer-style sinusoidal embedding of each timestep. An odd
  // dimension leaves its last column 0.
  const std::size_t dim = cfg_.time_embed_dim;
  const std::size_t half = dim / 2;
  time_embed_.assign((T + 1) * dim, 0.0f);
  for (std::size_t t = 0; t <= T; ++t) {
    float* row = time_embed_.data() + t * dim;
    const double pos = static_cast<double>(t);
    for (std::size_t k = 0; k < half; ++k) {
      const double freq =
          std::exp(-std::log(10000.0) * static_cast<double>(k) /
                   static_cast<double>(std::max<std::size_t>(half - 1, 1)));
      row[k] = static_cast<float>(std::sin(pos * freq));
      row[half + k] = static_cast<float>(std::cos(pos * freq));
    }
  }
}

void TabDdpm::fit(const tabular::Table& train, const FitOptions& opts) {
  if (fitted_) throw std::logic_error("tabddpm: fit called twice");
  encoder_.fit(train, cfg_.num_quantiles);
  const std::size_t width = encoder_.encoded_width();
  const std::size_t in_dim = width + cfg_.time_embed_dim;

  build_schedule();

  net_ = nn::make_mlp(in_dim, cfg_.hidden, width, nn::Activation::kSiLU,
                      rng_);

  const linalg::Matrix data = encoder_.encode(train);
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);
  const std::size_t steps_per_epoch = (n + batch - 1) / batch;

  opt_ = std::make_unique<nn::AdamW>(cfg_.budget.learning_rate,
                                     /*weight_decay=*/1e-4f);
  opt_->add_params(net_.params());
  opt_steps_ = 0;
  const nn::CosineSchedule schedule(cfg_.budget.learning_rate,
                                    cfg_.budget.epochs * steps_per_epoch);
  train_epochs(data, cfg_.budget.epochs, schedule, opts);
  fitted_ = true;
}

void TabDdpm::warm_fit(const tabular::Table& delta,
                       const RefreshOptions& opts) {
  if (!fitted_) throw std::logic_error("tabddpm: warm_fit before fit");
  if (!warm_startable()) {
    throw std::logic_error("tabddpm: training state not retained");
  }
  if (delta.num_rows() == 0) return;
  const linalg::Matrix data = encoder_.encode(delta);
  const nn::ConstantSchedule schedule(cfg_.budget.learning_rate *
                                      opts.learning_rate_scale);
  train_epochs(data, opts.resolve_epochs(cfg_.budget.epochs), schedule,
               opts.fit);
}

void TabDdpm::train_epochs(const linalg::Matrix& data, std::size_t epochs,
                           const nn::LrSchedule& schedule,
                           const FitOptions& opts) {
  const std::size_t width = encoder_.encoded_width();
  const std::size_t m = encoder_.num_numerical();
  const std::size_t in_dim = width + cfg_.time_embed_dim;
  const std::size_t T = cfg_.timesteps;
  const std::size_t n = data.rows();
  const std::size_t batch = std::min<std::size_t>(cfg_.budget.batch_size, n);

  linalg::Matrix x0;
  linalg::Matrix input;
  linalg::Matrix eps;
  linalg::Matrix grad;
  std::vector<std::size_t> ts(batch);

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (opts.cancelled()) throw FitCancelled(name());
    const auto perm = rng_.permutation(n);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t off = 0; off < n; off += batch) {
      const std::size_t cur = std::min(batch, n - off);
      const std::span<const std::size_t> idx(perm.data() + off, cur);
      linalg::gather_rows(data, idx, x0);

      input.resize(cur, in_dim);
      input.zero();
      eps.resize(cur, m);
      for (std::size_t r = 0; r < cur; ++r) {
        const std::size_t t =
            static_cast<std::size_t>(rng_.uniform_index(T)) + 1;  // 1..T
        ts[r] = t;
        const double ab = alpha_bar_[t];
        const double sab = std::sqrt(ab);
        const double somb = std::sqrt(1.0 - ab);
        // Numerical forward: x_t = √ᾱ·x0 + √(1-ᾱ)·ε.
        for (std::size_t j = 0; j < m; ++j) {
          const float e = static_cast<float>(rng_.normal());
          eps(r, j) = e;
          input(r, j) = static_cast<float>(sab) * x0(r, j) +
                        static_cast<float>(somb) * e;
        }
        // Categorical forward: keep the one-hot with prob ᾱ, else uniform.
        for (const auto& b : encoder_.blocks()) {
          std::size_t cat = 0;
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            if (x0(r, b.offset + j) > 0.5f) {
              cat = j;
              break;
            }
          }
          if (!rng_.bernoulli(ab)) {
            cat = static_cast<std::size_t>(
                rng_.uniform_index(b.cardinality));
          }
          input(r, b.offset + cat) = 1.0f;
        }
        embed_time(t, input, r, width);
      }

      const linalg::Matrix& out = net_.forward(input, /*train=*/true);

      // Loss: MSE(ε̂, ε) on the numerical slice + CE(x̂0, x0) per block.
      grad.resize(cur, width);
      grad.zero();
      double loss = 0.0;
      const float inv = 1.0f / static_cast<float>(cur * std::max(m, std::size_t{1}));
      for (std::size_t r = 0; r < cur; ++r) {
        for (std::size_t j = 0; j < m; ++j) {
          const float d = out(r, j) - eps(r, j);
          loss += static_cast<double>(d) * d / (cur * std::max(m, std::size_t{1}));
          grad(r, j) = 2.0f * d * inv;
        }
      }
      // Blockwise CE on the categorical slice.
      {
        linalg::Matrix ce_grad;
        const float ce = nn::blockwise_softmax_ce(
            out, x0, encoder_.blocks(), m, ce_grad);
        loss += cfg_.categorical_loss_weight * static_cast<double>(ce);
        for (std::size_t i = 0; i < grad.size(); ++i) {
          grad.flat()[i] +=
              cfg_.categorical_loss_weight * ce_grad.flat()[i];
        }
      }

      net_.backward(grad);
      opt_->clip_grad_norm(cfg_.grad_clip);
      opt_->set_learning_rate(schedule.at(opt_steps_++));
      opt_->step();
      epoch_loss += loss;
      ++batches;
    }
    last_epoch_loss_ =
        static_cast<float>(epoch_loss / static_cast<double>(batches));
    if (cfg_.budget.log_every_epochs > 0 &&
        (epoch + 1) % cfg_.budget.log_every_epochs == 0) {
      util::log_info("tabddpm: epoch %zu/%zu loss %.4f", epoch + 1, epochs,
                     static_cast<double>(last_epoch_loss_));
    }
    if (opts.on_progress) {
      opts.on_progress({epoch + 1, epochs, last_epoch_loss_});
    }
  }
}

tabular::Table TabDdpm::sample_chunk(std::size_t n,
                                    std::uint64_t seed) const {
  if (!fitted_) throw std::logic_error("tabddpm: sample before fit");
  util::Rng rng(seed);
  const std::size_t width = encoder_.encoded_width();
  const std::size_t m = encoder_.num_numerical();
  const std::size_t T = cfg_.timesteps;
  const std::size_t chunk = 1024;

  tabular::Table out_table = encoder_.make_empty_table();
  linalg::Matrix x(chunk, width);          // current state (num + one-hot)
  linalg::Matrix input(chunk, width + cfg_.time_embed_dim);
  std::vector<linalg::Matrix> ws;  // denoiser activations
  std::vector<double> post;

  for (std::size_t off = 0; off < n; off += chunk) {
    const std::size_t cur = std::min(chunk, n - off);
    x.resize(cur, width);
    // Init: numericals ~ N(0,1); categoricals ~ uniform one-hot.
    x.zero();
    for (std::size_t r = 0; r < cur; ++r) {
      for (std::size_t j = 0; j < m; ++j) {
        x(r, j) = static_cast<float>(rng.normal());
      }
      for (const auto& b : encoder_.blocks()) {
        const std::size_t cat =
            static_cast<std::size_t>(rng.uniform_index(b.cardinality));
        x(r, b.offset + cat) = 1.0f;
      }
    }

    for (std::size_t t = T; t >= 1; --t) {
      input.resize(cur, width + cfg_.time_embed_dim);
      input.zero();
      for (std::size_t r = 0; r < cur; ++r) {
        std::copy_n(x.data() + r * width, width,
                    input.data() + r * input.cols());
        embed_time(t, input, r, width);
      }
      const linalg::Matrix& pred = net_.infer(input, ws);

      const double ab_t = alpha_bar_[t];
      const double ab_prev = alpha_bar_[t - 1];
      const double alpha_t = alphas_[t - 1];
      const double beta_t = betas_[t - 1];
      const double inv_sqrt_alpha = 1.0 / std::sqrt(alpha_t);
      const double eps_coef = beta_t / std::sqrt(1.0 - ab_t);
      const double sigma = std::sqrt(
          beta_t * (1.0 - ab_prev) / (1.0 - ab_t));

      for (std::size_t r = 0; r < cur; ++r) {
        // Gaussian ancestral step on the numerical slice.
        for (std::size_t j = 0; j < m; ++j) {
          const double mean =
              inv_sqrt_alpha *
              (static_cast<double>(x(r, j)) -
               eps_coef * static_cast<double>(pred(r, j)));
          const double noise = t > 1 ? rng.normal() * sigma : 0.0;
          x(r, j) = static_cast<float>(mean + noise);
        }
        // Multinomial posterior step per categorical block.
        for (const auto& b : encoder_.blocks()) {
          const std::size_t K = b.cardinality;
          // Current one-hot category of x_t.
          std::size_t cur_cat = 0;
          for (std::size_t j = 0; j < K; ++j) {
            if (x(r, b.offset + j) > 0.5f) {
              cur_cat = j;
              break;
            }
          }
          // x̂0 probabilities from predicted logits (stable softmax).
          post.assign(K, 0.0);
          float peak = pred(r, b.offset);
          for (std::size_t j = 1; j < K; ++j) {
            peak = std::max(peak, pred(r, b.offset + j));
          }
          double denom = 0.0;
          for (std::size_t j = 0; j < K; ++j) {
            post[j] = std::exp(
                static_cast<double>(pred(r, b.offset + j) - peak));
            denom += post[j];
          }
          const double unif = 1.0 / static_cast<double>(K);
          double norm = 0.0;
          for (std::size_t j = 0; j < K; ++j) {
            const double x0_prob = post[j] / denom;
            const double like =
                (j == cur_cat ? alpha_t : 0.0) + (1.0 - alpha_t) * unif;
            const double prior = ab_prev * x0_prob + (1.0 - ab_prev) * unif;
            post[j] = like * prior;
            norm += post[j];
          }
          std::size_t next_cat = cur_cat;
          if (norm > 0.0) {
            next_cat = rng.categorical(post);
          }
          for (std::size_t j = 0; j < K; ++j) {
            x(r, b.offset + j) = j == next_cat ? 1.0f : 0.0f;
          }
        }
      }
    }
    // x now holds x_0 estimates: numericals in quantile space, categoricals
    // as one-hots — decode with argmax (already hard).
    out_table.append_table(encoder_.decode(x, nullptr));
  }
  return out_table;
}

std::vector<double> TabDdpm::anomaly_scores(const tabular::Table& rows,
                                            std::size_t probes,
                                            std::size_t draws,
                                            std::uint64_t seed) const {
  if (!fitted_) throw std::logic_error("tabddpm: anomaly_scores before fit");
  if (probes == 0 || draws == 0) {
    throw std::invalid_argument("tabddpm: probes/draws must be positive");
  }
  util::Rng rng(seed);
  const linalg::Matrix x0 = encoder_.encode(rows);
  const std::size_t n = x0.rows();
  const std::size_t width = encoder_.encoded_width();
  const std::size_t m = encoder_.num_numerical();
  const std::size_t T = cfg_.timesteps;

  std::vector<double> scores(n, 0.0);
  linalg::Matrix input(n, width + cfg_.time_embed_dim);
  linalg::Matrix eps(n, m);
  std::vector<linalg::Matrix> ws;  // denoiser activations

  // Probe at evenly spaced mid-range timesteps: very small t is trivial to
  // denoise, very large t destroys all signal; the informative band is the
  // middle of the chain.
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t t =
        1 + (T - 1) * (p + 1) / (probes + 1);
    const double ab = alpha_bar_[t];
    const double sab = std::sqrt(ab);
    const double somb = std::sqrt(1.0 - ab);
    for (std::size_t d = 0; d < draws; ++d) {
      input.zero();
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t j = 0; j < m; ++j) {
          const float e = static_cast<float>(rng.normal());
          eps(r, j) = e;
          input(r, j) = static_cast<float>(sab) * x0(r, j) +
                        static_cast<float>(somb) * e;
        }
        for (const auto& b : encoder_.blocks()) {
          std::size_t cat = 0;
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            if (x0(r, b.offset + j) > 0.5f) {
              cat = j;
              break;
            }
          }
          if (!rng.bernoulli(ab)) {
            cat = static_cast<std::size_t>(
                rng.uniform_index(b.cardinality));
          }
          input(r, b.offset + cat) = 1.0f;
        }
        embed_time(t, input, r, width);
      }
      const linalg::Matrix& pred = net_.infer(input, ws);
      for (std::size_t r = 0; r < n; ++r) {
        double err = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          const double d_eps =
              static_cast<double>(pred(r, j)) - eps(r, j);
          err += d_eps * d_eps;
        }
        if (m > 0) err /= static_cast<double>(m);
        // Cross-entropy of the *true* category under predicted x̂0 logits.
        for (const auto& b : encoder_.blocks()) {
          std::size_t true_cat = 0;
          float peak = pred(r, b.offset);
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            if (x0(r, b.offset + j) > 0.5f) true_cat = j;
            peak = std::max(peak, pred(r, b.offset + j));
          }
          double denom = 0.0;
          for (std::size_t j = 0; j < b.cardinality; ++j) {
            denom += std::exp(
                static_cast<double>(pred(r, b.offset + j) - peak));
          }
          const double logp =
              static_cast<double>(pred(r, b.offset + true_cat) - peak) -
              std::log(denom);
          err -= logp / static_cast<double>(encoder_.blocks().size());
        }
        scores[r] += err;
      }
    }
  }
  const double norm = static_cast<double>(probes * draws);
  for (double& s : scores) s /= norm;
  return scores;
}

void TabDdpm::save(std::ostream& os) const {
  if (!fitted_) throw std::logic_error("tabddpm: save before fit");
  util::io::write_tag(os, "DDPM");
  util::io::write_u32(os, 2);  // payload version
  util::io::write_u64(os, cfg_.timesteps);
  util::io::write_u64(os, cfg_.time_embed_dim);
  encoder_.save(os);
  nn::save_mlp(os, net_);
  // v2: optional training state so a reloaded model can warm_fit.
  const bool train_state = opt_ != nullptr;
  util::io::write_u32(os, train_state ? 1 : 0);
  if (train_state) {
    // Fit-time budget: warm_fit derives its epoch count and LR from it.
    util::io::write_f32(os, cfg_.budget.learning_rate);
    util::io::write_u64(os, cfg_.budget.epochs);
    util::io::write_u64(os, cfg_.budget.batch_size);
    opt_->save(os);
    util::io::write_u64(os, opt_steps_);
    rng_.save(os);
  }
}

void TabDdpm::load(std::istream& is) {
  if (fitted_) throw std::logic_error("tabddpm: load into fitted model");
  util::io::expect_tag(is, "DDPM");
  const std::uint32_t version = util::io::read_u32(is);
  if (version != 1 && version != 2) {
    throw std::runtime_error("tabddpm: unsupported payload");
  }
  const std::uint64_t timesteps = util::io::read_u64(is);
  // Bounded, so the denoiser's input width below cannot wrap.
  const std::size_t time_embed_dim = util::io::read_count(is);
  if (timesteps < 2 || timesteps > util::io::kMaxSerializedElements) {
    throw std::runtime_error("tabddpm: implausible timestep count in archive");
  }
  encoder_.load(is);
  // The denoiser maps [x_t | time embedding] to [eps | x0 logits].
  const std::size_t width = encoder_.encoded_width();
  net_ = nn::load_mlp(is, width + time_embed_dim, width);
  cfg_.timesteps = static_cast<std::size_t>(timesteps);
  cfg_.time_embed_dim = time_embed_dim;
  if (version >= 2 && util::io::read_u32(is) != 0) {
    cfg_.budget.learning_rate = util::io::read_f32(is);
    cfg_.budget.epochs = static_cast<std::size_t>(util::io::read_u64(is));
    cfg_.budget.batch_size = static_cast<std::size_t>(util::io::read_u64(is));
    opt_ = std::make_unique<nn::AdamW>(cfg_.budget.learning_rate,
                                       /*weight_decay=*/1e-4f);
    opt_->add_params(net_.params());
    opt_->load(is);
    opt_steps_ = static_cast<std::size_t>(util::io::read_u64(is));
    rng_.load(is);
  }
  build_schedule();
  fitted_ = true;
}

namespace {
const RegisterGenerator kRegisterTabDdpm{{
    "tabddpm",
    "TabDDPM",
    "Gaussian + multinomial denoising diffusion (Kotelnikov et al., 2023) "
    "— the paper's recommended surrogate",
    [](const TrainBudget& budget, std::uint64_t seed) {
      TabDdpmConfig cfg;
      cfg.budget = budget;
      // The diffusion model needs more gradient signal per wall-clock than
      // the VAE/GAN at our reduced epoch counts: the paper's 2e-4 over
      // 30k epochs scales to ~1.5e-3 at tens of epochs, and doubling the
      // epoch count keeps its optimization budget comparable to the
      // adversarial pair (which takes 2 passes per step).
      cfg.budget.learning_rate = budget.learning_rate * 7.5f;
      cfg.budget.epochs = budget.epochs * 2;
      cfg.timesteps = 50;
      cfg.seed = seed;
      return std::make_unique<TabDdpm>(cfg);
    },
}};
}  // namespace

}  // namespace surro::models
