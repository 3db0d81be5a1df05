// SIMD kernel layer: scalar-vs-vectorized agreement for every kernel in the
// dispatch table (bitwise for the axpy family, documented-ULP for the
// dot/transcendental families), ragged tail sizes, backend selection API,
// and per-backend thread-count bitwise determinism end to end.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "linalg/simd.hpp"
#include "models/generator.hpp"
#include "serve/replay.hpp"
#include "tabular/table.hpp"
#include "util/rng.hpp"

namespace surro::linalg::simd {
namespace {

// Tail coverage: 1, primes, vector width +/- 1 for both 4- and 8-lane
// backends, and a couple of larger composite sizes.
const std::size_t kSizes[] = {1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 64, 67};

std::vector<float> random_f32(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<double> random_f64(std::size_t n, util::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

std::vector<Backend> vector_backends() {
  std::vector<Backend> out;
  for (const Backend b : available_backends()) {
    if (b != Backend::kScalar) out.push_back(b);
  }
  return out;
}

// Restores the startup backend when a test that forces backends exits.
struct BackendGuard {
  Backend saved = active_backend();
  ~BackendGuard() { force_backend(saved); }
};

// ------------------------------------------------------------ selection API

TEST(SimdBackend, NamesRoundTrip) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kNeon), "neon");
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("neon"), Backend::kNeon);
  EXPECT_THROW((void)parse_backend("sse9"), std::invalid_argument);
}

TEST(SimdBackend, ScalarAlwaysAvailable) {
  EXPECT_TRUE(backend_available(Backend::kScalar));
  const auto all = available_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Backend::kScalar);
  // "auto" resolves to something available.
  EXPECT_TRUE(backend_available(parse_backend("auto")));
  // The active backend is available and its table is reachable.
  EXPECT_TRUE(backend_available(active_backend()));
  EXPECT_STREQ(active_backend_name(), backend_name(active_backend()));
  (void)kernels_for(Backend::kScalar);
}

TEST(SimdBackend, ForceBackendSwitchesAndThrows) {
  BackendGuard guard;
  for (const Backend b : available_backends()) {
    force_backend(b);
    EXPECT_EQ(active_backend(), b);
    EXPECT_EQ(&kernels(), &kernels_for(b));
  }
  for (const Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (!backend_available(b)) {
      EXPECT_THROW(force_backend(b), std::invalid_argument);
      EXPECT_THROW((void)kernels_for(b), std::invalid_argument);
    }
  }
}

// -------------------------------------------- axpy family: bitwise-vs-scalar

TEST(SimdKernels, AxpyFamilyBitwise) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(11);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto a = random_f32(n, rng);
      const auto b = random_f32(n, rng);
      const float alpha = static_cast<float>(rng.normal());

      auto y0 = random_f32(n, rng);
      auto y1 = y0;
      ref.axpy_f32(alpha, a.data(), y0.data(), n);
      k.axpy_f32(alpha, a.data(), y1.data(), n);
      ASSERT_EQ(0, std::memcmp(y0.data(), y1.data(), n * sizeof(float)))
          << "axpy n=" << n << " backend=" << backend_name(backend);

      auto z0 = b;
      auto z1 = b;
      ref.acc_f32(a.data(), z0.data(), n);
      k.acc_f32(a.data(), z1.data(), n);
      ASSERT_EQ(0, std::memcmp(z0.data(), z1.data(), n * sizeof(float)));

      std::vector<float> o0(n), o1(n);
      ref.add_f32(a.data(), b.data(), o0.data(), n);
      k.add_f32(a.data(), b.data(), o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(float)));
      ref.sub_f32(a.data(), b.data(), o0.data(), n);
      k.sub_f32(a.data(), b.data(), o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(float)));
      ref.mul_f32(a.data(), b.data(), o0.data(), n);
      k.mul_f32(a.data(), b.data(), o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(float)));

      auto s0 = a;
      auto s1 = a;
      ref.scale_f32(alpha, s0.data(), n);
      k.scale_f32(alpha, s1.data(), n);
      ASSERT_EQ(0, std::memcmp(s0.data(), s1.data(), n * sizeof(float)));
    }
  }
}

// Per-element chain the AVX2 gemm_block must reproduce bit for bit: start
// from C and, for p ascending, apply one std::fmaf wherever that row's A
// value is nonzero.
void gemm_block_fma_chain(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) {
        const float av = a[i * k + p];
        if (av != 0.0f) acc = std::fmaf(av, b[p * n + j], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

// A copy of `values` whose last element ends exactly where a PROT_NONE
// page begins, so reading or writing one float past the end faults. GCC's
// ASan does not instrument AVX2 masked loads and stores; a masked-off lane
// never faults, so this catches only a lane the tail mask should have
// cleared.
class GuardedFloats {
 public:
  explicit GuardedFloats(const std::vector<float>& values) {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t bytes = values.size() * sizeof(float);
    const std::size_t data_pages = (bytes + page - 1) / page;
    map_bytes_ = (data_pages + 1) * page;
    void* map = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(map);
    if (::mprotect(base_ + data_pages * page, page, PROT_NONE) != 0) {
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<float*>(base_ + data_pages * page - bytes);
    std::copy(values.begin(), values.end(), data_);
  }
  ~GuardedFloats() { ::munmap(base_, map_bytes_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  [[nodiscard]] float* data() const noexcept { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t map_bytes_ = 0;
  float* data_ = nullptr;
};

// gemm_block is in the dot family: vector backends fuse multiply-add, so
// agreement with scalar is close-with-tolerance, not bitwise. The AVX2
// kernel's bytes are pinned to gemm_block_fma_chain. Every backend must be
// chunk invariant: splitting the row panel at any row boundary — how
// parallel callers hand out row ranges, and so which row tile a row lands
// in — must reproduce the unsplit bytes exactly. Buffers are sized exactly,
// so ASan sees any access past the end of A, B or C; when n is not a
// multiple of 8, B and C also end against a guard page for the masked
// column tail.
TEST(SimdKernels, GemmBlockCloseToScalarAndChunkInvariant) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(23);
  const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17};
  const std::size_t ns[] = {1, 7, 8, 9, 15, 16, 17, 33, 90};
  const std::size_t ks[] = {1, 5, 64, 122, 257};
  enum class Pattern { kSparse, kDense, kOneHotRows, kZeroRow };
  for (const Backend backend : vector_backends()) {
    const Kernels& kern = kernels_for(backend);
    const bool pinned = backend == Backend::kAvx2;
    for (const std::size_t m : ms) {
      for (const std::size_t n : ns) {
        for (const std::size_t k : ks) {
          for (const Pattern pattern :
               {Pattern::kSparse, Pattern::kDense, Pattern::kOneHotRows,
                Pattern::kZeroRow}) {
            auto a = random_f32(m * k, rng);
            const auto b = random_f32(k * n, rng);
            if (pattern == Pattern::kSparse) {
              // Exercise the per-row sparsity skip.
              for (float& v : a) {
                if (rng.uniform() < 0.3) v = 0.0f;
              }
            } else if (pattern == Pattern::kOneHotRows) {
              std::fill(a.begin(), a.end(), 0.0f);
              for (std::size_t i = 0; i < m; ++i) {
                a[i * k + rng.uniform_index(k)] = 1.0f;
              }
            } else if (pattern == Pattern::kZeroRow) {
              std::fill_n(a.begin() + (m / 2) * k, k, 0.0f);
            }
            const auto cinit = random_f32(m * n, rng);
            auto c0 = cinit;
            auto c1 = cinit;
            ref.gemm_block_f32(a.data(), k, b.data(), n, c0.data(), n, m, k,
                               n);
            if (n % 8 != 0) {
              const GuardedFloats gb(b);
              const GuardedFloats gc(c1);
              kern.gemm_block_f32(a.data(), k, gb.data(), n, gc.data(), n, m,
                                  k, n);
              std::copy_n(gc.data(), m * n, c1.begin());
            } else {
              kern.gemm_block_f32(a.data(), k, b.data(), n, c1.data(), n, m,
                                  k, n);
            }
            const auto where = [&] {
              return ::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k
                     << " pattern=" << static_cast<int>(pattern)
                     << " backend=" << backend_name(backend);
            };
            for (std::size_t e = 0; e < m * n; ++e) {
              ASSERT_NEAR(c0[e], c1[e], 1e-4f * (1.0f + std::abs(c0[e])))
                  << "gemm_block vs scalar " << where();
            }
            if (pinned) {
              auto chain = cinit;
              gemm_block_fma_chain(a.data(), b.data(), chain.data(), m, k,
                                   n);
              ASSERT_EQ(0, std::memcmp(chain.data(), c1.data(),
                                       m * n * sizeof(float)))
                  << "gemm_block vs fmaf chain " << where();
            }
            // Chunk invariance: rows [0,split) and [split,m) as two calls,
            // each on exactly sized copies of its rows.
            for (std::size_t split = 1; split < m; ++split) {
              std::vector<float> a_top(a.begin(), a.begin() + split * k);
              std::vector<float> a_bot(a.begin() + split * k, a.end());
              std::vector<float> c_top(cinit.begin(),
                                       cinit.begin() + split * n);
              std::vector<float> c_bot(cinit.begin() + split * n,
                                       cinit.end());
              kern.gemm_block_f32(a_top.data(), k, b.data(), n, c_top.data(),
                                  n, split, k, n);
              kern.gemm_block_f32(a_bot.data(), k, b.data(), n, c_bot.data(),
                                  n, m - split, k, n);
              ASSERT_EQ(0, std::memcmp(c1.data(), c_top.data(),
                                       split * n * sizeof(float)))
                  << "split=" << split << " " << where();
              ASSERT_EQ(0, std::memcmp(c1.data() + split * n, c_bot.data(),
                                       (m - split) * n * sizeof(float)))
                  << "split=" << split << " " << where();
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernels, F64ElementwiseBitwise) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(31);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto x = random_f64(n, rng);
      const double shift = rng.normal();
      const double denom = 1.0 + std::abs(rng.normal());
      std::vector<double> o0(n), o1(n);
      ref.normalize_f64(x.data(), shift, denom, o0.data(), n);
      k.normalize_f64(x.data(), shift, denom, o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(double)))
          << "normalize n=" << n;
      ref.madd_f64(x.data(), denom, shift, o0.data(), n);
      k.madd_f64(x.data(), denom, shift, o1.data(), n);
      ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(double)))
          << "madd n=" << n;
    }
  }
}

TEST(SimdKernels, InterpGridBitwise) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(37);
  // Ascending quantile grid, probabilities covering interior, clamped
  // (<0, >1), and exact-boundary values.
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t grid_n : {2u, 5u, 100u, 1000u}) {
      std::vector<double> q(grid_n);
      double acc = -3.0;
      for (double& v : q) {
        acc += std::abs(rng.normal());
        v = acc;
      }
      for (const std::size_t n : kSizes) {
        std::vector<double> p(n);
        for (std::size_t i = 0; i < n; ++i) {
          const double u = rng.uniform();
          p[i] = u < 0.1 ? -0.5 : (u > 0.9 ? 1.5 : rng.uniform());
        }
        if (n > 2) {
          p[0] = 0.0;
          p[1] = 1.0;
          p[2] = 0.5;
        }
        std::vector<double> o0(n), o1(n);
        ref.interp_grid_f64(q.data(), grid_n, p.data(), o0.data(), n);
        k.interp_grid_f64(q.data(), grid_n, p.data(), o1.data(), n);
        ASSERT_EQ(0, std::memcmp(o0.data(), o1.data(), n * sizeof(double)))
            << "interp grid_n=" << grid_n << " n=" << n;
      }
    }
  }
}

// ------------------------------- dot/transcendental: documented-ULP classes

TEST(SimdKernels, DotFamilyClose) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(41);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto a = random_f32(n, rng);
      const auto b = random_f32(n, rng);
      const float d0 = ref.dot_f32(a.data(), b.data(), n);
      const float d1 = k.dot_f32(a.data(), b.data(), n);
      EXPECT_NEAR(d0, d1, 1e-4f * (1.0f + std::abs(d0))) << "dot n=" << n;
      const float s0 = ref.sq_l2_f32(a.data(), b.data(), n);
      const float s1 = k.sq_l2_f32(a.data(), b.data(), n);
      EXPECT_NEAR(s0, s1, 1e-4f * (1.0f + s0)) << "sq_l2 n=" << n;
      EXPECT_GE(s1, 0.0f);
    }
  }
}

TEST(SimdKernels, SoftmaxRowCloseAndNormalized) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(43);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      auto r0 = random_f32(n, rng);
      for (float& v : r0) v *= 5.0f;  // spread the exponent range
      auto r1 = r0;
      ref.softmax_row_f32(r0.data(), n);
      k.softmax_row_f32(r1.data(), n);
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        // Documented-ULP class: polynomial exp vs libm expf.
        EXPECT_NEAR(r0[i], r1[i], 2e-6f) << "softmax n=" << n << " i=" << i;
        sum += r1[i];
      }
      EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
  }
}

TEST(SimdKernels, JsdAccClose) {
  const Kernels& ref = kernels_for(Backend::kScalar);
  util::Rng rng(47);
  for (const Backend backend : vector_backends()) {
    const Kernels& k = kernels_for(backend);
    for (const std::size_t n : kSizes) {
      std::vector<double> p(n), q(n);
      double ps = 0.0, qs = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        // Sparse histograms: exercise the p>0 / q>0 masking.
        p[i] = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
        q[i] = rng.uniform() < 0.3 ? 0.0 : rng.uniform();
        ps += p[i];
        qs += q[i];
      }
      if (ps > 0.0) {
        for (double& v : p) v /= ps;
      }
      if (qs > 0.0) {
        for (double& v : q) v /= qs;
      }
      const double j0 = ref.jsd_acc_f64(p.data(), q.data(), n);
      const double j1 = k.jsd_acc_f64(p.data(), q.data(), n);
      // Documented-ULP class: polynomial log vs libm log.
      EXPECT_NEAR(j0, j1, 1e-12 * (1.0 + std::abs(j0))) << "jsd n=" << n;
    }
  }
}

// ---------------------------------------- ops layer: backends stay in sync

TEST(SimdOps, GemmFamilyMatchesScalarBackend) {
  BackendGuard guard;
  util::Rng rng(53);
  Matrix a(13, 37), b(37, 21), at(37, 13);
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = rng.uniform() < 0.2 ? 0.0f
                                 : static_cast<float>(rng.normal());
  for (float& v : at.flat()) v = static_cast<float>(rng.normal());

  force_backend(Backend::kScalar);
  Matrix g0, tn0;
  gemm(a, b, g0);
  gemm_tn(at, b, tn0);
  for (const Backend backend : vector_backends()) {
    force_backend(backend);
    Matrix g1, tn1;
    gemm(a, b, g1);
    gemm_tn(at, b, tn1);
    // gemm dispatches gemm_block (dot family: FMA, close not bitwise);
    // gemm_tn dispatches axpy (bitwise across backends).
    for (std::size_t e = 0; e < g0.size(); ++e) {
      ASSERT_NEAR(g0.data()[e], g1.data()[e],
                  1e-4f * (1.0f + std::abs(g0.data()[e])))
          << "gemm vs scalar, backend=" << backend_name(backend);
    }
    ASSERT_EQ(0, std::memcmp(tn0.data(), tn1.data(),
                             tn0.size() * sizeof(float)))
        << "gemm_tn vs scalar, backend=" << backend_name(backend);
  }
}

// ------------------------------- thread-count determinism, per backend, e2e

TEST(SimdDeterminism, SampledBytesIdenticalAcrossThreadCounts) {
  BackendGuard guard;
  // Tiny mixed training table.
  tabular::Schema schema({{"x", tabular::ColumnKind::kNumerical},
                          {"site", tabular::ColumnKind::kCategorical},
                          {"y", tabular::ColumnKind::kNumerical}});
  tabular::Table train(schema);
  util::Rng rng(61);
  for (std::size_t i = 0; i < 300; ++i) {
    auto row = train.make_row();
    row.set(0, rng.normal());
    row.set(1, std::string(rng.bernoulli(0.5) ? "BNL" : "CERN"));
    row.set(2, rng.normal(3.0, 0.5));
    train.append_row(row);
  }
  models::TrainBudget budget;
  budget.epochs = 2;
  budget.batch_size = 64;

  for (const Backend backend : available_backends()) {
    force_backend(backend);
    for (const char* key : {"tvae", "smote"}) {
      auto model = models::make_generator(key, budget, 7);
      model->fit(train);
      std::uint64_t digests[3] = {};
      std::size_t idx = 0;
      for (const std::size_t threads : {1u, 2u, 4u}) {
        models::SampleRequest req;
        req.rows = 257;  // non-multiple of chunk size
        req.seed = 99;
        req.chunk_rows = 64;
        req.threads = threads;
        tabular::Table out;
        model->sample_into(out, req);
        digests[idx++] = serve::hash_table(out);
      }
      EXPECT_EQ(digests[0], digests[1])
          << key << " backend=" << backend_name(backend);
      EXPECT_EQ(digests[0], digests[2])
          << key << " backend=" << backend_name(backend);
    }
  }
}

}  // namespace
}  // namespace surro::linalg::simd
