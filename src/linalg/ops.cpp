#include "linalg/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/simd.hpp"
#include "util/thread_pool.hpp"

namespace surro::linalg {

namespace {
// Rows-per-task grain: GEMM over fewer rows than this stays serial.
constexpr std::size_t kRowGrain = 16;
// k-dimension block for the GEMM family: a KC-row panel of B (KC * n floats)
// stays resident in L1/L2 while a row tile of A streams over it. Fixed (not
// derived from thread count or matrix shape at run time) so accumulation
// order — k-ascending per output element — never varies between runs.
constexpr std::size_t kKC = 256;
}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  if (out.rows() != m || out.cols() != n) out.resize(m, n);
  out.zero();
  gemm_acc(a, b, out);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  if (out.rows() != m || out.cols() != n) out.resize(m, n);
  const simd::Kernels& kern = simd::kernels();
  util::parallel_for(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const float* a_row = a.data() + i * k;
          float* out_row = out.data() + i * n;
          for (std::size_t j = 0; j < n; ++j) {
            out_row[j] = kern.dot_f32(a_row, b.data() + j * k, k);
          }
        }
      },
      kRowGrain);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  if (out.rows() != m || out.cols() != n) out.resize(m, n);
  out.zero();
  gemm_tn_acc(a, b, out);
}

void gemm_tn_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows());
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  assert(out.rows() == m && out.cols() == n);
  const simd::Kernels& kern = simd::kernels();
  // Parallelize over output rows (columns of a) to avoid write conflicts.
  util::parallel_for(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = 0; p < k; ++p) {
          const float* a_row = a.data() + p * m;
          const float* b_row = b.data() + p * n;
          for (std::size_t i = lo; i < hi; ++i) {
            const float av = a_row[i];
            if (av == 0.0f) continue;
            kern.axpy_f32(av, b_row, out.data() + i * n, n);
          }
        }
      },
      kRowGrain);
}

void gemm_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.cols() == b.rows());
  assert(out.rows() == a.rows() && out.cols() == b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const simd::Kernels& kern = simd::kernels();
  util::parallel_for(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        // k is blocked in fixed kKC panels; within a panel the backend's
        // register-tiled micro-kernel accumulates k-ascending per element,
        // skipping a step only where that row's A value is zero, whichever
        // row tile the chunk puts the row in. So every element's chain is
        // fixed no matter how rows were chunked across threads.
        for (std::size_t p0 = 0; p0 < k; p0 += kKC) {
          const std::size_t kc = std::min(kKC, k - p0);
          kern.gemm_block_f32(a.data() + lo * k + p0, k, b.data() + p0 * n, n,
                              out.data() + lo * n, n, hi - lo, kc, n);
        }
      },
      kRowGrain);
}

void add_row_vector(Matrix& m, std::span<const float> bias) {
  assert(bias.size() == m.cols());
  const std::size_t n = m.cols();
  const simd::Kernels& kern = simd::kernels();
  util::parallel_for(
      0, m.rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          kern.acc_f32(bias.data(), m.data() + i * n, n);
        }
      },
      kRowGrain * 8);
}

void col_sums(const Matrix& m, std::span<float> out) {
  assert(out.size() == m.cols());
  std::fill(out.begin(), out.end(), 0.0f);
  const std::size_t n = m.cols();
  const simd::Kernels& kern = simd::kernels();
  // Row-sequential: per column the add order is row-ascending regardless of
  // backend or thread count.
  for (std::size_t i = 0; i < m.rows(); ++i) {
    kern.acc_f32(m.data() + i * n, out.data(), n);
  }
}

void add(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  if (out.rows() != a.rows() || out.cols() != a.cols()) {
    out.resize(a.rows(), a.cols());
  }
  simd::kernels().add_f32(a.data(), b.data(), out.data(), a.size());
}
void sub(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  if (out.rows() != a.rows() || out.cols() != a.cols()) {
    out.resize(a.rows(), a.cols());
  }
  simd::kernels().sub_f32(a.data(), b.data(), out.data(), a.size());
}
void hadamard(const Matrix& a, const Matrix& b, Matrix& out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  if (out.rows() != a.rows() || out.cols() != a.cols()) {
    out.resize(a.rows(), a.cols());
  }
  simd::kernels().mul_f32(a.data(), b.data(), out.data(), a.size());
}

void axpy(float alpha, const Matrix& x, Matrix& y) {
  assert(x.rows() == y.rows() && x.cols() == y.cols());
  simd::kernels().axpy_f32(alpha, x.data(), y.data(), x.size());
}

void scale(Matrix& m, float alpha) {
  simd::kernels().scale_f32(alpha, m.data(), m.size());
}

void softmax_rows(Matrix& m, std::size_t col_begin, std::size_t col_end) {
  assert(col_begin < col_end && col_end <= m.cols());
  const std::size_t n = m.cols();
  const std::size_t width = col_end - col_begin;
  const simd::Kernels& kern = simd::kernels();
  util::parallel_for(
      0, m.rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          kern.softmax_row_f32(m.data() + i * n + col_begin, width);
        }
      },
      kRowGrain * 8);
}

float frobenius_norm(const Matrix& m) noexcept {
  double acc = 0.0;
  for (const float v : m.flat()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float mean_all(const Matrix& m) noexcept {
  if (m.empty()) return 0.0f;
  double acc = 0.0;
  for (const float v : m.flat()) acc += v;
  return static_cast<float>(acc / static_cast<double>(m.size()));
}

void copy_rows(const Matrix& src, std::size_t row_begin, std::size_t row_end,
               Matrix& out) {
  assert(row_begin <= row_end && row_end <= src.rows());
  const std::size_t n = src.cols();
  out.resize(row_end - row_begin, n);
  std::copy(src.data() + row_begin * n, src.data() + row_end * n, out.data());
}

void gather_rows(const Matrix& src, std::span<const std::size_t> indices,
                 Matrix& out) {
  const std::size_t n = src.cols();
  out.resize(indices.size(), n);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] < src.rows());
    std::copy_n(src.data() + indices[i] * n, n, out.data() + i * n);
  }
}

}  // namespace surro::linalg
