// AVX2 + FMA kernel backend. This translation unit is compiled with
// -mavx2 -mfma -ffp-contract=off on x86-64 (see CMakeLists.txt); everywhere
// else the stub at the bottom reports the backend as unavailable.
//
// Kernel families (see simd.hpp):
//  - axpy family: explicit mul-then-add (never FMA) in the exact per-element
//    order of the scalar reference, so results are bitwise identical to the
//    scalar backend.
//  - dot family + transcendentals: FMA and polynomial exp/log with a fixed
//    lane-tree reduction — deterministic within this backend, a few ULP from
//    scalar.
#include "linalg/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace surro::linalg::simd {
namespace {

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// Fixed-order horizontal sum: (lo128 + hi128), then pairwise within 128.
inline float hsum_ps(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline double hsum_pd(__m256d v) {
  __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                         _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
}

inline float hmax_ps(__m256 v) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(v),
                        _mm256_extractf128_ps(v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Cephes-style exp for 8 floats (avx_mathfun lineage). Max error a couple
// of ULP over the softmax-relevant range; inputs are pre-clamped.
inline __m256 exp256_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.3762626647949f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-88.3762626647949f));

  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, one);

  __m256i n = _mm256_cvttps_epi32(fx);
  n = _mm256_add_epi32(n, _mm256_set1_epi32(0x7f));
  n = _mm256_slli_epi32(n, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

// Cephes log (double) for 4 lanes. Caller guarantees x > 0 and finite.
inline __m256d log256_pd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);

  // frexp: mantissa in [0.5, 1), unbiased exponent.
  const __m256i bits = _mm256_castpd_si256(x);
  __m256i expi = _mm256_srli_epi64(bits, 52);
  expi = _mm256_and_si256(expi, _mm256_set1_epi64x(0x7ff));
  expi = _mm256_sub_epi64(expi, _mm256_set1_epi64x(1022));
  __m256i mant =
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL));
  mant = _mm256_or_si256(mant, _mm256_set1_epi64x(0x3fe0000000000000LL));
  __m256d m = _mm256_castsi256_pd(mant);
  // pack the four small int64 exponents into int32 lanes, then convert
  const __m256i packed = _mm256_permutevar8x32_epi32(
      expi, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  __m256d e = _mm256_cvtepi32_pd(_mm256_castsi256_si128(packed));

  // m < sqrt(1/2): halve the exponent's pull, double the mantissa
  const __m256d mask =
      _mm256_cmp_pd(m, _mm256_set1_pd(0.70710678118654752440), _CMP_LT_OQ);
  e = _mm256_sub_pd(e, _mm256_and_pd(mask, one));
  m = _mm256_add_pd(m, _mm256_and_pd(mask, m));
  m = _mm256_sub_pd(m, one);

  const __m256d z = _mm256_mul_pd(m, m);
  __m256d p = _mm256_set1_pd(1.01875663804580931796e-4);
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(4.97494994976747001425e-1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(4.70579119878881725854e0));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(1.44989225341610930846e1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(1.79368678507819816313e1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(7.70838733755885391666e0));
  __m256d q = _mm256_add_pd(m, _mm256_set1_pd(1.12873587189167450590e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(4.52279145837532221105e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(8.29875266912776603211e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(7.11544750618563894466e1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(2.31251620126765340583e1));

  __m256d y = _mm256_mul_pd(_mm256_mul_pd(m, z), _mm256_div_pd(p, q));
  y = _mm256_fmadd_pd(e, _mm256_set1_pd(-2.121944400546905827679e-4), y);
  y = _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, y);
  __m256d r = _mm256_add_pd(m, y);
  r = _mm256_fmadd_pd(e, _mm256_set1_pd(0.693359375), r);
  return r;
}

// ---------------------------------------------------------------------------
// f32 axpy family — mul then add, never FMA, scalar element order
// ---------------------------------------------------------------------------

void axpy_f32_avx2(float a, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void acc_f32_avx2(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void add_f32_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_f32_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_f32_avx2(const float* a, const float* b, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

void scale_f32_avx2(float a, float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

// Register-tiled C += A·B micro-kernel with FMA. gemm_block is in the
// documented-ULP family — its bytes may differ from the scalar backend
// (fused multiply-add skips the intermediate rounding) — but every
// per-element chain is fixed: it starts from C, k ascends, and a p-step is
// one fused multiply-add applied iff that ROW's A value is nonzero. Rows go
// in tiles of 6, then 4, then single rows; columns in 16-wide (two __m256
// per row), 8-wide and one masked tail block of n mod 8 lanes. One template
// computes every tile, so which tile a row lands in (decided by the
// caller's thread chunking) cannot change its result, and neither can the
// column block: each lane of each block runs the same chain.

// Steps covered by one nonzero mask. Longer k is walked in panels of this
// depth; C is stored and reloaded between panels, which is exact.
constexpr std::size_t kMaskSteps = 256;

// nz[p] gets bit r set iff row r's A value at step p is nonzero. NEQ_UQ
// counts NaN as nonzero, as `av != 0.0f` does.
template <int R>
void nonzero_mask(const float* a, std::size_t lda, std::size_t kc,
                  std::uint8_t* nz) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t p = 0;
  for (; p + 8 <= kc; p += 8) {
    __m256i bits = _mm256_setzero_si256();
    for (int r = 0; r < R; ++r) {
      const __m256 ne =
          _mm256_cmp_ps(_mm256_loadu_ps(a + r * lda + p), zero, _CMP_NEQ_UQ);
      bits = _mm256_or_si256(
          bits, _mm256_and_si256(_mm256_castps_si256(ne),
                                 _mm256_set1_epi32(1 << r)));
    }
    const __m128i words = _mm_packs_epi32(_mm256_castsi256_si128(bits),
                                          _mm256_extracti128_si256(bits, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(nz + p),
                     _mm_packus_epi16(words, words));
  }
  for (; p < kc; ++p) {
    unsigned bits = 0;
    for (int r = 0; r < R; ++r) {
      bits |= static_cast<unsigned>(a[r * lda + p] != 0.0f) << r;
    }
    nz[p] = static_cast<std::uint8_t>(bits);
  }
}

// C[R rows][V __m256] += A·B over kc steps. kMasked tiles are one vector
// wide and touch only the lanes set in `lanes` (the n mod 8 column tail).
// A step whose rows are all nonzero (dense layers) skips the per-row test,
// and one whose rows are all zero (one-hot inputs) costs one byte load.
template <int R, int V, bool kMasked>
void gemm_tile(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t kc,
               const std::uint8_t* nz, __m256i lanes) {
  static_assert(!kMasked || V == 1, "the masked tail is one vector wide");
  constexpr unsigned kAllRows = (1u << R) - 1;
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = kMasked ? _mm256_maskload_ps(c + r * ldc, lanes)
                          : _mm256_loadu_ps(c + r * ldc + 8 * v);
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const unsigned rows = nz[p];
    if (rows == 0) continue;
    const float* bp = b + p * ldb;
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = kMasked ? _mm256_maskload_ps(bp, lanes)
                      : _mm256_loadu_ps(bp + 8 * v);
    }
    if (rows == kAllRows) {
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
        for (int v = 0; v < V; ++v) {
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
      }
    } else {
      for (int r = 0; r < R; ++r) {
        if ((rows >> r & 1u) == 0) continue;
        const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
        for (int v = 0; v < V; ++v) {
          acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      if (kMasked) {
        _mm256_maskstore_ps(c + r * ldc, lanes, acc[r][v]);
      } else {
        _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
      }
    }
  }
}

// C[R rows][n] += A·B: one nonzero mask per k-panel, shared by every
// column block of the row tile.
template <int R>
void gemm_rows(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, std::size_t k,
               std::size_t n) {
  std::uint8_t nz[kMaskSteps];
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n % 8)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (std::size_t p0 = 0; p0 < k; p0 += kMaskSteps) {
    const std::size_t kc = std::min(kMaskSteps, k - p0);
    const float* ap = a + p0;
    const float* bp = b + p0 * ldb;
    nonzero_mask<R>(ap, lda, kc, nz);
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      gemm_tile<R, 2, false>(ap, lda, bp + j, ldb, c + j, ldc, kc, nz, tail);
    }
    if (j + 8 <= n) {
      gemm_tile<R, 1, false>(ap, lda, bp + j, ldb, c + j, ldc, kc, nz, tail);
      j += 8;
    }
    if (j < n) {
      gemm_tile<R, 1, true>(ap, lda, bp + j, ldb, c + j, ldc, kc, nz, tail);
    }
  }
}

void gemm_block_f32_avx2(const float* a, std::size_t lda, const float* b,
                         std::size_t ldb, float* c, std::size_t ldc,
                         std::size_t m, std::size_t k, std::size_t n) {
  std::size_t i = 0;
  for (; i + 6 <= m; i += 6) {
    gemm_rows<6>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
  }
  if (i + 4 <= m) {
    gemm_rows<4>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
    i += 4;
  }
  for (; i < m; ++i) {
    gemm_rows<1>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
  }
}

// ---------------------------------------------------------------------------
// f32 dot family — FMA, fixed lane-tree reduction
// ---------------------------------------------------------------------------

float dot_f32_avx2(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                          acc);
  }
  float r = hsum_ps(acc);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

float sq_l2_f32_avx2(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_fmadd_ps(d, d, acc);
  }
  float r = hsum_ps(acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    r += d * d;
  }
  return r;
}

// ---------------------------------------------------------------------------
// f32 transcendental
// ---------------------------------------------------------------------------

void softmax_row_f32_avx2(float* row, std::size_t n) {
  if (n == 0) return;
  float mx;
  std::size_t i = 0;
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(row);
    for (i = 8; i + 8 <= n; i += 8)
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + i));
    mx = hmax_ps(vmax);
  } else {
    mx = row[0];
    i = 1;
  }
  for (; i < n; ++i) mx = std::max(mx, row[i]);

  const __m256 vmx = _mm256_set1_ps(mx);
  __m256 vsum = _mm256_setzero_ps();
  for (i = 0; i + 8 <= n; i += 8) {
    const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(row + i), vmx));
    _mm256_storeu_ps(row + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum = hsum_ps(vsum);
  for (; i < n; ++i) {
    row[i] = std::exp(row[i] - mx);
    sum += row[i];
  }

  const __m256 vsumb = _mm256_set1_ps(sum);
  for (i = 0; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(row + i,
                     _mm256_div_ps(_mm256_loadu_ps(row + i), vsumb));
  }
  for (; i < n; ++i) row[i] /= sum;
}

// ---------------------------------------------------------------------------
// f64 elementwise — bitwise identical to scalar
// ---------------------------------------------------------------------------

void normalize_f64_avx2(const double* x, double shift, double denom,
                        double* out, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(shift);
  const __m256d vd = _mm256_set1_pd(denom);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(x + i), vs), vd));
  }
  for (; i < n; ++i) out[i] = (x[i] - shift) / denom;
}

void madd_f64_avx2(const double* x, double a, double b, double* out,
                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(a);
  const __m256d vb = _mm256_set1_pd(b);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(x + i), va), vb));
  }
  for (; i < n; ++i) out[i] = x[i] * a + b;
}

void interp_grid_f64_avx2(const double* q, std::size_t grid_n,
                          const double* p, double* out, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d vscale = _mm256_set1_pd((double)(grid_n - 1));
  const __m128i maxcell = _mm_set1_epi32((int)(grid_n - 2));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d pv = _mm256_loadu_pd(p + i);
    pv = _mm256_min_pd(_mm256_max_pd(pv, zero), one);
    const __m256d pos = _mm256_mul_pd(pv, vscale);
    __m128i cell = _mm256_cvttpd_epi32(pos);  // pos >= 0 so trunc == floor
    cell = _mm_min_epi32(cell, maxcell);
    const __m256d frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(cell));
    // Masked gather with an all-ones mask: same loads as the plain gather,
    // but the explicit zero source avoids GCC's maybe-uninitialized warning
    // on _mm256_undefined_pd inside _mm256_i32gather_pd.
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d q0 = _mm256_mask_i32gather_pd(zero, q, cell, all, 8);
    const __m256d q1 = _mm256_mask_i32gather_pd(zero, q + 1, cell, all, 8);
    const __m256d r =
        _mm256_add_pd(_mm256_mul_pd(q0, _mm256_sub_pd(one, frac)),
                      _mm256_mul_pd(q1, frac));
    _mm256_storeu_pd(out + i, r);
  }
  const double scale = (double)(grid_n - 1);
  for (; i < n; ++i) {
    double pv = p[i];
    if (pv < 0.0) pv = 0.0;
    if (pv > 1.0) pv = 1.0;
    const double pos = pv * scale;
    std::size_t cell = (std::size_t)pos;
    if (cell > grid_n - 2) cell = grid_n - 2;
    const double frac = pos - (double)cell;
    out[i] = q[cell] * (1.0 - frac) + q[cell + 1] * frac;
  }
}

// ---------------------------------------------------------------------------
// f64 transcendental
// ---------------------------------------------------------------------------

double jsd_acc_f64_avx2(const double* p, const double* q, std::size_t n) {
  const double log2e_s = 1.0 / std::log(2.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d log2e = _mm256_set1_pd(log2e_s);
  __m256d acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d pv = _mm256_loadu_pd(p + i);
    const __m256d qv = _mm256_loadu_pd(q + i);
    const __m256d m = _mm256_mul_pd(half, _mm256_add_pd(pv, qv));
    const __m256d maskp = _mm256_cmp_pd(pv, zero, _CMP_GT_OQ);
    const __m256d maskq = _mm256_cmp_pd(qv, zero, _CMP_GT_OQ);
    // ratio 1.0 (log == 0) in masked-out lanes; the div may produce NaN
    // there (0/0) but it is blended away before use.
    const __m256d rp = _mm256_blendv_pd(one, _mm256_div_pd(pv, m), maskp);
    const __m256d rq = _mm256_blendv_pd(one, _mm256_div_pd(qv, m), maskq);
    const __m256d tp = _mm256_and_pd(
        maskp, _mm256_mul_pd(_mm256_mul_pd(half, pv), log256_pd(rp)));
    const __m256d tq = _mm256_and_pd(
        maskq, _mm256_mul_pd(_mm256_mul_pd(half, qv), log256_pd(rq)));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_add_pd(tp, tq), log2e));
  }
  double r = hsum_pd(acc);
  for (; i < n; ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    if (p[i] > 0.0) r += 0.5 * p[i] * std::log(p[i] / m) * log2e_s;
    if (q[i] > 0.0) r += 0.5 * q[i] * std::log(q[i] / m) * log2e_s;
  }
  return r;
}

const Kernels kAvx2Kernels = {
    axpy_f32_avx2,        acc_f32_avx2,        add_f32_avx2,
    sub_f32_avx2,         mul_f32_avx2,        scale_f32_avx2,
    gemm_block_f32_avx2,  dot_f32_avx2,        sq_l2_f32_avx2,
    softmax_row_f32_avx2, normalize_f64_avx2,  madd_f64_avx2,
    interp_grid_f64_avx2, jsd_acc_f64_avx2,
};

}  // namespace

const Kernels* avx2_kernels_table() noexcept { return &kAvx2Kernels; }

}  // namespace surro::linalg::simd

#else  // !(__AVX2__ && __FMA__)

namespace surro::linalg::simd {
const Kernels* avx2_kernels_table() noexcept { return nullptr; }
}  // namespace surro::linalg::simd

#endif
