#include "serve/kernels.hpp"

#include <algorithm>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace orev::serve::kernels {

namespace {

// Reference stage kernel. Every output element accumulates
// double(x) * bt in ascending-k order, casts once to float, then applies
// the optional bias add and ReLU as single float ops — the exact sequence
// nn::matmul_bt plus the layer walk's epilogue loops perform.
#define OREV_SERVE_STAGE_BODY                                           \
  std::vector<double> acc(static_cast<std::size_t>(n));                 \
  for (int i = 0; i < m; ++i) {                                         \
    const float* xrow = x + static_cast<std::size_t>(i) * k;            \
    std::fill(acc.begin(), acc.end(), 0.0);                             \
    for (int kk = 0; kk < k; ++kk) {                                    \
      const double av = xrow[kk];                                       \
      const double* btrow = bt + static_cast<std::size_t>(kk) * n;      \
      for (int j = 0; j < n; ++j) acc[j] += av * btrow[j];              \
    }                                                                   \
    float* yrow = y + static_cast<std::size_t>(i) * n;                  \
    for (int j = 0; j < n; ++j) {                                       \
      float v = static_cast<float>(acc[j]);                             \
      if (bias != nullptr) v += bias[j];                                \
      if (relu) v = std::max(v, 0.0f);                                  \
      yrow[j] = v;                                                      \
    }                                                                   \
  }

void stage_generic(const float* x, const double* bt, const float* bias,
                   bool relu, float* y, int m, int k, int n) {
  OREV_SERVE_STAGE_BODY
}

#if defined(__x86_64__) && defined(__GNUC__)

// 16-column register tiles, four ymm double accumulators live across the
// whole k loop; remainder columns fall back to the scalar element loop
// (identical per-element op order either way). Separate mul + add —
// never FMA — keeps the intermediate rounding identical to the scalar
// reference. The fused ReLU is max_ps(zero, v): maxps returns its second
// operand when either is NaN and when both are zeros, so this order keeps
// NaN and -0.0 exactly like std::max(v, 0.0f) in the scalar columns.
__attribute__((target("avx2"))) void stage_avx2(const float* x,
                                                const double* bt,
                                                const float* bias, bool relu,
                                                float* y, int m, int k,
                                                int n) {
  const __m128 zero4 = _mm_setzero_ps();
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m256d c0 = _mm256_setzero_pd();
      __m256d c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd();
      __m256d c3 = _mm256_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_set1_pd(static_cast<double>(xrow[kk]));
        const double* bp = bt + static_cast<std::size_t>(kk) * n + j0;
        c0 = _mm256_add_pd(c0, _mm256_mul_pd(av, _mm256_loadu_pd(bp)));
        c1 = _mm256_add_pd(c1, _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4)));
        c2 = _mm256_add_pd(c2, _mm256_mul_pd(av, _mm256_loadu_pd(bp + 8)));
        c3 = _mm256_add_pd(c3, _mm256_mul_pd(av, _mm256_loadu_pd(bp + 12)));
      }
      __m128 v0 = _mm256_cvtpd_ps(c0);
      __m128 v1 = _mm256_cvtpd_ps(c1);
      __m128 v2 = _mm256_cvtpd_ps(c2);
      __m128 v3 = _mm256_cvtpd_ps(c3);
      if (bias != nullptr) {
        v0 = _mm_add_ps(v0, _mm_loadu_ps(bias + j0));
        v1 = _mm_add_ps(v1, _mm_loadu_ps(bias + j0 + 4));
        v2 = _mm_add_ps(v2, _mm_loadu_ps(bias + j0 + 8));
        v3 = _mm_add_ps(v3, _mm_loadu_ps(bias + j0 + 12));
      }
      if (relu) {
        v0 = _mm_max_ps(zero4, v0);
        v1 = _mm_max_ps(zero4, v1);
        v2 = _mm_max_ps(zero4, v2);
        v3 = _mm_max_ps(zero4, v3);
      }
      _mm_storeu_ps(yrow + j0, v0);
      _mm_storeu_ps(yrow + j0 + 4, v1);
      _mm_storeu_ps(yrow + j0 + 8, v2);
      _mm_storeu_ps(yrow + j0 + 12, v3);
    }
    for (; j0 < n; ++j0) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += double(xrow[kk]) * bt[static_cast<std::size_t>(kk) * n + j0];
      float v = static_cast<float>(acc);
      if (bias != nullptr) v += bias[j0];
      if (relu) v = std::max(v, 0.0f);
      yrow[j0] = v;
    }
  }
}

// 32-column zmm tiles with a 16-column ymm tail; same op order, 8 wide.
__attribute__((target("avx2,avx512f"))) void stage_avx512(
    const float* x, const double* bt, const float* bias, bool relu, float* y,
    int m, int k, int n) {
  const __m256 zero8 = _mm256_setzero_ps();
  const __m128 zero4 = _mm_setzero_ps();
  for (int i = 0; i < m; ++i) {
    const float* xrow = x + static_cast<std::size_t>(i) * k;
    float* yrow = y + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      __m512d c0 = _mm512_setzero_pd();
      __m512d c1 = _mm512_setzero_pd();
      __m512d c2 = _mm512_setzero_pd();
      __m512d c3 = _mm512_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m512d av = _mm512_set1_pd(static_cast<double>(xrow[kk]));
        const double* bp = bt + static_cast<std::size_t>(kk) * n + j0;
        c0 = _mm512_add_pd(c0, _mm512_mul_pd(av, _mm512_loadu_pd(bp)));
        c1 = _mm512_add_pd(c1, _mm512_mul_pd(av, _mm512_loadu_pd(bp + 8)));
        c2 = _mm512_add_pd(c2, _mm512_mul_pd(av, _mm512_loadu_pd(bp + 16)));
        c3 = _mm512_add_pd(c3, _mm512_mul_pd(av, _mm512_loadu_pd(bp + 24)));
      }
      __m256 v0 = _mm512_cvtpd_ps(c0);
      __m256 v1 = _mm512_cvtpd_ps(c1);
      __m256 v2 = _mm512_cvtpd_ps(c2);
      __m256 v3 = _mm512_cvtpd_ps(c3);
      if (bias != nullptr) {
        v0 = _mm256_add_ps(v0, _mm256_loadu_ps(bias + j0));
        v1 = _mm256_add_ps(v1, _mm256_loadu_ps(bias + j0 + 8));
        v2 = _mm256_add_ps(v2, _mm256_loadu_ps(bias + j0 + 16));
        v3 = _mm256_add_ps(v3, _mm256_loadu_ps(bias + j0 + 24));
      }
      if (relu) {
        v0 = _mm256_max_ps(zero8, v0);
        v1 = _mm256_max_ps(zero8, v1);
        v2 = _mm256_max_ps(zero8, v2);
        v3 = _mm256_max_ps(zero8, v3);
      }
      _mm256_storeu_ps(yrow + j0, v0);
      _mm256_storeu_ps(yrow + j0 + 8, v1);
      _mm256_storeu_ps(yrow + j0 + 16, v2);
      _mm256_storeu_ps(yrow + j0 + 24, v3);
    }
    for (; j0 + 16 <= n; j0 += 16) {
      __m256d c0 = _mm256_setzero_pd();
      __m256d c1 = _mm256_setzero_pd();
      __m256d c2 = _mm256_setzero_pd();
      __m256d c3 = _mm256_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m256d av = _mm256_set1_pd(static_cast<double>(xrow[kk]));
        const double* bp = bt + static_cast<std::size_t>(kk) * n + j0;
        c0 = _mm256_add_pd(c0, _mm256_mul_pd(av, _mm256_loadu_pd(bp)));
        c1 = _mm256_add_pd(c1, _mm256_mul_pd(av, _mm256_loadu_pd(bp + 4)));
        c2 = _mm256_add_pd(c2, _mm256_mul_pd(av, _mm256_loadu_pd(bp + 8)));
        c3 = _mm256_add_pd(c3, _mm256_mul_pd(av, _mm256_loadu_pd(bp + 12)));
      }
      __m128 v0 = _mm256_cvtpd_ps(c0);
      __m128 v1 = _mm256_cvtpd_ps(c1);
      __m128 v2 = _mm256_cvtpd_ps(c2);
      __m128 v3 = _mm256_cvtpd_ps(c3);
      if (bias != nullptr) {
        v0 = _mm_add_ps(v0, _mm_loadu_ps(bias + j0));
        v1 = _mm_add_ps(v1, _mm_loadu_ps(bias + j0 + 4));
        v2 = _mm_add_ps(v2, _mm_loadu_ps(bias + j0 + 8));
        v3 = _mm_add_ps(v3, _mm_loadu_ps(bias + j0 + 12));
      }
      if (relu) {
        v0 = _mm_max_ps(zero4, v0);
        v1 = _mm_max_ps(zero4, v1);
        v2 = _mm_max_ps(zero4, v2);
        v3 = _mm_max_ps(zero4, v3);
      }
      _mm_storeu_ps(yrow + j0, v0);
      _mm_storeu_ps(yrow + j0 + 4, v1);
      _mm_storeu_ps(yrow + j0 + 8, v2);
      _mm_storeu_ps(yrow + j0 + 12, v3);
    }
    for (; j0 < n; ++j0) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += double(xrow[kk]) * bt[static_cast<std::size_t>(kk) * n + j0];
      float v = static_cast<float>(acc);
      if (bias != nullptr) v += bias[j0];
      if (relu) v = std::max(v, 0.0f);
      yrow[j0] = v;
    }
  }
}

// Pixel-vectorized conv stage: each SIMD lane owns one output pixel's
// double accumulator, walking k in ascending order with separate mul +
// add — the identical per-element op sequence as the scalar reference,
// just eight (AVX2) or sixteen (AVX-512) pixels at a time. The float
// epilogue (bias, BatchNorm affine, ReLU) is lane-wise too; none of
// these ops reassociate, so the dispatch cannot change a bit.
__attribute__((target("avx2"))) void conv_avx2(
    const float* colsT, const double* w, const float* bias,
    const float* bn_mean, const float* bn_invstd, const float* bn_gamma,
    const float* bn_beta, bool relu, float* y, int m, int k, int n) {
  const __m256 zero8 = _mm256_setzero_ps();
  for (int c = 0; c < n; ++c) {
    const double* wrow = w + static_cast<std::size_t>(c) * k;
    const float bc = bias[c];
    float* out = y + static_cast<std::size_t>(c) * m;
    int p = 0;
    for (; p + 8 <= m; p += 8) {
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m256d wv = _mm256_set1_pd(wrow[kk]);
        const float* xp = colsT + static_cast<std::size_t>(kk) * m + p;
        a0 = _mm256_add_pd(
            a0, _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(xp)), wv));
        a1 = _mm256_add_pd(
            a1, _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(xp + 4)), wv));
      }
      __m256 v = _mm256_set_m128(_mm256_cvtpd_ps(a1), _mm256_cvtpd_ps(a0));
      v = _mm256_add_ps(v, _mm256_set1_ps(bc));
      if (bn_mean != nullptr) {
        v = _mm256_sub_ps(v, _mm256_set1_ps(bn_mean[c]));
        v = _mm256_mul_ps(v, _mm256_set1_ps(bn_invstd[c]));
        v = _mm256_add_ps(_mm256_mul_ps(v, _mm256_set1_ps(bn_gamma[c])),
                          _mm256_set1_ps(bn_beta[c]));
      }
      if (relu) v = _mm256_max_ps(zero8, v);
      _mm256_storeu_ps(out + p, v);
    }
    for (; p < m; ++p) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(colsT[static_cast<std::size_t>(kk) * m + p]) *
               wrow[kk];
      float v = static_cast<float>(acc) + bc;
      if (bn_mean != nullptr) {
        const float xh = (v - bn_mean[c]) * bn_invstd[c];
        v = bn_gamma[c] * xh + bn_beta[c];
      }
      if (relu) v = std::max(v, 0.0f);
      out[p] = v;
    }
  }
}

// Eight-lane float epilogue for the AVX-512 variant's 256-bit halves.
// A separate function (not a lambda) because GCC lambdas do not inherit
// the enclosing function's target attribute.
__attribute__((target("avx2"))) inline __m256 conv_epilogue8(
    __m256 v, float bc, const float* bn_mean, const float* bn_invstd,
    const float* bn_gamma, const float* bn_beta, bool relu, int c) {
  v = _mm256_add_ps(v, _mm256_set1_ps(bc));
  if (bn_mean != nullptr) {
    v = _mm256_sub_ps(v, _mm256_set1_ps(bn_mean[c]));
    v = _mm256_mul_ps(v, _mm256_set1_ps(bn_invstd[c]));
    v = _mm256_add_ps(_mm256_mul_ps(v, _mm256_set1_ps(bn_gamma[c])),
                      _mm256_set1_ps(bn_beta[c]));
  }
  if (relu) v = _mm256_max_ps(_mm256_setzero_ps(), v);
  return v;
}

// Sixteen pixels per iteration (two zmm accumulators), then the avx2-width
// eight-pixel tail, then scalar.
__attribute__((target("avx2,avx512f"))) void conv_avx512(
    const float* colsT, const double* w, const float* bias,
    const float* bn_mean, const float* bn_invstd, const float* bn_gamma,
    const float* bn_beta, bool relu, float* y, int m, int k, int n) {
  for (int c = 0; c < n; ++c) {
    const double* wrow = w + static_cast<std::size_t>(c) * k;
    const float bc = bias[c];
    float* out = y + static_cast<std::size_t>(c) * m;
    int p = 0;
    for (; p + 16 <= m; p += 16) {
      __m512d a0 = _mm512_setzero_pd();
      __m512d a1 = _mm512_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m512d wv = _mm512_set1_pd(wrow[kk]);
        const float* xp = colsT + static_cast<std::size_t>(kk) * m + p;
        a0 = _mm512_add_pd(
            a0, _mm512_mul_pd(_mm512_cvtps_pd(_mm256_loadu_ps(xp)), wv));
        a1 = _mm512_add_pd(
            a1, _mm512_mul_pd(_mm512_cvtps_pd(_mm256_loadu_ps(xp + 8)), wv));
      }
      _mm256_storeu_ps(
          out + p, conv_epilogue8(_mm512_cvtpd_ps(a0), bc, bn_mean, bn_invstd,
                                  bn_gamma, bn_beta, relu, c));
      _mm256_storeu_ps(out + p + 8,
                       conv_epilogue8(_mm512_cvtpd_ps(a1), bc, bn_mean,
                                      bn_invstd, bn_gamma, bn_beta, relu, c));
    }
    for (; p + 8 <= m; p += 8) {
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      for (int kk = 0; kk < k; ++kk) {
        const __m256d wv = _mm256_set1_pd(wrow[kk]);
        const float* xp = colsT + static_cast<std::size_t>(kk) * m + p;
        a0 = _mm256_add_pd(
            a0, _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(xp)), wv));
        a1 = _mm256_add_pd(
            a1, _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(xp + 4)), wv));
      }
      const __m256 v =
          _mm256_set_m128(_mm256_cvtpd_ps(a1), _mm256_cvtpd_ps(a0));
      _mm256_storeu_ps(out + p, conv_epilogue8(v, bc, bn_mean, bn_invstd,
                                               bn_gamma, bn_beta, relu, c));
    }
    for (; p < m; ++p) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(colsT[static_cast<std::size_t>(kk) * m + p]) *
               wrow[kk];
      float v = static_cast<float>(acc) + bc;
      if (bn_mean != nullptr) {
        const float xh = (v - bn_mean[c]) * bn_invstd[c];
        v = bn_gamma[c] * xh + bn_beta[c];
      }
      if (relu) v = std::max(v, 0.0f);
      out[p] = v;
    }
  }
}

#endif  // x86_64 && GNUC

#undef OREV_SERVE_STAGE_BODY

void conv_generic(const float* colsT, const double* w, const float* bias,
                  const float* bn_mean, const float* bn_invstd,
                  const float* bn_gamma, const float* bn_beta, bool relu,
                  float* y, int m, int k, int n) {
  for (int c = 0; c < n; ++c) {
    const double* wrow = w + static_cast<std::size_t>(c) * k;
    const float bc = bias[c];
    float* out = y + static_cast<std::size_t>(c) * m;
    for (int p = 0; p < m; ++p) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk)
        acc += static_cast<double>(colsT[static_cast<std::size_t>(kk) * m + p]) *
               wrow[kk];
      float v = static_cast<float>(acc) + bc;
      if (bn_mean != nullptr) {
        const float xh = (v - bn_mean[c]) * bn_invstd[c];
        v = bn_gamma[c] * xh + bn_beta[c];
      }
      if (relu) v = std::max(v, 0.0f);
      out[p] = v;
    }
  }
}

}  // namespace

int isa_level() {
#if defined(__x86_64__) && defined(__GNUC__)
  static const int isa = [] {
    if (__builtin_cpu_supports("avx512f")) return 2;
    if (__builtin_cpu_supports("avx2")) return 1;
    return 0;
  }();
  return isa;
#else
  return 0;
#endif
}

void dense_stage(const float* x, const double* bt, const float* bias,
                 bool relu, float* y, int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2) {
    stage_avx512(x, bt, bias, relu, y, m, k, n);
    return;
  }
  if (isa == 1) {
    stage_avx2(x, bt, bias, relu, y, m, k, n);
    return;
  }
#endif
  stage_generic(x, bt, bias, relu, y, m, k, n);
}

void conv_stage(const float* colsT, const double* w, const float* bias,
                const float* bn_mean, const float* bn_invstd,
                const float* bn_gamma, const float* bn_beta, bool relu,
                float* y, int m, int k, int n) {
#if defined(__x86_64__) && defined(__GNUC__)
  const int isa = isa_level();
  if (isa == 2) {
    conv_avx512(colsT, w, bias, bn_mean, bn_invstd, bn_gamma, bn_beta, relu,
                y, m, k, n);
    return;
  }
  if (isa == 1) {
    conv_avx2(colsT, w, bias, bn_mean, bn_invstd, bn_gamma, bn_beta, relu, y,
              m, k, n);
    return;
  }
#endif
  conv_generic(colsT, w, bias, bn_mean, bn_invstd, bn_gamma, bn_beta, relu, y,
               m, k, n);
}

void im2col_f32_t(const float* src, int c_in, int h, int w, int k, int stride,
                  int pad, int oh, int ow, float* colsT) {
  const int m = oh * ow;
  int kk = 0;
  for (int c = 0; c < c_in; ++c) {
    const float* plane = src + static_cast<std::size_t>(c) * h * w;
    for (int ky = 0; ky < k; ++ky) {
      for (int kx = 0; kx < k; ++kx, ++kk) {
        float* row = colsT + static_cast<std::size_t>(kk) * m;
        int p = 0;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) {
            for (int ox = 0; ox < ow; ++ox) row[p++] = 0.0f;
            continue;
          }
          const float* srow = plane + static_cast<std::size_t>(iy) * w;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            row[p++] = (ix >= 0 && ix < w) ? srow[ix] : 0.0f;
          }
        }
      }
    }
  }
}

}  // namespace orev::serve::kernels
