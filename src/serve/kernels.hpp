// Shared serving microkernels (DESIGN.md §11–12).
//
// The float GEMM here is the single arithmetic core of every compiled
// inference plan: y[i, j] = epilogue(sum_k double(x[i, k]) * bt[k, j]),
// with bt pre-widened to double at pack time and the epilogue (optional
// bias add, optional ReLU) applied as the exact float op sequence of the
// uncompiled layer walk. Accumulation is per-element in ascending-k order
// with separate multiply and add instructions — never FMA — so the
// scalar, AVX2 and AVX-512 variants all produce bitwise-identical output
// and the runtime ISA dispatch cannot change a single bit.
#pragma once

namespace orev::serve::kernels {

/// Fused dense stage over row-major operands: x is [m, k], bt is [k, n]
/// (the weight matrix transposed and widened to double), y is [m, n].
/// `bias` may be null (skip the add); `relu` fuses max(·, 0).
/// Bit-identical to nn::matmul_bt followed by the walk's epilogue loops.
void dense_stage(const float* x, const double* bt, const float* bias,
                 bool relu, float* y, int m, int k, int n);

/// Fused convolution stage over a *transposed* patch matrix: colsT is
/// [k, m] (m = oh*ow output pixels), w is the natural [n, k] filter bank
/// widened to double, y is [n, m] channel planes. Per output element the
/// op sequence is the same double-accumulate/cast as dense_stage, then
/// float `+ bias[c]` (always — nn::Conv2D adds its possibly-zero bias
/// unconditionally), then the optional fused BatchNorm
/// ((v − mean)·invstd·γ + β; pass null bn_mean to skip) and ReLU. The
/// SIMD variants vectorize across *pixels*, giving each lane its own
/// ascending-k accumulator — conv channel counts are far too narrow for
/// the column-tiled dense kernel to vectorize.
void conv_stage(const float* colsT, const double* w, const float* bias,
                const float* bn_mean, const float* bn_invstd,
                const float* bn_gamma, const float* bn_beta, bool relu,
                float* y, int m, int k, int n);

/// Transposed im2col for one [C, H, W] sample: the patch values of the
/// nn::Conv2D forward path (explicit zero padding, (c, ky, kx) patch
/// order), laid out [C*k*k, oh*ow] so conv_stage's pixel lanes read
/// contiguously. Layout is internal to the plan — only values, never
/// layout, affect the bit-exactness contract.
void im2col_f32_t(const float* src, int c_in, int h, int w, int k, int stride,
                  int pad, int oh, int ow, float* colsT);

/// Selected ISA for the dispatched kernels: 0 scalar, 1 AVX2, 2 AVX-512.
int isa_level();

}  // namespace orev::serve::kernels
