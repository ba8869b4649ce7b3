// Compiled inference plans for the serving engine (DESIGN.md §12).
//
// A ServeEngine replica is "compiled" once at engine construction:
// CompiledPlan compiles a flat Sequential of Conv2D / DepthwiseConv2D /
// MaxPool2D / BatchNorm / ReLU / Flatten / Dropout / Dense layers over a
// [C, H, W] (or flat [F]) input into a fused stage list. One compiler
// serves both victims: the KPM DNN (a flat Dense/ReLU stack) and the
// spectrogram CNN.
//
//   * im2col patch packing into per-plan scratch allocated once;
//   * the shared double-accumulating GEMM microkernels
//     (serve/kernels.hpp — scalar/AVX2/AVX-512 with runtime dispatch,
//     separate mul+add, never FMA);
//   * bias, BatchNorm and ReLU folded into each stage's output loop as
//     the *exact* float op sequence of the layer walk. BatchNorm folding
//     is epilogue fusion, not algebraic weight folding: rescaling the
//     weights would re-round every product and break bit-exactness, so
//     the fused epilogue evaluates (v − mean)·invstd·γ + β literally,
//     with invstd snapshotted as 1.0f/sqrt(var + eps) — the same float
//     ops nn::BatchNorm performs at inference. A BatchNorm that is not
//     directly after a conv/depthwise/dense stage (or whose stage already
//     fused a ReLU) runs as a standalone stage instead — also bit-exact,
//     just unfused.
//
// Every output element performs the identical sequence of IEEE operations
// the layer walk performs — double-accumulated dot products in
// ascending-k order, a cast to float, then the walk's exact float
// epilogue ops — so the plan is byte-identical to nn::Model::predict at
// every thread count (flat plans run batch-major on the calling thread;
// spatial plans run sample-parallel with disjoint per-sample scratch
// slices; see util/thread_pool design rule), locked down by
// tests/test_serve.cpp and tests/test_compiled_cnn.cpp. What compilation
// removes is everything *around* the arithmetic: per-call weight packing,
// per-layer tensor allocation, activation-cache copies and dynamic
// per-layer dispatch. Architectures or states outside the supported set are
// rejected with a typed CompileFailure — never an exception — and the
// engine falls back to the layer walk. Compilation requires the model to
// be inference-locked, because the plan snapshots BatchNorm running
// statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace orev::serve {

/// Why a model could not be compiled. Plans *never* throw out of compile:
/// any architecture or state the compiler does not support is reported as
/// one of these codes and the engine falls back to the generic layer walk.
enum class CompileError {
  kOk = 0,
  kNonSequentialRoot,   // root layer is not a flat nn::Sequential
  kUnsupportedLayer,    // Residual / DenseConcat / GlobalAvgPool / ...
  kNotInferenceMode,    // model not locked; BN stats could still move
  kBadDims,             // zero/negative extents, output collapses, no stages
  kShapeMismatch,       // layer widths/channels do not chain together
  kNonFiniteStats,      // BatchNorm running stats produce non-finite scales
};

const char* compile_error_name(CompileError e);

/// Typed compile failure: code plus a human-readable detail string.
struct CompileFailure {
  CompileError code = CompileError::kOk;
  std::string detail;
};

/// One fused stage of a compiled plan. Spatial stages carry
/// [c, h, w] geometry; flat (post-Flatten) stages put the feature count in
/// `*_c` with h = w = 1.
struct PlanStage {
  enum class Kind { kConv, kDepthwise, kDense, kPool, kBatchNorm, kRelu };
  Kind kind = Kind::kRelu;

  int in_c = 0, in_h = 1, in_w = 1;
  int out_c = 0, out_h = 1, out_w = 1;
  int k = 0, stride = 1, pad = 0;

  /// Dense-only: the walk adds a Dense bias only when present, while a
  /// Conv2D *always* adds its bias term (0.0f when bias-less — which is
  /// not a no-op in IEEE arithmetic: it flips -0.0 to +0.0).
  bool has_bias = false;

  /// Weights pre-widened to double for the GEMM kernels: conv keeps the
  /// natural [out_c, patch] layout (conv_stage's pixel lanes), dense packs
  /// W^T as [in, out] (dense_stage's column tiles). Empty otherwise.
  std::vector<double> bt;
  /// Depthwise-only: raw float filter taps in natural [c, k*k] layout.
  /// Empty otherwise.
  std::vector<float> weight;
  /// Conv/depthwise: always sized out_c (zero-filled when bias-less).
  /// Dense: empty when has_bias is false.
  std::vector<float> bias;

  bool bn = false;
  std::vector<float> bn_mean, bn_invstd, bn_gamma, bn_beta;
  bool relu = false;

  std::size_t in_elems() const {
    return static_cast<std::size_t>(in_c) * in_h * in_w;
  }
  std::size_t out_elems() const {
    return static_cast<std::size_t>(out_c) * out_h * out_w;
  }
  bool is_gemm() const {
    return kind == Kind::kConv || kind == Kind::kDepthwise ||
           kind == Kind::kDense;
  }
};

/// A compiled plan owns mutable scratch, so it is not thread-safe — each
/// engine replica owns its own plan. The plan snapshots the weights: it
/// must be rebuilt if they change (engine replicas are inference-locked,
/// so they never do).
class CompiledPlan {
 public:
  struct CompileResult {
    /// Present iff failure.code == kOk.
    std::unique_ptr<CompiledPlan> plan;
    CompileFailure failure;
  };

  /// Compile `model` (which must be inference-locked) or report a typed
  /// failure. Never throws for architecture/state reasons.
  static CompileResult compile(nn::Model& model);

  /// Batched argmax predictions; bit-identical to nn::Model::predict.
  std::vector<int> predict(const nn::Tensor& batch);

  /// Same, over a raw row-major [m, input_features] float buffer (inputs
  /// of any rank as contiguous rows), writing m predictions to `out`. The
  /// logits stay in plan scratch, so a warm plan allocates nothing.
  void predict_rows(const float* rows, int m, int* out);

  /// Raw [m, num_classes] logits — the differential test harness compares
  /// these byte-for-byte against the layer walk.
  nn::Tensor logits(const nn::Tensor& batch);
  nn::Tensor logits_rows(const float* rows, int m);

  int input_features() const { return in0_; }
  int num_classes() const { return classes_; }

 private:
  CompiledPlan() = default;
  /// Callers size the scratch (ensure_scratch) before run_batch.
  void run_batch(const float* rows, int m, float* logits_out);
  void ensure_scratch(int m);

  std::vector<PlanStage> stages_;
  int in0_ = 0;
  int classes_ = 0;
  bool flat_input_ = false;    // [F] input: Dense / BatchNorm / ReLU only
  std::size_t max_elems_ = 0;  // widest stage boundary, per sample
  std::size_t cols_cap_ = 0;   // widest im2col matrix, per sample
  std::vector<float> buf_a_, buf_b_, cols_, logits_;
};

}  // namespace orev::serve
