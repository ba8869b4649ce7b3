// Differential lockdown for the compiled conv-chain plans (DESIGN.md §12).
//
// Three suites:
//   * CompiledCnnDifferential — randomized Conv/DepthwiseConv/Pool/BN/Dense
//     architectures (seeded shapes, strides, paddings, odd channel counts)
//     whose compiled logits must be byte-identical to the layer walk at
//     1 and 4 threads, including every SIMD remainder width;
//   * CompiledCnnErrors — property tests that unsupported layers, collapsed
//     dims and inference-mode violations come back as *typed* compile
//     failures, never a crash or exception;
//   * ServeCheckpoint — nn/serialize round-trip for Conv2D /
//     DepthwiseConv2D / BatchNorm state in serving checkpoints, and a
//     committed golden CNN checkpoint whose compiled predictions are
//     locked byte-for-byte (regenerate with OREV_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "apps/model_zoo.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "serve/serve.hpp"
#include "test_helpers.hpp"
#include "util/csv.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

#ifndef OREV_GOLDEN_DIR
#error "OREV_GOLDEN_DIR must be defined by the build"
#endif

namespace orev {
namespace {

using serve::compile_error_name;
using serve::CompiledPlan;
using serve::CompileError;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

std::string tensor_digest(const nn::Tensor& t) {
  Sha256 h;
  h.update(t.raw(), t.numel() * sizeof(float));
  return Sha256::to_hex(h.finish());
}

void fill_uniform(nn::Tensor& t, Rng& rng, float lo, float hi) {
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform(lo, hi);
}

/// Move BatchNorm running stats off their init values the way a trained
/// model would look, then lock the model for inference.
void warm_and_lock(nn::Model& m, std::uint64_t seed, int batch = 8) {
  Rng rng(seed);
  nn::Shape shape = m.input_shape();
  shape.insert(shape.begin(), batch);
  nn::Tensor x(shape);
  for (int e = 0; e < 2; ++e) {
    fill_uniform(x, rng, -1.0f, 1.0f);
    m.forward(x, /*training=*/true);
  }
  m.set_inference_only(true);
}

nn::Tensor random_batch(const nn::Model& m, int rows, std::uint64_t seed,
                        float lo = -1.0f, float hi = 1.0f) {
  nn::Shape shape = m.input_shape();
  shape.insert(shape.begin(), rows);
  nn::Tensor x(shape);
  Rng rng(seed);
  fill_uniform(x, rng, lo, hi);
  return x;
}

/// Randomized conv-chain generator. Odd channel counts and spatial sizes
/// on purpose: they drive the pixel-vectorized conv kernel through its
/// 16-wide, 8-wide and scalar remainder paths, and the dense kernel
/// through its column remainders. Every architecture is valid by
/// construction (spatial dims are tracked so no stage collapses).
nn::Model random_cnn_model(std::uint64_t seed) {
  Rng rng(seed);
  const int c0 = rng.uniform_int(1, 3);
  const int hw0 = rng.uniform_int(7, 13);
  int c = c0, h = hw0, w = hw0;

  auto seq = std::make_unique<nn::Sequential>();
  const int blocks = rng.uniform_int(1, 3);
  for (int b = 0; b < blocks; ++b) {
    const int k = rng.uniform_int(1, std::min(3, std::min(h, w)));
    const int pad = k > 1 ? rng.uniform_int(0, 1) : 0;
    int stride = rng.uniform_int(1, 2);
    if ((h + 2 * pad - k) / stride + 1 < 1) stride = 1;
    const int oh = (h + 2 * pad - k) / stride + 1;
    const int ow = (w + 2 * pad - k) / stride + 1;
    if (rng.uniform() < 0.3f) {
      seq->emplace<nn::DepthwiseConv2D>(c, k, stride, pad);
    } else {
      const int oc = rng.uniform_int(3, 9);  // odd counts included
      seq->emplace<nn::Conv2D>(c, oc, k, stride, pad,
                               /*bias=*/rng.uniform() < 0.7f);
      c = oc;
    }
    h = oh;
    w = ow;
    if (rng.uniform() < 0.5f) seq->emplace<nn::BatchNorm>(c);
    if (rng.uniform() < 0.75f) seq->emplace<nn::ReLU>();
    if (h >= 4 && w >= 4 && rng.uniform() < 0.5f) {
      seq->emplace<nn::MaxPool2D>(2);
      h /= 2;
      w /= 2;
    }
  }
  seq->emplace<nn::Flatten>();
  const int hidden = rng.uniform_int(9, 21);
  const int classes = rng.uniform_int(2, 5);
  seq->emplace<nn::Dense>(c * h * w, hidden);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(hidden, classes, /*bias=*/rng.uniform() < 0.5f);

  nn::Model m("RandCnn", std::move(seq), {c0, hw0, hw0}, classes);
  m.init(rng);
  warm_and_lock(m, seed ^ 0xb00f);
  return m;
}

// ---------------------------------------------- differential harness --

TEST(CompiledCnnDifferential, RandomArchitecturesByteIdenticalAtOneAndFourThreads) {
  ThreadGuard guard;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    nn::Model m = random_cnn_model(seed);
    CompiledPlan::CompileResult r = CompiledPlan::compile(m);
    ASSERT_NE(r.plan, nullptr)
        << "seed " << seed << ": " << compile_error_name(r.failure.code)
        << " — " << r.failure.detail;

    const nn::Tensor batch = random_batch(m, 13, seed * 7919u);
    const nn::Tensor walk = m.forward(batch, /*training=*/false);

    util::set_num_threads(1);
    const nn::Tensor lg1 = r.plan->logits(batch);
    util::set_num_threads(4);
    const nn::Tensor lg4 = r.plan->logits(batch);

    ASSERT_EQ(lg1.numel(), walk.numel()) << "seed " << seed;
    EXPECT_EQ(std::memcmp(lg1.raw(), walk.raw(),
                          walk.numel() * sizeof(float)),
              0)
        << "seed " << seed << ": compiled logits differ from the layer walk";
    EXPECT_EQ(std::memcmp(lg1.raw(), lg4.raw(),
                          walk.numel() * sizeof(float)),
              0)
        << "seed " << seed << ": thread count changed the compiled bits";
    EXPECT_EQ(r.plan->predict(batch), m.predict(batch)) << "seed " << seed;
  }
}

TEST(CompiledCnnDifferential, IcXappCnnMatchesWalkAtServingBatchSizes) {
  nn::Model m = apps::make_base_cnn({1, 16, 16}, 4, /*seed=*/29);
  m.set_inference_only(true);
  CompiledPlan::CompileResult r = CompiledPlan::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;
  for (const int rows : {1, 3, 32}) {
    const nn::Tensor batch =
        random_batch(m, rows, 0x1c0de + static_cast<std::uint64_t>(rows),
                     0.0f, 1.0f);
    const nn::Tensor walk = m.forward(batch, /*training=*/false);
    const nn::Tensor lg = r.plan->logits(batch);
    EXPECT_EQ(
        std::memcmp(lg.raw(), walk.raw(), walk.numel() * sizeof(float)), 0)
        << "rows=" << rows;
  }
}

TEST(CompiledCnnDifferential, HandBuiltDepthwiseBnChainExercisesEveryFusion) {
  // Bias-less conv, fused BN after conv and after depthwise, a standalone
  // BN after a pool (no GEMM host to fuse into), and a trailing ReLU.
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(2, 5, 3, /*stride=*/1, /*padding=*/1,
                           /*bias=*/false);
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::DepthwiseConv2D>(5, 3, /*stride=*/2, /*padding=*/1);
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::MaxPool2D>(2);
  seq->emplace<nn::BatchNorm>(5);
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Dense>(5 * 2 * 2, 3);
  nn::Model m("FusionChain", std::move(seq), {2, 9, 9}, 3);
  Rng rng(0xf0f0);
  m.init(rng);
  warm_and_lock(m, 0xf1f1);

  CompiledPlan::CompileResult r = CompiledPlan::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;

  ThreadGuard guard;
  const nn::Tensor batch = random_batch(m, 17, 0xabcd);
  const nn::Tensor walk = m.forward(batch, /*training=*/false);
  util::set_num_threads(1);
  const std::string d1 = tensor_digest(r.plan->logits(batch));
  util::set_num_threads(4);
  const std::string d4 = tensor_digest(r.plan->logits(batch));
  EXPECT_EQ(d1, tensor_digest(walk));
  EXPECT_EQ(d1, d4);
}

/// Compile `m` (locked for inference) and demand its logits for `batch`
/// are bit-identical to the layer walk's, NaN payloads and zero signs
/// included. Returns the walk's output for further checks.
nn::Tensor expect_plan_matches_walk_bits(nn::Model& m,
                                         const nn::Tensor& batch) {
  m.set_inference_only(true);
  CompiledPlan::CompileResult r = CompiledPlan::compile(m);
  EXPECT_NE(r.plan, nullptr) << r.failure.detail;
  const nn::Tensor walk = m.forward(batch, /*training=*/false);
  if (r.plan == nullptr) return walk;
  const nn::Tensor lg = r.plan->logits(batch);
  EXPECT_EQ(lg.numel(), walk.numel());
  for (std::size_t i = 0; i < walk.numel(); ++i) {
    std::uint32_t a = 0, b = 0;
    std::memcpy(&a, &lg.raw()[i], sizeof a);
    std::memcpy(&b, &walk.raw()[i], sizeof b);
    EXPECT_EQ(a, b) << m.name() << " element " << i << ": plan "
                    << lg.raw()[i] << " vs walk " << walk.raw()[i];
  }
  return walk;
}

bool has_bits(const nn::Tensor& t, float v) {
  for (std::size_t i = 0; i < t.numel(); ++i)
    if (std::memcmp(&t.raw()[i], &v, sizeof v) == 0) return true;
  return false;
}

TEST(CompiledCnnDifferential, FusedReluKeepsNanAndSignedZeroLikeTheWalk) {
  // The walk's ReLU is std::max(v, 0.0f): NaN and -0.0 pass through,
  // -inf becomes 0. Every SIMD lane and every scalar tail column of the
  // fused epilogues must agree bit for bit.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {nan, 0.0f, -0.0f, inf, -inf, 1.5f,
                                       -2.5f};

  // Dense stage, 55 columns: the AVX-512 32-wide tile, a 16-wide tile
  // (three for AVX2) and a 7-column scalar tail. Weight -1e-25 times
  // input 1e-25 accumulates -1e-50, which rounds to -0.0f; each column's
  // bias then sets its pre-activation to one of the specials.
  {
    constexpr int kCols = 55;
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Dense>(1, kCols);
    seq->emplace<nn::ReLU>();
    nn::Model m("ReluDense", std::move(seq), {1}, kCols);
    const std::vector<nn::Param*> ps = m.params();
    ASSERT_EQ(ps.size(), 2u);
    for (int j = 0; j < kCols; ++j) {
      ps[0]->value[static_cast<std::size_t>(j)] = -1e-25f;
      ps[1]->value[static_cast<std::size_t>(j)] =
          specials[static_cast<std::size_t>(j) % specials.size()];
    }
    const nn::Tensor batch({3, 1}, {1e-25f, -1e-25f, 0.75f});
    const nn::Tensor walk = expect_plan_matches_walk_bits(m, batch);
    EXPECT_TRUE(has_bits(walk, -0.0f));
    EXPECT_TRUE(std::isnan(walk[0]));
  }

  // Conv stage, 29 output pixels: a 16-pixel AVX-512 block, an 8-pixel
  // block and a 5-pixel scalar tail. A 1x1 filter of 1e-25 and bias
  // -0.0f map each input pixel to its pre-activation (-1e-25 → -0.0f).
  {
    constexpr int kPixels = 29;
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 1, /*kernel=*/1);
    seq->emplace<nn::ReLU>();
    seq->emplace<nn::Flatten>();
    nn::Model m("ReluConv", std::move(seq), {1, 1, kPixels}, kPixels);
    const std::vector<nn::Param*> ps = m.params();
    ASSERT_EQ(ps.size(), 2u);
    ps[0]->value[0] = 1e-25f;
    ps[1]->value[0] = -0.0f;
    nn::Tensor batch({2, 1, 1, kPixels});
    for (int p = 0; p < kPixels; ++p) {
      const float v = specials[static_cast<std::size_t>(p) % specials.size()];
      batch[static_cast<std::size_t>(p)] = v == 0.0f && std::signbit(v)
                                               ? -1e-25f
                                               : v;
      batch[static_cast<std::size_t>(kPixels + p)] =
          specials[static_cast<std::size_t>(p + 3) % specials.size()];
    }
    const nn::Tensor walk = expect_plan_matches_walk_bits(m, batch);
    EXPECT_TRUE(has_bits(walk, -0.0f));
    EXPECT_TRUE(std::isnan(walk[0]));
  }
}

// ------------------------------------------------- typed compile errors --

void expect_failure(nn::Model& m, CompileError code) {
  CompiledPlan::CompileResult r;
  EXPECT_NO_THROW(r = CompiledPlan::compile(m));
  EXPECT_EQ(r.plan, nullptr);
  EXPECT_EQ(r.failure.code, code)
      << "got " << compile_error_name(r.failure.code) << " — "
      << r.failure.detail;
  EXPECT_FALSE(r.failure.detail.empty());
  EXPECT_NE(compile_error_name(r.failure.code), nullptr);
}

TEST(CompiledCnnErrors, NonSequentialRootIsTyped) {
  nn::Model m("BareDense", std::make_unique<nn::Dense>(4, 2), {4}, 2);
  Rng rng(1);
  m.init(rng);
  m.set_inference_only(true);
  expect_failure(m, CompileError::kNonSequentialRoot);
}

TEST(CompiledCnnErrors, UnsupportedLayersAreTypedNotFatal) {
  {
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 4, 3);
    seq->emplace<nn::GlobalAvgPool>();
    seq->emplace<nn::Dense>(4, 2);
    nn::Model m("GapNet", std::move(seq), {1, 8, 8}, 2);
    Rng rng(2);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kUnsupportedLayer);
  }
  {
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Residual>(std::make_unique<nn::Dense>(4, 4));
    seq->emplace<nn::Dense>(4, 2);
    nn::Model m("ResNet", std::move(seq), {4}, 2);
    Rng rng(3);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kUnsupportedLayer);
  }
}

TEST(CompiledCnnErrors, UnlockedModelIsRejectedBecauseBnStatsCouldMove) {
  nn::Model m = apps::make_base_cnn({1, 16, 16}, 4, 29);
  ASSERT_FALSE(m.inference_only());
  expect_failure(m, CompileError::kNotInferenceMode);
}

TEST(CompiledCnnErrors, CollapsingDimsAreTyped) {
  {
    // Pool kernel larger than the spatial extent.
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::MaxPool2D>(5);
    seq->emplace<nn::Flatten>();
    seq->emplace<nn::Dense>(1, 2);
    nn::Model m("PoolCollapse", std::move(seq), {1, 4, 4}, 2);
    Rng rng(4);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kBadDims);
  }
  {
    // Conv kernel larger than the input plane.
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 3, 3);
    seq->emplace<nn::Flatten>();
    seq->emplace<nn::Dense>(3, 2);
    nn::Model m("ConvCollapse", std::move(seq), {1, 2, 2}, 2);
    Rng rng(5);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kBadDims);
  }
  {
    // No stages at all.
    nn::Model m("Empty", std::make_unique<nn::Sequential>(), {4}, 4);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kBadDims);
  }
}

TEST(CompiledCnnErrors, ShapeMismatchesAreTyped) {
  {
    // Dense over a spatial tensor (missing Flatten).
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Conv2D>(1, 4, 3);
    seq->emplace<nn::Dense>(4 * 6 * 6, 2);
    nn::Model m("NoFlatten", std::move(seq), {1, 8, 8}, 2);
    Rng rng(6);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kShapeMismatch);
  }
  {
    // Model does not end in num_classes flat logits.
    auto seq = std::make_unique<nn::Sequential>();
    seq->emplace<nn::Dense>(4, 8);
    nn::Model m("WrongTail", std::move(seq), {4}, 2);
    Rng rng(7);
    m.init(rng);
    m.set_inference_only(true);
    expect_failure(m, CompileError::kShapeMismatch);
  }
}

// --------------------------------------------- checkpoint serialization --

/// Fixed architecture for the checkpoint tests: exercises Conv2D weights,
/// DepthwiseConv2D weights and BatchNorm running-stat state (which only
/// save_state carries — it is not a Param).
nn::Model ckpt_cnn_model(std::uint64_t seed) {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Conv2D>(2, 6, 3, /*stride=*/1, /*padding=*/1);
  seq->emplace<nn::BatchNorm>(6);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::DepthwiseConv2D>(6, 3, /*stride=*/1, /*padding=*/1);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::MaxPool2D>(2);
  seq->emplace<nn::Flatten>();
  seq->emplace<nn::Dense>(6 * 4 * 4, 13);
  seq->emplace<nn::ReLU>();
  seq->emplace<nn::Dense>(13, 3);
  nn::Model m("CkptCnn", std::move(seq), {2, 8, 8}, 3);
  Rng rng(seed);
  m.init(rng);
  return m;
}

TEST(ServeCheckpoint, ConvDepthwiseBnStateRoundTripsByteExact) {
  const std::string dir = ::testing::TempDir() + "orev_cnn_ckpt";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/cnn.ckpt";

  nn::Model saved = ckpt_cnn_model(7);
  warm_and_lock(saved, 0x3a1e);  // BN stats off init before saving
  ASSERT_TRUE(saved.save(path));

  // Different init seed: every weight and BN stat must come from the file.
  nn::Model loaded = ckpt_cnn_model(8);
  ASSERT_TRUE(loaded.load(path));
  loaded.set_inference_only(true);

  const nn::Tensor batch = random_batch(saved, 11, 0xc4e);
  const nn::Tensor a = saved.forward(batch, /*training=*/false);
  const nn::Tensor b = loaded.forward(batch, /*training=*/false);
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)), 0)
      << "layer-walk logits drifted across the checkpoint round trip";

  CompiledPlan::CompileResult ps = CompiledPlan::compile(saved);
  CompiledPlan::CompileResult pl = CompiledPlan::compile(loaded);
  ASSERT_NE(ps.plan, nullptr);
  ASSERT_NE(pl.plan, nullptr);
  EXPECT_EQ(tensor_digest(ps.plan->logits(batch)),
            tensor_digest(pl.plan->logits(batch)));
}

TEST(ServeCheckpoint, GoldenCnnCheckpointPredictionsAreLocked) {
  const std::string ckpt_path =
      std::string(OREV_GOLDEN_DIR) + "/cnn_serve.ckpt";
  const std::string csv_path =
      std::string(OREV_GOLDEN_DIR) + "/cnn_serve_preds.csv";

  if (std::getenv("OREV_UPDATE_GOLDEN") != nullptr) {
    nn::Model gen = ckpt_cnn_model(42);
    warm_and_lock(gen, 0x601d);
    ASSERT_TRUE(gen.save(ckpt_path)) << "failed to write " << ckpt_path;
  }

  nn::Model m = ckpt_cnn_model(0);  // weights replaced by the golden file
  ASSERT_TRUE(m.load(ckpt_path))
      << "missing/incompatible golden checkpoint " << ckpt_path
      << " (regenerate with OREV_UPDATE_GOLDEN=1)";
  m.set_inference_only(true);
  CompiledPlan::CompileResult r = CompiledPlan::compile(m);
  ASSERT_NE(r.plan, nullptr) << r.failure.detail;

  const nn::Tensor batch = random_batch(m, 12, 0x601d2, 0.0f, 1.0f);
  const nn::Tensor lg = r.plan->logits(batch);
  EXPECT_EQ(r.plan->predict(batch), m.predict(batch));

  CsvWriter csv;
  csv.header({"sample", "prediction"});
  const std::vector<int> preds = r.plan->predict(batch);
  for (std::size_t i = 0; i < preds.size(); ++i)
    csv.row(static_cast<int>(i), preds[i]);
  csv.row("logits_sha256", tensor_digest(lg));

  if (std::getenv("OREV_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(csv.save(csv_path)) << "failed to write " << csv_path;
    SUCCEED() << "regenerated " << ckpt_path << " and " << csv_path;
    return;
  }
  std::ifstream in(csv_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << csv_path
                         << " (run with OREV_UPDATE_GOLDEN=1 to create)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), csv.str())
      << "golden CNN checkpoint predictions drifted; if the numerics change "
         "is intentional, regenerate with OREV_UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace orev
