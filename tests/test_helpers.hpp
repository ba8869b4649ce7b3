// Shared fixtures for the test suite: tiny datasets and models that train
// in milliseconds, plus a hand-weighted linear model whose decision
// boundary is known exactly (for attack-conformance tests), and a strict
// JSON validator for the documents util/json writes.
#pragma once

#include <cctype>
#include <memory>
#include <string>

#include "apps/model_zoo.hpp"
#include "data/dataset.hpp"
#include "nn/layers.hpp"
#include "nn/trainer.hpp"
#include "ran/datasets.hpp"

namespace orev::test {

/// Small spectrogram config (16×16) for fast conv-model tests.
inline ran::SpectrogramConfig tiny_spectrogram_config() {
  ran::SpectrogramConfig cfg;
  cfg.freq_bins = 16;
  cfg.time_frames = 16;
  return cfg;
}

inline data::Dataset tiny_spectrogram_dataset(int per_class = 40,
                                              std::uint64_t seed = 99) {
  return ran::make_spectrogram_dataset(tiny_spectrogram_config(), per_class,
                                       seed);
}

/// A 2-feature, 2-class linearly separable blob dataset. Class 0 is
/// centred at (0.3, 0.3), class 1 at (0.7, 0.7); margin >> noise.
inline data::Dataset blob_dataset(int per_class = 50,
                                  std::uint64_t seed = 7) {
  Rng rng(seed);
  data::Dataset d;
  d.num_classes = 2;
  d.x = nn::Tensor({2 * per_class, 2});
  for (int i = 0; i < 2 * per_class; ++i) {
    const bool hi = i >= per_class;
    const float cx = hi ? 0.7f : 0.3f;
    d.x.at2(i, 0) = cx + rng.normal(0.0f, 0.05f);
    d.x.at2(i, 1) = cx + rng.normal(0.0f, 0.05f);
    d.y.push_back(hi ? 1 : 0);
  }
  d.x.clamp(0.0f, 1.0f);
  return d;
}

/// A linear 2→2 model with hand-set weights whose decision rule is
/// exactly "class 1 iff x0 + x1 > 1": logits = W x with
/// W = [[-s, -s], [s, s]] and biases [s, -s].
inline nn::Model known_linear_model(float scale = 8.0f) {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(2, 2);
  nn::Model m("KnownLinear", std::move(seq), {2}, 2);
  std::vector<nn::Tensor> w;
  w.push_back(nn::Tensor({2, 2}, {-scale, -scale, scale, scale}));
  w.push_back(nn::Tensor({2}, {scale, -scale}));
  m.set_weights(w);
  return m;
}

/// Train a model briefly on a dataset; returns final validation accuracy.
inline double quick_fit(nn::Model& m, const data::Dataset& d,
                        int epochs = 40, float lr = 2e-2f) {
  Rng rng(3);
  const data::Split s = data::stratified_split(d, 0.75, rng);
  nn::TrainConfig cfg;
  cfg.max_epochs = epochs;
  cfg.learning_rate = lr;
  nn::Trainer t(cfg);
  const nn::TrainReport r = t.fit(m, s.train.x, s.train.y, s.test.x, s.test.y);
  return r.best_val_accuracy;
}

// Strict-enough recursive-descent JSON checker: objects, arrays, strings
// with escapes, numbers, true/false/null. Returns true iff the whole
// input is exactly one valid JSON value. No external dependency needed.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(',')) { ++pos_; continue; }
      if (peek('}')) { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(',')) { ++pos_; continue; }
      if (peek(']')) { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (!peek('"')) return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek('-')) ++pos_;
    if (!digits()) return false;
    if (peek('.')) {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++pos_;
      if (peek('+') || peek('-')) ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    return true;
  }

  bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace orev::test
