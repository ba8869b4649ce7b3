// Gated hot-swap of the served model (DESIGN.md §15).
//
// defense::harden() produces a fine-tuned candidate from the quarantine
// loop's fine-tuning queue; this is the contract under which the engine
// promotes it into the replica pool: the candidate serves only if its
// clean accuracy stays within tolerance of the current model AND —
// when an adversarial evaluation set is given — it actually reduces the
// attack success rate by at least the configured gain. A refused swap
// rolls back completely: the current replicas keep serving, the refusal
// is counted (serve.<name>.swap_rejected) and flight-recorded.
//
// An accepted swap is epoch-versioned. The engine first drains the
// admission queue — every in-flight request completes under the model it
// was admitted against, so no batch ever straddles epochs — then clones
// the candidate into a fresh replica pool, recompiles the inference
// plans, and increments the swap epoch. The defense plane stamps the new
// epoch onto subsequent quarantine records, making "flagged under epoch
// N, reviewed under N+1" visible in every review outcome.
//
// Durability: when `checkpoint_dir` is set, an accepted swap commits the
// engine and defense-plane checkpoints before returning, then consults
// the "serve.swap" kill-point — a seeded plan can simulate the process
// dying with the swap durably recorded, and a fresh process resumes
// byte-exactly via load_status() + resume_hot_swap().
#pragma once

#include <cstdint>
#include <string>

namespace orev::serve {

/// Hot-swap policy, carried in ServeConfig.
struct SwapGateConfig {
  /// Off by default; request_hot_swap() refuses without attempting.
  bool enable = false;
  /// Gate: candidate clean accuracy may trail the current model's by at
  /// most this much.
  double tol_clean = 0.02;
  /// Gate: with an adversarial set, the candidate must cut the attack
  /// success rate by at least this much (0 = "no worse").
  double min_attack_gain = 0.0;
  /// When non-empty, accepted swaps durably commit engine + defense
  /// checkpoints into this directory before returning.
  std::string checkpoint_dir;
};

/// Outcome of one hot-swap attempt (ServeEngine::request_hot_swap).
struct SwapGateReport {
  bool attempted = false;
  bool accepted = false;
  /// Swap epoch after the attempt (unchanged when refused).
  std::uint64_t epoch = 0;
  int eval_samples = 0;
  int adv_samples = 0;
  double acc_current = 0.0, acc_candidate = 0.0;
  double asr_current = 0.0, asr_candidate = 0.0;
  /// Signed deltas: positive clean_delta = candidate lost accuracy;
  /// positive attack_delta = candidate reduced attack success.
  double clean_delta = 0.0, attack_delta = 0.0;
  std::string reason;  // human-readable gate verdict
};

}  // namespace orev::serve
