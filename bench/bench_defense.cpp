// Defense-plane benchmark (DESIGN.md §14): detection quality and
// determinism of the serving engine's inline adversarial defense.
//
// Workload: a labeled attacker-in-the-fleet stream
// (attack::make_labeled_traffic) — per-flow clean KPM random walks with a
// seeded schedule of FGSM (input-specific PGM) and UAP slots hidden among
// them — served through a defense-enabled ServeEngine whose three
// detectors were calibrated on the stream's clean warmup window. The
// adversarial slots contend with the clean fleet traffic for the same
// micro-batcher, queue and replicas (the attack-contention condition).
//
// The bench asserts the defense claims:
//   * detection — ranking requests by their combined defense score
//     separates each attack family from clean traffic with ROC AUC at
//     least --min-auc (committed: 0.9 for FGSM and UAP), both in the
//     contention phase and re-run under the committed chaos plan
//     (serve.admit / serve.batch faults rerouting rows through the
//     degraded-sync path);
//   * determinism — the full decision stream (status, prediction, score)
//     is byte-identical at 1 and 4 threads, in both phases, and the
//     quarantine-burst flight trigger fires on the sustained attack;
//   * hardening — the quarantined samples accumulated in the fine-tuning
//     queue let defense::harden() raise the victim's agreement with the
//     flows' reference labels on exactly those adversarial points;
//   * the closed loop (DESIGN.md §15) — with adaptive thresholds, the
//     review/release cadence and the gated hot-swap all active, detection
//     stays at --min-auc-loop (committed: 0.99), at least one quarantined
//     false positive is released, the mid-stream hardened swap passes the
//     gate (and an untrained impostor bounces off it with the fleet still
//     serving), the full decision + release + threshold stream stays
//     byte-identical at 1 and 4 threads, a kill-point fired right after
//     the swap's durable commit resumes byte-exactly from the committed
//     checkpoints, and the whole loop costs at most --max-p99-overhead
//     extra p99 virtual latency over a defenseless engine.
//
// Output: a deterministic JSON report (schema "orev-defense-bench-v2",
// no wall-clock fields — CI runs the bench twice and byte-diffs) plus a
// stdout summary. Exit is non-zero when any gate fails.
//
// Flags: --flows N  --warmup N  --rounds N  --attack-fraction F  --eps E
//        --min-auc A  --min-auc-loop A  --max-p99-overhead F
//        --ckpt-dir DIR  --report-out FILE   (plus the common --threads /
//        --metrics-out / --trace-out / --flight-dir flags via ObsGuard).
#include <algorithm>
#include <cstdlib>
#include <utility>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "attack/adv_traffic.hpp"
#include "attack/pgm.hpp"
#include "bench_common.hpp"
#include "defense/defenses.hpp"
#include "defense/detectors.hpp"
#include "serve/serve.hpp"
#include "util/persist/bytes.hpp"
#include "util/sha256.hpp"

namespace {

using namespace orev;
using namespace orev::bench;

constexpr int kFeatures = 4;
constexpr int kClasses = 4;

struct Flags {
  int flows = 12;
  int warmup = 10;
  int rounds = 36;
  double attack_fraction = 0.3;
  float eps = 0.1f;
  /// ROC gate applied per attack family and per phase; 0 = report only.
  double min_auc = 0.9;
  /// ROC gate for the closed-loop phase (adaptive thresholds + review +
  /// hot-swap active); 0 = report only.
  double min_auc_loop = 0.99;
  /// Largest tolerated relative p99 latency cost of the full closed-loop
  /// defense vs the same engine with the plane disabled; 0 = report only.
  double max_p99_overhead = 0.05;
  std::string report_out = "bench_results/defense_report.json";
  std::string ckpt_dir = "bench_results/defense_ckpt";
};

Flags parse_flags(int& argc, char** argv) {
  Flags f;
  scan_flags(argc, argv,
             {{"--flows", f.flows},
              {"--warmup", f.warmup},
              {"--rounds", f.rounds},
              {"--attack-fraction", f.attack_fraction},
              {"--eps", f.eps},
              {"--min-auc", f.min_auc},
              {"--min-auc-loop", f.min_auc_loop},
              {"--max-p99-overhead", f.max_p99_overhead},
              {"--ckpt-dir", f.ckpt_dir},
              {"--report-out", f.report_out}});
  return f;
}

/// Synthetic KPM task over the traffic's [0, 1]^4 range: the class is the
/// argmax feature. Gives the victim real decision boundaries for the
/// attacks to cross and the distilled sibling something to disagree about.
data::Dataset argmax_dataset(int n, std::uint64_t seed) {
  const Rng base(seed);
  data::Dataset d;
  d.num_classes = kClasses;
  d.x = nn::Tensor({n, kFeatures});
  d.y.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Rng rng = base.split(static_cast<std::uint64_t>(i));
    int best = 0;
    for (int j = 0; j < kFeatures; ++j) {
      d.x.at2(i, j) = rng.uniform(0.0f, 1.0f);
      if (d.x.at2(i, j) > d.x.at2(i, best)) best = j;
    }
    d.y[static_cast<std::size_t>(i)] = best;
  }
  return d;
}

/// Outcome of serving the labeled stream through one defense-enabled
/// engine. Every field is a pure function of (traffic, config, plan).
struct DefenseRun {
  /// Combined defense score per scored (post-warmup) request, in
  /// submission order; −1 prediction rows included.
  std::vector<double> scores;
  std::vector<attack::TrafficLabel> labels;
  /// Rows the engine shed without screening (excluded from ROC).
  std::vector<bool> screened_row;
  std::string digest;  // SHA-256 over (status, prediction, score) rows
  std::uint64_t screened = 0;
  std::uint64_t flagged = 0;
  std::uint64_t quarantined_status = 0;
  std::uint64_t bursts = 0;
  serve::SloSnapshot slo;
  defense::FineTuneQueue finetune{1};
  std::size_t finetune_size = 0;
  std::uint64_t finetune_dropped = 0;
};

serve::ServeConfig defense_engine_config(const std::string& name) {
  serve::ServeConfig cfg;
  cfg.name = name;
  cfg.batch_max = 16;
  cfg.deadline_us = 1000000;  // latency is not under test here
  cfg.flush_wait_us = 2000;
  cfg.replicas = 2;
  cfg.defense.enable = true;
  // Burst trigger sized for the stream: flagged fraction under a 0.3
  // attack fraction crosses 0.2 over a 32-request window quickly.
  cfg.defense.burst_window = 32;
  cfg.defense.burst_threshold = 0.2;
  cfg.defense.quarantine_capacity = 64;
  cfg.defense.finetune_capacity = 128;
  return cfg;
}

/// The stream's guaranteed-clean warmup window as one [warm, kFeatures]
/// tensor (round-major prefix of the request sequence).
nn::Tensor warmup_rows(const attack::LabeledTraffic& traffic) {
  const int warm = traffic.flows * traffic.warmup_rounds;
  nn::Tensor rows({warm, kFeatures});
  for (int i = 0; i < warm; ++i)
    rows.set_batch(i, traffic.requests[static_cast<std::size_t>(i)].input);
  return rows;
}

/// Calibrate an engine's defense plane on the stream's clean warmup
/// window: the distribution profile on all warmup rows, the norm screen
/// on each flow's consecutive warmup walk.
void calibrate_engine(serve::ServeEngine& eng,
                      const attack::LabeledTraffic& traffic) {
  eng.defense()->calibrate(warmup_rows(traffic));
  for (int f = 0; f < traffic.flows; ++f) {
    nn::Tensor flow_rows({traffic.warmup_rounds, kFeatures});
    for (int r = 0; r < traffic.warmup_rounds; ++r)
      flow_rows.set_batch(
          r, traffic.requests[static_cast<std::size_t>(r * traffic.flows + f)]
                 .input);
    eng.defense()->calibrate_flow(
        traffic.requests[static_cast<std::size_t>(f)].flow_key, flow_rows, 0);
  }
}

/// Serve the stream's scored window through a freshly calibrated engine at
/// `threads` threads, optionally under a fault plan.
DefenseRun run_stream(const nn::Model& victim, const nn::Model& sibling,
                      const attack::LabeledTraffic& traffic, int threads,
                      const std::string& name,
                      const fault::FaultPlan* plan) {
  util::set_num_threads(threads);
  serve::ServeEngine eng(victim.clone(),
                         defense_engine_config(name + std::to_string(threads)));
  eng.attach_defense_sibling(sibling.clone());

  fault::FaultInjector injector(plan == nullptr ? fault::FaultPlan{} : *plan);
  if (plan != nullptr) eng.set_fault_injector(&injector);

  calibrate_engine(eng, traffic);

  // Scored window: everything after the warmup, in arrival order.
  const std::size_t first =
      static_cast<std::size_t>(traffic.flows * traffic.warmup_rounds);
  const std::size_t m = traffic.requests.size() - first;
  DefenseRun run;
  run.scores.assign(m, 0.0);
  run.labels.assign(m, attack::TrafficLabel::kClean);
  run.screened_row.assign(m, false);
  std::vector<std::uint8_t> statuses(m, 0);
  std::vector<int> preds(m, -1);
  for (std::size_t i = 0; i < m; ++i) {
    const attack::LabeledRequest& req = traffic.requests[first + i];
    run.labels[i] = req.label;
    eng.submit(nn::Tensor(req.input),
               serve::FlowTag{req.flow_key, req.version}, {},
               [&run, &statuses, &preds, i](const serve::ServeResult& r) {
                 statuses[i] = static_cast<std::uint8_t>(r.status);
                 preds[i] = r.prediction;
                 run.scores[i] = r.defense_score;
                 run.screened_row[i] =
                     r.status != serve::ServeStatus::kRejected;
                 if (r.status == serve::ServeStatus::kQuarantined)
                   ++run.quarantined_status;
               });
  }
  eng.drain();

  persist::ByteWriter w;
  for (std::size_t i = 0; i < m; ++i) {
    w.u8(statuses[i]);
    w.i32(preds[i]);
    w.f64(run.scores[i]);
  }
  run.digest = Sha256::hex(w.buffer());
  run.screened = eng.defense()->screened();
  run.flagged = eng.defense()->flagged();
  run.bursts = eng.defense()->bursts();
  run.slo = eng.slo();
  run.finetune = eng.defense()->finetune();
  run.finetune_size = run.finetune.size();
  run.finetune_dropped = run.finetune.dropped();
  return run;
}

/// Fraction of queue samples whose model prediction equals the queue's
/// reference label.
double queue_agreement(nn::Model& model, const defense::FineTuneQueue& q) {
  if (q.empty()) return 0.0;
  std::size_t match = 0;
  for (const defense::FineTuneQueue::Item& it : q.items())
    if (model.predict_one(it.sample) == it.label) ++match;
  return static_cast<double>(match) / static_cast<double>(q.size());
}

// ------------------------------------------------- closed-loop phase (§15)

serve::ServeConfig closed_loop_config(const std::string& name,
                                      const std::string& ckpt_dir) {
  serve::ServeConfig cfg = defense_engine_config(name);
  // Online adaptive thresholds: short warmup/cadence so the flag lines
  // actually move within the bench's ~430-row stream. The tight envelope
  // matters for the ROC: scores are normalized by the thresholds in force
  // when the row was screened, so a floor far below the static threshold
  // inflates late clean scores into the attack band, and a ceiling above
  // the ensemble's attainable maximum (1.0) turns that detector off.
  cfg.defense.adaptive.enable = true;
  cfg.defense.adaptive.warmup = 16;
  cfg.defense.adaptive.update_every = 8;
  cfg.defense.adaptive.floor_frac = 0.85;
  cfg.defense.adaptive.ceiling_frac = 1.1;
  // Staleness decay instead of hard LKG expiry: a hard expiry fires right
  // after a sustained flag run and adopts the first unflagged row —
  // during an attack burst often an adversarial one, which blinds the
  // step screen for every later attack row of that flow. With decay the
  // clean reference survives the burst (attack steps are huge, so they
  // stay flagged even discounted) while a frozen false-positive
  // reference still ages below the flag line and heals.
  cfg.defense.stale_decay = true;
  // Quarantine review: every 24 screened rows the ring drains, false
  // positives are released back to the apps, confirmed rows feed the
  // fine-tuning queue.
  cfg.defense.review_every = 24;
  cfg.defense.release_margin = 0.9;
  // Gated hot-swap, durably checkpointed (the crash scenario resumes
  // from these files).
  cfg.swap.enable = true;
  cfg.swap.tol_clean = 0.05;
  cfg.swap.min_attack_gain = 0.0;
  cfg.swap.checkpoint_dir = ckpt_dir;
  return cfg;
}

/// Outcome of one closed-loop serve: the run_stream decision stream plus
/// review/release, adaptive-threshold and hot-swap evidence. The digest
/// extends the per-row digest with every release outcome, the final swap
/// epoch and the final adapted thresholds.
struct ClosedLoopRun {
  std::vector<double> scores;
  std::vector<attack::TrafficLabel> labels;
  std::vector<bool> screened_row;
  std::string digest;
  std::uint64_t screened = 0;
  std::uint64_t flagged = 0;
  std::uint64_t quarantined_status = 0;
  std::uint64_t bursts = 0;
  std::uint64_t reviewed = 0;
  std::uint64_t released = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t evicted = 0;
  std::uint64_t review_passes = 0;
  std::uint64_t swap_epoch = 0;
  std::uint64_t swaps_accepted = 0;
  std::uint64_t swaps_rejected = 0;
  std::uint64_t adaptive_updates = 0;
  std::uint64_t adaptive_held = 0;
  std::uint64_t adaptive_clamped = 0;
  double dist_threshold = 0.0;
  double ens_threshold = 0.0;
  serve::SwapGateReport reject_report;  // the broken candidate's verdict
  serve::SwapGateReport accept_report;  // the hardened candidate's verdict
  /// Hardened candidate's agreement with the fine-tune queue's reference
  /// labels, before/after fine-tuning (the swap's improvement claim).
  double agree_before = 0.0;
  double agree_after = 0.0;
  std::size_t finetune_at_swap = 0;
  std::vector<serve::ReviewOutcome> releases;
  bool crashed = false;
  serve::SloSnapshot slo;
};

/// Labels for the warmup rows under the bench's argmax task.
std::vector<int> argmax_labels(const nn::Tensor& rows) {
  std::vector<int> labels(static_cast<std::size_t>(rows.dim(0)));
  for (int i = 0; i < rows.dim(0); ++i) {
    int best = 0;
    for (int j = 1; j < rows.dim(1); ++j)
      if (rows.at2(i, j) > rows.at2(i, best)) best = j;
    labels[static_cast<std::size_t>(i)] = best;
  }
  return labels;
}

/// Serve the scored window through the full closed loop: adaptive
/// thresholds + cadenced review with release + a mid-stream gated hot-swap
/// (one refused broken candidate, then the hardened candidate). With
/// `crash_mid_swap` a kill plan crashes the accepted swap right after its
/// durable commit; the run then rebuilds the engine, resumes from the
/// committed checkpoints via load_status + resume_hot_swap, and finishes
/// the stream — the digest must equal the never-crashed run's.
ClosedLoopRun run_closed_loop(const nn::Model& victim, const nn::Model& sibling,
                              const attack::LabeledTraffic& traffic,
                              int threads, const std::string& name,
                              const std::string& ckpt_dir,
                              bool crash_mid_swap) {
  util::set_num_threads(threads);
  std::error_code ec;
  std::filesystem::create_directories(ckpt_dir, ec);
  const serve::ServeConfig cfg = closed_loop_config(name, ckpt_dir);
  auto eng = std::make_unique<serve::ServeEngine>(victim.clone(), cfg);
  eng->attach_defense_sibling(sibling.clone());
  calibrate_engine(*eng, traffic);

  ClosedLoopRun run;
  serve::ServeEngine::ReleaseHandler on_release =
      [&run](const serve::ReviewOutcome& o) { run.releases.push_back(o); };
  eng->set_release_handler(on_release);

  // Kill plan for the crash scenario: the serve.swap site's first op is
  // the refused broken candidate, so `after=1` lands the crash exactly on
  // the accepted hardened swap — after its checkpoints committed.
  fault::FaultPlan kill;
  kill.seed = 1;
  {
    fault::FaultSpec s;
    s.kind = fault::FaultKind::kCrash;
    s.probability = 1.0;
    s.max_injections = 1;
    s.after = 1;
    kill.sites[fault::sites::kServeSwap].push_back(s);
  }
  fault::FaultInjector injector(kill);
  if (crash_mid_swap) eng->set_fault_injector(&injector);

  const nn::Tensor warm_rows = warmup_rows(traffic);
  const std::vector<int> warm_labels = argmax_labels(warm_rows);

  const std::size_t first =
      static_cast<std::size_t>(traffic.flows * traffic.warmup_rounds);
  const std::size_t m = traffic.requests.size() - first;
  const std::size_t swap_at = m * 3 / 5;
  run.scores.assign(m, 0.0);
  run.labels.assign(m, attack::TrafficLabel::kClean);
  run.screened_row.assign(m, false);
  std::vector<std::uint8_t> statuses(m, 0);
  std::vector<int> preds(m, -1);
  for (std::size_t i = 0; i < m; ++i) {
    if (i == swap_at) {
      // 1. A broken candidate (same architecture identity, untrained
      //    weights) must bounce off the gate with the fleet still serving.
      nn::Model broken = apps::make_kpm_dnn(kFeatures, kClasses, 0xbad);
      run.reject_report =
          eng->request_hot_swap(broken, warm_rows, warm_labels);
      // 2. Harden a candidate on the review-confirmed fine-tune queue
      //    (single-threaded: the candidate must be byte-identical across
      //    the bench's thread counts for the digest comparison).
      util::set_num_threads(1);
      const defense::FineTuneQueue& queue = eng->defense()->finetune();
      run.finetune_at_swap = queue.size();
      nn::Model probe = victim.clone();
      run.agree_before = queue_agreement(probe, queue);
      // Gentle fine-tuning: the candidate must gain on the attack points
      // without giving up the clean accuracy the swap gate protects.
      nn::TrainConfig hc;
      hc.max_epochs = 4;
      hc.learning_rate = 5e-4f;
      hc.early_stop_patience = 4;
      nn::Model candidate = defense::harden_candidate(
          victim, queue, hc, nullptr, &warm_rows, &warm_labels);
      run.agree_after = queue_agreement(candidate, queue);
      util::set_num_threads(threads);
      // 3. Promote it through the gate. In the crash scenario the
      //    kill-point fires after the swap committed durably; a "fresh
      //    process" (new engine over the same config) resumes byte-exactly
      //    from the checkpoints and the committed candidate.
      try {
        run.accept_report =
            eng->request_hot_swap(candidate, warm_rows, warm_labels);
      } catch (const fault::FaultInjectedError&) {
        run.crashed = true;
        run.accept_report = eng->swap_report();
        eng = std::make_unique<serve::ServeEngine>(victim.clone(), cfg);
        eng->attach_defense_sibling(sibling.clone());
        eng->set_release_handler(on_release);
        persist::Status st = eng->load_status(ckpt_dir + "/engine.ckpt");
        OREV_CHECK(st.ok(), "crash resume: engine checkpoint: " + st.message());
        st = eng->defense()->load_status(ckpt_dir + "/defense.ckpt");
        OREV_CHECK(st.ok(),
                   "crash resume: defense checkpoint: " + st.message());
        eng->resume_hot_swap(candidate);
      }
    }
    const attack::LabeledRequest& req = traffic.requests[first + i];
    run.labels[i] = req.label;
    eng->submit(nn::Tensor(req.input),
                serve::FlowTag{req.flow_key, req.version}, {},
                [&run, &statuses, &preds, i](const serve::ServeResult& r) {
                  statuses[i] = static_cast<std::uint8_t>(r.status);
                  preds[i] = r.prediction;
                  run.scores[i] = r.defense_score;
                  run.screened_row[i] =
                      r.status != serve::ServeStatus::kRejected;
                  if (r.status == serve::ServeStatus::kQuarantined)
                    ++run.quarantined_status;
                });
  }
  eng->drain();
  // End-of-workload flush: whatever the cadence left in the ring gets its
  // review, so the release evidence is complete.
  eng->review_quarantine_now();

  const serve::DefensePlane& plane = *eng->defense();
  run.screened = plane.screened();
  run.flagged = plane.flagged();
  run.bursts = plane.bursts();
  run.reviewed = plane.reviewed();
  run.released = plane.released();
  run.confirmed = plane.confirmed();
  run.evicted = plane.evicted();
  run.review_passes = plane.review_passes();
  run.swap_epoch = eng->swap_epoch();
  run.swaps_accepted = eng->swaps_accepted();
  run.swaps_rejected = eng->swaps_rejected();
  run.adaptive_updates = plane.adaptive().updates();
  run.adaptive_held = plane.adaptive().held_by_hysteresis();
  run.adaptive_clamped = plane.adaptive().clamped();
  run.dist_threshold = plane.adaptive().dist_threshold();
  run.ens_threshold = plane.adaptive().ens_threshold();
  run.slo = eng->slo();

  persist::ByteWriter w;
  for (std::size_t i = 0; i < m; ++i) {
    w.u8(statuses[i]);
    w.i32(preds[i]);
    w.f64(run.scores[i]);
  }
  w.u64(run.releases.size());
  for (const serve::ReviewOutcome& o : run.releases) {
    w.u64(o.request_id);
    w.i32(o.corrected_pred);
    w.f64(o.review_score);
    w.u64(o.model_epoch);
    w.u64(o.quarantined_at_profile_samples);
  }
  w.u64(run.swap_epoch);
  w.u64(run.released);
  w.u64(run.confirmed);
  w.u64(run.evicted);
  w.u64(run.review_passes);
  w.f64(run.dist_threshold);
  w.f64(run.ens_threshold);
  run.digest = Sha256::hex(w.buffer());
  return run;
}

/// p99 virtual latency of the same stream through the same engine shape
/// with the defense plane disabled — the closed loop's overhead baseline.
std::uint64_t run_plain_p99(const nn::Model& victim,
                            const attack::LabeledTraffic& traffic) {
  util::set_num_threads(1);
  serve::ServeConfig cfg = defense_engine_config("defplain");
  cfg.defense.enable = false;
  serve::ServeEngine eng(victim.clone(), cfg);
  const std::size_t first =
      static_cast<std::size_t>(traffic.flows * traffic.warmup_rounds);
  for (std::size_t i = first; i < traffic.requests.size(); ++i) {
    const attack::LabeledRequest& req = traffic.requests[i];
    eng.submit(nn::Tensor(req.input),
               serve::FlowTag{req.flow_key, req.version}, {},
               [](const serve::ServeResult&) {});
  }
  eng.drain();
  return eng.slo().p99_latency_us;
}

/// ROC AUC over a closed-loop run (same Mann–Whitney statistic).
double roc_auc_loop(const ClosedLoopRun& run, attack::TrafficLabel positive) {
  std::vector<double> pos, neg;
  for (std::size_t i = 0; i < run.scores.size(); ++i) {
    if (!run.screened_row[i]) continue;
    if (run.labels[i] == positive) pos.push_back(run.scores[i]);
    if (run.labels[i] == attack::TrafficLabel::kClean)
      neg.push_back(run.scores[i]);
  }
  if (pos.empty() || neg.empty()) return -1.0;
  double wins = 0.0;
  for (const double p : pos)
    for (const double n : neg) {
      if (p > n) wins += 1.0;
      else if (p == n) wins += 0.5;
    }
  return wins / (static_cast<double>(pos.size()) *
                 static_cast<double>(neg.size()));
}

/// ROC AUC of `scores` separating `positive`-labeled rows from clean rows
/// (Mann–Whitney rank statistic, ties counted half). Rows the engine never
/// screened are excluded. Returns −1 when either class is empty.
double roc_auc(const DefenseRun& run, attack::TrafficLabel positive) {
  std::vector<double> pos, neg;
  for (std::size_t i = 0; i < run.scores.size(); ++i) {
    if (!run.screened_row[i]) continue;
    if (run.labels[i] == positive) pos.push_back(run.scores[i]);
    if (run.labels[i] == attack::TrafficLabel::kClean)
      neg.push_back(run.scores[i]);
  }
  if (pos.empty() || neg.empty()) return -1.0;
  double wins = 0.0;
  for (const double p : pos)
    for (const double n : neg) {
      if (p > n) wins += 1.0;
      else if (p == n) wins += 0.5;
    }
  return wins / (static_cast<double>(pos.size()) *
                 static_cast<double>(neg.size()));
}

}  // namespace

int main(int argc, char** argv) {
  ObsGuard obs_guard(argc, argv);
  const int cli_threads = parse_threads_flag(argc, argv);
  (void)cli_threads;
  const Flags f = parse_flags(argc, argv);

  std::printf("=== Defense plane: %d flows x (%d warmup + %d) rounds, "
              "attack fraction %.2f, eps %.2f ===\n",
              f.flows, f.warmup, f.rounds, f.attack_fraction, f.eps);

  // ---- victim + distilled sibling --------------------------------------
  util::set_num_threads(1);
  const data::Dataset d_all = argmax_dataset(512, 0xd57a);
  Rng split_rng(0x5137);
  const data::Split split = data::stratified_split(d_all, 0.8, split_rng);
  nn::Model victim = apps::make_kpm_dnn(kFeatures, kClasses, 17);
  {
    nn::TrainConfig tc;
    tc.max_epochs = 16;
    tc.learning_rate = 5e-3f;
    tc.early_stop_patience = 5;
    nn::Trainer trainer(tc);
    const nn::TrainReport rep =
        trainer.fit(victim, split.train.x, split.train.y, split.test.x,
                    split.test.y);
    std::printf("[victim] %s val acc %.3f after %d epochs\n",
                victim.name().c_str(), rep.best_val_accuracy, rep.epochs_run);
  }
  defense::DistillConfig dc;
  dc.train.max_epochs = 12;
  dc.train.learning_rate = 5e-3f;
  dc.train.early_stop_patience = 4;
  nn::Model sibling = defense::distill(
      victim,
      [](std::uint64_t seed) {
        return apps::make_one_layer({kFeatures}, kClasses, seed);
      },
      split.train, split.test, dc);
  std::printf("[sibling] distilled %s\n", sibling.name().c_str());

  // ---- labeled traffic --------------------------------------------------
  attack::AdvTrafficConfig tcfg;
  tcfg.flows = f.flows;
  tcfg.warmup_rounds = f.warmup;
  tcfg.rounds = f.rounds;
  tcfg.attack_fraction = f.attack_fraction;
  tcfg.eps = f.eps;
  attack::Fgsm inner(f.eps);
  const attack::LabeledTraffic traffic =
      attack::make_labeled_traffic(victim, inner, tcfg);
  int n_pgm = 0, n_uap = 0;
  for (const attack::LabeledRequest& r : traffic.requests) {
    if (r.label == attack::TrafficLabel::kPgm) ++n_pgm;
    if (r.label == attack::TrafficLabel::kUap) ++n_uap;
  }
  std::printf("[traffic] %zu requests (%d adversarial: %d pgm, %d uap), "
              "uap fooling %.2f\n",
              traffic.requests.size(), traffic.adversarial, n_pgm, n_uap,
              traffic.uap_fooling);

  // ---- contention phase: clean + adversarial share the engine ----------
  const DefenseRun cont1 =
      run_stream(victim, sibling, traffic, 1, "def", nullptr);
  const DefenseRun cont4 =
      run_stream(victim, sibling, traffic, 4, "def", nullptr);
  const bool cont_identical = cont1.digest == cont4.digest;
  const double cont_auc_pgm = roc_auc(cont1, attack::TrafficLabel::kPgm);
  const double cont_auc_uap = roc_auc(cont1, attack::TrafficLabel::kUap);
  std::printf("[contention] auc pgm=%.4f uap=%.4f  quarantined=%llu/%llu  "
              "bursts=%llu  digests %s\n",
              cont_auc_pgm, cont_auc_uap,
              static_cast<unsigned long long>(cont1.quarantined_status),
              static_cast<unsigned long long>(cont1.screened),
              static_cast<unsigned long long>(cont1.bursts),
              cont_identical ? "match" : "MISMATCH");

  // ---- chaos phase: same stream under the committed fault plan ---------
  const fault::FaultPlan plan = fault::default_chaos_plan();
  const DefenseRun chaos1 =
      run_stream(victim, sibling, traffic, 1, "defchaos", &plan);
  const DefenseRun chaos4 =
      run_stream(victim, sibling, traffic, 4, "defchaos", &plan);
  const bool chaos_identical = chaos1.digest == chaos4.digest;
  const double chaos_auc_pgm = roc_auc(chaos1, attack::TrafficLabel::kPgm);
  const double chaos_auc_uap = roc_auc(chaos1, attack::TrafficLabel::kUap);
  std::printf("[chaos] auc pgm=%.4f uap=%.4f  quarantined=%llu/%llu  "
              "degraded=%llu rejected=%llu  digests %s\n",
              chaos_auc_pgm, chaos_auc_uap,
              static_cast<unsigned long long>(chaos1.quarantined_status),
              static_cast<unsigned long long>(chaos1.screened),
              static_cast<unsigned long long>(chaos1.slo.degraded_syncs),
              static_cast<unsigned long long>(chaos1.slo.rejected),
              chaos_identical ? "match" : "MISMATCH");

  // ---- hardening: fine-tune the victim on its quarantine queue ---------
  util::set_num_threads(1);
  nn::Model hardened = victim.clone();
  const double agree_before = queue_agreement(hardened, cont1.finetune);
  nn::TrainConfig hc;
  hc.max_epochs = 6;
  hc.learning_rate = 2e-3f;
  hc.early_stop_patience = 6;
  const nn::TrainReport hrep = defense::harden(hardened, cont1.finetune, hc);
  const double agree_after = queue_agreement(hardened, cont1.finetune);
  std::printf("[harden] queue=%zu (dropped %llu)  reference agreement "
              "%.3f -> %.3f after %d epochs\n",
              cont1.finetune_size,
              static_cast<unsigned long long>(cont1.finetune_dropped),
              agree_before, agree_after, hrep.epochs_run);

  // ---- closed-loop phase: adaptive thresholds + review + hot-swap ------
  const ClosedLoopRun loop1 = run_closed_loop(
      victim, sibling, traffic, 1, "defloop", f.ckpt_dir + "/t1", false);
  const ClosedLoopRun loop4 = run_closed_loop(
      victim, sibling, traffic, 4, "defloop", f.ckpt_dir + "/t4", false);
  const bool loop_identical = loop1.digest == loop4.digest;
  const double loop_auc_pgm = roc_auc_loop(loop1, attack::TrafficLabel::kPgm);
  const double loop_auc_uap = roc_auc_loop(loop1, attack::TrafficLabel::kUap);
  if (std::getenv("OREV_DEFENSE_DEBUG") != nullptr) {
    const std::size_t dbg_swap = loop1.scores.size() * 3 / 5;
    auto dump = [&](const char* tag, const std::vector<double>& scores,
                    const std::vector<attack::TrafficLabel>& labels,
                    const std::vector<bool>& screened) {
      std::vector<std::pair<double, std::size_t>> clean, pgm;
      for (std::size_t i = 0; i < scores.size(); ++i) {
        if (!screened[i]) continue;
        if (labels[i] == attack::TrafficLabel::kClean)
          clean.push_back({scores[i], i});
        if (labels[i] == attack::TrafficLabel::kPgm)
          pgm.push_back({scores[i], i});
      }
      std::sort(clean.begin(), clean.end());
      std::sort(pgm.begin(), pgm.end());
      std::printf("[debug %s] top clean (swap at row %zu):\n", tag, dbg_swap);
      for (std::size_t k = clean.size() > 15 ? clean.size() - 15 : 0;
           k < clean.size(); ++k)
        std::printf("  clean row %zu score %.4f %s\n", clean[k].second,
                    clean[k].first,
                    clean[k].second >= dbg_swap ? "post-swap" : "pre-swap");
      std::printf("[debug %s] bottom pgm:\n", tag);
      double total_lost = 0.0;
      for (std::size_t k = 0; k < pgm.size(); ++k) {
        double lost = 0.0;
        for (const auto& c : clean) {
          if (c.first > pgm[k].first) lost += 1.0;
          else if (c.first == pgm[k].first) lost += 0.5;
        }
        total_lost += lost;
        if (k < 15)
          std::printf("  pgm row %zu score %.4f %s lost=%.1f\n",
                      pgm[k].second, pgm[k].first,
                      pgm[k].second >= dbg_swap ? "post-swap" : "pre-swap",
                      lost);
      }
      std::printf("[debug %s] pgm total lost pairs %.1f of %zu\n", tag,
                  total_lost, pgm.size() * clean.size());
    };
    dump("cont", cont1.scores, cont1.labels, cont1.screened_row);
    dump("loop", loop1.scores, loop1.labels, loop1.screened_row);
  }
  const double release_rate =
      loop1.flagged > 0
          ? static_cast<double>(loop1.released) /
                static_cast<double>(loop1.flagged)
          : 0.0;
  std::printf(
      "[closed-loop] auc pgm=%.4f uap=%.4f  flagged=%llu released=%llu "
      "confirmed=%llu (rate %.3f, %llu passes)  digests %s\n",
      loop_auc_pgm, loop_auc_uap,
      static_cast<unsigned long long>(loop1.flagged),
      static_cast<unsigned long long>(loop1.released),
      static_cast<unsigned long long>(loop1.confirmed), release_rate,
      static_cast<unsigned long long>(loop1.review_passes),
      loop_identical ? "match" : "MISMATCH");
  std::printf(
      "[closed-loop] adaptive dist=%.3f ens=%.3f (updates=%llu held=%llu "
      "clamped=%llu)\n",
      loop1.dist_threshold, loop1.ens_threshold,
      static_cast<unsigned long long>(loop1.adaptive_updates),
      static_cast<unsigned long long>(loop1.adaptive_held),
      static_cast<unsigned long long>(loop1.adaptive_clamped));
  std::printf(
      "[closed-loop] swap: broken %s ('%s'), hardened %s ('%s') "
      "epoch=%llu  queue=%zu agreement %.3f -> %.3f\n",
      loop1.reject_report.accepted ? "ACCEPTED" : "refused",
      loop1.reject_report.reason.c_str(),
      loop1.accept_report.accepted ? "accepted" : "REFUSED",
      loop1.accept_report.reason.c_str(),
      static_cast<unsigned long long>(loop1.swap_epoch),
      loop1.finetune_at_swap, loop1.agree_before, loop1.agree_after);

  // ---- crash scenario: kill the accepted swap post-commit, resume ------
  const ClosedLoopRun crash = run_closed_loop(
      victim, sibling, traffic, 1, "defcrash", f.ckpt_dir + "/crash", true);
  const bool crash_identical = crash.digest == loop1.digest;
  std::printf("[crash] kill-point %s, resumed epoch=%llu, digest %s the "
              "never-crashed run\n",
              crash.crashed ? "fired" : "DID NOT FIRE",
              static_cast<unsigned long long>(crash.swap_epoch),
              crash_identical ? "matches" : "DIVERGES FROM");

  // ---- defense overhead: closed loop vs defenseless engine, p99 --------
  const std::uint64_t p99_plain = run_plain_p99(victim, traffic);
  const std::uint64_t p99_loop = loop1.slo.p99_latency_us;
  const double p99_overhead =
      p99_plain > 0 ? (static_cast<double>(p99_loop) -
                       static_cast<double>(p99_plain)) /
                          static_cast<double>(p99_plain)
                    : 0.0;
  std::printf("[overhead] p99 %llu us with the full loop vs %llu us plain "
              "(%+.2f%%)\n",
              static_cast<unsigned long long>(p99_loop),
              static_cast<unsigned long long>(p99_plain),
              p99_overhead * 100.0);

  // ---- gates ------------------------------------------------------------
  const bool auc_ok =
      f.min_auc <= 0.0 ||
      (cont_auc_pgm >= f.min_auc && cont_auc_uap >= f.min_auc &&
       chaos_auc_pgm >= f.min_auc && chaos_auc_uap >= f.min_auc);
  const bool burst_ok = cont1.bursts >= 1;
  const bool harden_ok = cont1.finetune_size == 0 ||
                         (hrep.epochs_run > 0 && agree_after >= agree_before);
  const bool loop_auc_ok =
      f.min_auc_loop <= 0.0 ||
      (loop_auc_pgm >= f.min_auc_loop && loop_auc_uap >= f.min_auc_loop);
  const bool release_ok = loop1.released > 0;
  const bool swap_ok =
      loop1.accept_report.accepted && loop1.swap_epoch == 1 &&
      loop1.agree_after >= loop1.agree_before &&
      loop1.reject_report.attempted && !loop1.reject_report.accepted &&
      loop1.swaps_rejected >= 1;
  const bool crash_ok = crash.crashed && crash_identical;
  const bool overhead_ok =
      f.max_p99_overhead <= 0.0 || p99_overhead <= f.max_p99_overhead;
  const bool pass = cont_identical && chaos_identical && auc_ok && burst_ok &&
                    harden_ok && loop_identical && loop_auc_ok && release_ok &&
                    swap_ok && crash_ok && overhead_ok;

  // ---- deterministic JSON report (no wall-clock fields) ----------------
  json::Writer w;
  w.begin_object().field("schema", "orev-defense-bench-v2");
  w.key("config").begin_object().field("flows", f.flows);
  w.field("warmup_rounds", f.warmup).field("rounds", f.rounds);
  w.field("attack_fraction", f.attack_fraction).field("eps", f.eps);
  w.field("requests", traffic.requests.size());
  w.field("adversarial", traffic.adversarial);
  w.field("pgm_slots", n_pgm).field("uap_slots", n_uap);
  w.field("uap_fooling", traffic.uap_fooling).field("min_auc", f.min_auc);
  w.end_object();
  auto phase_json = [&w](const char* name, const DefenseRun& t1,
                         const DefenseRun& t4, double auc_pgm, double auc_uap,
                         bool identical) {
    w.key(name).begin_object().field("auc_pgm", auc_pgm);
    w.field("auc_uap", auc_uap).field("screened", t1.screened);
    w.field("flagged", t1.flagged).field("quarantined", t1.quarantined_status);
    w.field("bursts", t1.bursts);
    w.field("degraded_syncs", t1.slo.degraded_syncs);
    w.field("rejected", t1.slo.rejected).field("digest_t1", t1.digest);
    w.field("digest_t4", t4.digest).field("byte_identical", identical);
    w.end_object();
  };
  phase_json("contention", cont1, cont4, cont_auc_pgm, cont_auc_uap,
             cont_identical);
  phase_json("chaos", chaos1, chaos4, chaos_auc_pgm, chaos_auc_uap,
             chaos_identical);
  w.key("hardening").begin_object().field("queue", cont1.finetune_size);
  w.field("dropped", cont1.finetune_dropped).field("epochs", hrep.epochs_run);
  w.field("agreement_before", agree_before);
  w.field("agreement_after", agree_after).end_object();
  w.key("closed_loop").begin_object().field("auc_pgm", loop_auc_pgm);
  w.field("auc_uap", loop_auc_uap).field("screened", loop1.screened);
  w.field("flagged", loop1.flagged).field("released", loop1.released);
  w.field("confirmed", loop1.confirmed).field("evicted", loop1.evicted);
  w.field("review_passes", loop1.review_passes);
  w.field("release_rate", release_rate);
  w.field("dist_threshold", loop1.dist_threshold);
  w.field("ens_threshold", loop1.ens_threshold);
  w.field("adaptive_updates", loop1.adaptive_updates);
  w.field("adaptive_held", loop1.adaptive_held);
  w.field("adaptive_clamped", loop1.adaptive_clamped);
  w.field("digest_t1", loop1.digest).field("digest_t4", loop4.digest);
  w.field("byte_identical", loop_identical).end_object();
  w.key("hot_swap").begin_object().field("epoch", loop1.swap_epoch);
  w.field("accepted", loop1.swaps_accepted);
  w.field("rejected", loop1.swaps_rejected);
  w.field("broken_refused", !loop1.reject_report.accepted);
  w.field("broken_reason", loop1.reject_report.reason);
  w.field("acc_current", loop1.accept_report.acc_current);
  w.field("acc_candidate", loop1.accept_report.acc_candidate);
  w.field("clean_delta", loop1.accept_report.clean_delta);
  w.field("finetune_at_swap", loop1.finetune_at_swap);
  w.field("agree_before", loop1.agree_before);
  w.field("agree_after", loop1.agree_after).end_object();
  w.key("crash_resume").begin_object();
  w.field("kill_point_fired", crash.crashed).field("epoch", crash.swap_epoch);
  w.field("digest", crash.digest).field("byte_identical", crash_identical);
  w.end_object().key("overhead").begin_object();
  w.field("p99_plain_us", p99_plain).field("p99_loop_us", p99_loop);
  w.field("p99_overhead", p99_overhead).end_object();
  w.field("pass", pass).end_object();
  write_report(f.report_out, w.str());

  CsvWriter csv;
  csv.header({"phase", "auc_pgm", "auc_uap", "quarantined", "bursts",
              "byte_identical"});
  csv.row("contention", cont_auc_pgm, cont_auc_uap,
          cont1.quarantined_status, cont1.bursts, cont_identical ? 1 : 0);
  csv.row("chaos", chaos_auc_pgm, chaos_auc_uap, chaos1.quarantined_status,
          chaos1.bursts, chaos_identical ? 1 : 0);
  csv.row("closed_loop", loop_auc_pgm, loop_auc_uap,
          loop1.quarantined_status, loop1.bursts, loop_identical ? 1 : 0);
  save_csv(csv, "defense");

  print_rule();
  std::printf("auc: contention pgm=%.3f uap=%.3f, chaos pgm=%.3f uap=%.3f "
              "(gate %.2f), loop pgm=%.3f uap=%.3f (gate %.2f)\n",
              cont_auc_pgm, cont_auc_uap, chaos_auc_pgm, chaos_auc_uap,
              f.min_auc, loop_auc_pgm, loop_auc_uap, f.min_auc_loop);
  std::printf("closed loop: released=%llu/%llu  swap %s epoch=%llu  "
              "rollback %s  crash-resume %s  p99 %+.2f%% (gate %.0f%%)\n",
              static_cast<unsigned long long>(loop1.released),
              static_cast<unsigned long long>(loop1.flagged),
              loop1.accept_report.accepted ? "accepted" : "REFUSED",
              static_cast<unsigned long long>(loop1.swap_epoch),
              swap_ok ? "ok" : "BROKEN", crash_ok ? "ok" : "BROKEN",
              p99_overhead * 100.0, f.max_p99_overhead * 100.0);
  std::printf("digests: contention %s, chaos %s, loop %s  bursts=%llu  "
              "harden %s  ->  %s\n",
              cont_identical ? "identical" : "DIVERGED",
              chaos_identical ? "identical" : "DIVERGED",
              loop_identical ? "identical" : "DIVERGED",
              static_cast<unsigned long long>(cont1.bursts),
              harden_ok ? "ok" : "REGRESSED", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
