// Perf report: times representative workloads into registry quantile
// sketches and prints their p50/p95/p99/p999, so a single run with
// `--metrics-out BENCH_<date>.json` captures the repo's latency
// trajectory in one comparable file:
//
//   perf.matmul64_ms      — 64×64 matmul, the NN substrate primitive;
//   perf.e2_roundtrip_ms  — E2 indication → SDL write → xApp dispatch →
//                           E2 control back to the RAN node, the Near-RT
//                           control loop the paper's timing budget
//                           (§5.3.3) is measured against;
//   perf.attack_sample_ms — one FGSM perturbation of one spectrogram via
//                           the surrogate, the per-sample cost of the
//                           input-specific attack (Fig. 3);
//   perf.serve_batch_ms   — one full micro-batch (32 KPM requests) through
//                           the serving engine: admission, batching, the
//                           compiled batched forward, and completions
//                           (DESIGN.md §11);
//   perf.defense_screen_ms — the same micro-batch through a *defended*
//                           engine (inline screen + review cadence +
//                           hot-swap gate live, DESIGN.md §14–15), with a
//                           defense-counter row (quarantined / released /
//                           swap accepted / rolled back)
//                           so the perf trajectory tracks defense health.
//
// The report also sweeps attack_batch() once, so the instrumentation
// sketches populated by the pipelines themselves (attack.batch.*,
// oran.*, serve.*) appear in the same JSON.
//
// Regression diffing: `--baseline BENCH_<date>.json` (a committed
// --metrics-out file) prints a per-metric p50/p99 delta table against
// this run (older baselines carry the same names as fixed-bucket
// histograms with the same fields); `--serve-baseline
// BENCH_SERVE_<date>.json` diffs the serving bench's unbatched/served
// throughput; `--defense-baseline
// BENCH_DEFENSE_<date>.json` echoes the committed defense bench's
// closed-loop AUC / release-rate / swap and overhead numbers;
// `--cityscale-baseline BENCH_CITYSCALE_<date>.json` echoes the committed
// city-scale emulation numbers (UEs/sec, codec paths, SDL striping).
// Deltas are informational — the gates live in each bench's own pass
// criteria.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "apps/model_zoo.hpp"
#include "attack/pgm.hpp"
#include "bench_common.hpp"
#include "nn/layers.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "oran/sdl.hpp"
#include "serve/serve.hpp"
#include "util/check.hpp"

namespace {

using namespace orev;
using namespace orev::bench;

// ------------------------------------------------------------ E2 fixture

class ControlEchoXApp : public oran::XApp {
 public:
  void on_indication(const oran::E2Indication& /*ind*/,
                     oran::NearRtRic& ric) override {
    ric.send_control(app_id(), oran::E2Control{});
  }
};

class SinkE2Node : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control& /*c*/) override { ++controls; }
  std::string node_id() const override { return "ran-1"; }
  std::uint64_t controls = 0;
};

void run_matmul(int reps) {
  obs::SketchMetric& h = obs::sketch(
      "perf.matmul64_ms", 0.01, "64x64 single-threaded matmul latency");
  Rng rng(7);
  const nn::Tensor a = nn::Tensor::randn({64, 64}, rng);
  const nn::Tensor b = nn::Tensor::randn({64, 64}, rng);
  volatile float sink = 0.0f;  // keep the kernel honest
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    sink = nn::matmul(a, b)[0];
    h.observe(t.seconds() * 1e3);
  }
  (void)sink;
}

void run_e2_roundtrip(int reps) {
  obs::SketchMetric& h = obs::sketch(
      "perf.e2_roundtrip_ms", 0.01,
      "E2 indication -> SDL -> xApp dispatch -> E2 control round trip");

  oran::Rbac rbac;
  rbac.define_role("xapp-full",
                   {oran::Permission{"telemetry/*", true, true},
                    oran::Permission{"decisions/*", true, true},
                    oran::Permission{"decisions", true, true},
                    oran::Permission{"e2/control", false, true}});
  oran::Operator op("op", "sec");
  oran::OnboardingService svc(&op, &rbac);
  oran::AppDescriptor d;
  d.name = "echo";
  d.version = "1";
  d.vendor = "bench";
  d.payload = "p";
  d.requested_role = "xapp-full";
  const std::string app_id = svc.onboard(op.package(d)).app_id;

  oran::NearRtRic ric(&rbac, &svc);
  SinkE2Node node;
  ric.connect_e2(&node);
  ric.register_xapp(std::make_shared<ControlEchoXApp>(), app_id, 0);

  oran::E2Indication ind;
  ind.ran_node_id = "ran-1";
  ind.kind = oran::IndicationKind::kKpm;
  ind.payload = nn::Tensor({16}, 0.5f);
  for (int i = 0; i < reps; ++i) {
    ind.tti = static_cast<std::uint64_t>(i);
    WallTimer t;
    ric.deliver_indication(ind);
    h.observe(t.seconds() * 1e3);
  }
  std::printf("[e2] %llu controls received over %d indications\n",
              static_cast<unsigned long long>(node.controls), reps);
}

void run_attack(int samples) {
  obs::SketchMetric& h = obs::sketch(
      "perf.attack_sample_ms", 0.01,
      "one FGSM perturbation of one spectrogram on the surrogate");

  const data::Dataset corpus = bench_spectrogram_corpus(/*per_class=*/12);
  nn::Model surrogate =
      apps::make_base_cnn(corpus.sample_shape(), corpus.num_classes, 5);
  attack::Fgsm fgsm(0.1f);

  // Per-sample serial loop: what perf.attack_sample_ms reports.
  for (int i = 0; i < samples; ++i) {
    const nn::Tensor x = corpus.x.slice_batch(i % corpus.x.dim(0));
    WallTimer t;
    const int label = surrogate.predict_one(x);
    volatile float sink = fgsm.perturb(surrogate, x, label)[0];
    (void)sink;
    h.observe(t.seconds() * 1e3);
  }

  // One batched sweep so the pipeline's own attack.batch.* sketches are
  // populated in the same report.
  attack::attack_batch(fgsm, surrogate, corpus.x, /*target_class=*/-1);
}

void run_serve(int batches) {
  obs::SketchMetric& h = obs::sketch(
      "perf.serve_batch_ms", 0.01,
      "one full 32-request micro-batch through the serving engine");

  serve::ServeConfig cfg;
  cfg.name = "perf";
  cfg.batch_max = 32;
  serve::ServeEngine eng(apps::make_kpm_dnn(4, 4, 17), cfg);
  Rng rng(0xf1ee7);
  for (int b = 0; b < batches; ++b) {
    std::vector<nn::Tensor> reqs;
    reqs.reserve(32);
    for (int i = 0; i < 32; ++i) {
      nn::Tensor t({4});
      for (std::size_t j = 0; j < 4; ++j) t[j] = rng.uniform(-1.0f, 1.0f);
      reqs.push_back(std::move(t));
    }
    // The 32nd submit fills the batch and flushes it, so one timer scope
    // covers admission + batching + the batched forward + completions.
    WallTimer t;
    for (nn::Tensor& r : reqs) eng.submit(std::move(r), nullptr);
    h.observe(t.seconds() * 1e3);
  }
  eng.drain();
}

void run_defense(int batches) {
  obs::SketchMetric& h = obs::sketch(
      "perf.defense_screen_ms", 0.01,
      "one screened 32-request micro-batch through the defended engine");

  serve::ServeConfig cfg;
  cfg.name = "perfdef";
  cfg.batch_max = 32;
  cfg.defense.enable = true;
  cfg.defense.review_every = 64;
  cfg.swap.enable = true;
  serve::ServeEngine eng(apps::make_kpm_dnn(4, 4, 17), cfg);

  // Calibrate on the distribution the batches draw from, so only the
  // injected anomalies quarantine and the screen itself stays on the
  // clean fast path — the cost this phase is measuring.
  Rng rng(0xdef5e);
  nn::Tensor warm({256, 4});
  for (std::size_t i = 0; i < warm.numel(); ++i)
    warm[i] = rng.uniform(-1.0f, 1.0f);
  eng.defense()->calibrate(warm);

  int row = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<nn::Tensor> reqs;
    reqs.reserve(32);
    for (int i = 0; i < 32; ++i, ++row) {
      nn::Tensor t({4});
      for (std::size_t j = 0; j < 4; ++j) t[j] = rng.uniform(-1.0f, 1.0f);
      // A rare anomalous row (far outside the calibrated profile) keeps
      // the quarantine ring non-empty so the review cadence runs passes.
      if (row % 191 == 0)
        for (std::size_t j = 0; j < 4; ++j) t[j] = 40.0f;
      reqs.push_back(std::move(t));
    }
    WallTimer t;
    for (nn::Tensor& r : reqs) eng.submit(std::move(r), nullptr);
    h.observe(t.seconds() * 1e3);
  }
  eng.drain();

  // One refused and one accepted hot-swap, so the swap counters the report
  // tracks are live. The gate evaluates against labels from the served
  // model itself: a differently-initialised candidate regresses clean
  // accuracy (refused, implicit rollback), a same-weights clone is a zero
  // delta (accepted, epoch advances).
  nn::Tensor probe({32, 4});
  for (std::size_t i = 0; i < probe.numel(); ++i)
    probe[i] = rng.uniform(-1.0f, 1.0f);
  const std::vector<int> labels =
      apps::make_kpm_dnn(4, 4, 17).predict(probe);
  eng.request_hot_swap(apps::make_kpm_dnn(4, 4, 99), probe, labels);
  eng.request_hot_swap(apps::make_kpm_dnn(4, 4, 17), probe, labels);

  const serve::DefensePlane& dp = *eng.defense();
  std::printf(
      "[defense] screened=%llu quarantined=%llu released=%llu "
      "confirmed=%llu review_passes=%llu swap_accepted=%llu "
      "swap_rejected=%llu\n",
      static_cast<unsigned long long>(dp.screened()),
      static_cast<unsigned long long>(dp.flagged()),
      static_cast<unsigned long long>(dp.released()),
      static_cast<unsigned long long>(dp.confirmed()),
      static_cast<unsigned long long>(dp.review_passes()),
      static_cast<unsigned long long>(eng.swaps_accepted()),
      static_cast<unsigned long long>(eng.swaps_rejected()));
}

void run_sdl_stripes(int writes_per_worker) {
  // Striped-SDL contention probe (DESIGN.md §16): 8 writers on 4 threads
  // hammering 4 KB in-place tensor writes, once against a single-stripe
  // store (forced collisions — fills oran.sdl.lock_wait_ns, which records
  // only *contended* stripe acquisitions) and once against the default
  // striping (the healthy shape), so stripe health appears in the same
  // report the latency trajectory does.
  oran::Rbac rbac;
  rbac.define_role("perf-writer",
                   {oran::Permission{"*", /*read=*/true, /*write=*/true}});
  rbac.assign_role("perf", "perf-writer");
  constexpr int kPayloadFloats = 16384;
  constexpr int kWorkers = 8;
  const nn::Shape shape{kPayloadFloats};
  util::set_num_threads(4);
  for (const std::size_t stripes : {std::size_t{1},
                                    oran::Sdl::kDefaultStripes}) {
    oran::Sdl sdl(&rbac, stripes);
    std::vector<std::string> keys;
    std::vector<std::vector<float>> bufs;
    for (int w = 0; w < kWorkers; ++w) {
      keys.push_back("cell-" + std::to_string(w));
      bufs.emplace_back(kPayloadFloats, static_cast<float>(w));
      OREV_CHECK(sdl.write_tensor("perf", "telemetry/kpm", keys.back(), shape,
                                  std::span<const float>(bufs.back())) ==
                     oran::SdlStatus::kOk,
                 "seed write must succeed");
    }
    util::parallel_for(0, kWorkers, 1, [&](std::int64_t w) {
      for (int i = 0; i < writes_per_worker; ++i) {
        bufs[static_cast<std::size_t>(w)][0] = static_cast<float>(i);
        OREV_CHECK(
            sdl.write_tensor(
                "perf", "telemetry/kpm", keys[static_cast<std::size_t>(w)],
                shape,
                std::span<const float>(bufs[static_cast<std::size_t>(w)])) ==
                oran::SdlStatus::kOk,
            "stripe write must succeed");
      }
    });
    std::printf("[sdl] stripes=%zu contended=%llu over %d writes\n", stripes,
                static_cast<unsigned long long>(sdl.total_contentions()),
                kWorkers * writes_per_worker);
  }
  util::set_num_threads(1);
}

void print_sketch(const char* name, const char* unit = "ms") {
  const obs::QuantileSketch s = obs::sketch(name).merged();
  std::printf("%-26s n=%6llu  p50=%9.4f  p95=%9.4f  p99=%9.4f  "
              "p999=%9.4f %s\n",
              name, static_cast<unsigned long long>(s.count()),
              s.quantile(0.50), s.quantile(0.95), s.quantile(0.99),
              s.quantile(0.999), unit);
}

// ------------------------------------------------- baseline regression diff
//
// The committed baselines are flat enough (one `"name": {...}` object per
// line, numeric scalar fields) that a substring scan beats pulling in a
// JSON parser: find the metric's object, then read the number after the
// field's colon.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of `"field": <num>` inside the object starting at the first
/// occurrence of `"name"` (NaN when absent).
double baseline_field(const std::string& json, const std::string& name,
                      const std::string& field) {
  const std::size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return std::nan("");
  const std::size_t end = json.find('}', at);
  const std::size_t f = json.find("\"" + field + "\"", at);
  if (f == std::string::npos || (end != std::string::npos && f > end))
    return std::nan("");
  const std::size_t colon = json.find(':', f);
  if (colon == std::string::npos) return std::nan("");
  // A non-finite value is written as null, which strtod cannot convert.
  const char* num = json.c_str() + colon + 1;
  char* stop = nullptr;
  const double v = std::strtod(num, &stop);
  return stop == num ? std::nan("") : v;
}

void diff_row(const char* label, double now, double base, const char* unit) {
  if (std::isnan(base)) {
    std::printf("%-26s now=%9.4f %-3s  baseline=     (absent)\n", label, now,
                unit);
    return;
  }
  const double pct = base != 0.0 ? (now - base) / base * 100.0 : 0.0;
  std::printf("%-26s now=%9.4f %-3s  baseline=%9.4f  %+7.1f%%\n", label, now,
              unit, base, pct);
}

void diff_against_baseline(const std::string& path) {
  const std::string json = read_file(path);
  if (json.empty()) {
    std::printf("[baseline] cannot read %s — skipping diff\n", path.c_str());
    return;
  }
  std::printf("--- regression diff vs %s (positive = slower now) ---\n",
              path.c_str());
  for (const char* name :
       {"perf.matmul64_ms", "perf.e2_roundtrip_ms", "perf.attack_sample_ms",
        "attack.batch.sample_ms", "perf.serve_batch_ms",
        "perf.defense_screen_ms"}) {
    const obs::QuantileSketch s = obs::sketch(name).merged();
    diff_row((std::string(name) + " p50").c_str(), s.quantile(0.50),
             baseline_field(json, name, "p50"), "ms");
    diff_row((std::string(name) + " p99").c_str(), s.quantile(0.99),
             baseline_field(json, name, "p99"), "ms");
  }
}

void diff_against_defense_baseline(const std::string& path) {
  const std::string json = read_file(path);
  if (json.empty()) {
    std::printf("[defense-baseline] cannot read %s — skipping diff\n",
                path.c_str());
    return;
  }
  // The defense report's sections ("closed_loop", "hot_swap", "overhead")
  // are flat scalar objects; the name scan lands on each section header.
  std::printf("--- defense closed loop vs %s ---\n", path.c_str());
  std::printf("%-26s auc_pgm=%.4f  auc_uap=%.4f  release_rate=%.4f\n",
              "closed_loop baseline",
              baseline_field(json, "closed_loop", "auc_pgm"),
              baseline_field(json, "closed_loop", "auc_uap"),
              baseline_field(json, "closed_loop", "release_rate"));
  std::printf("%-26s clean_delta=%.4f  agree_after=%.4f\n",
              "hot_swap baseline",
              baseline_field(json, "hot_swap", "clean_delta"),
              baseline_field(json, "hot_swap", "agree_after"));
  std::printf("%-26s p99_overhead=%.4f (gate <= 0.05)\n",
              "overhead baseline",
              baseline_field(json, "overhead", "p99_overhead"));
  std::printf("(rerun bench_defense --report-out to refresh; this run only "
              "echoes the committed numbers for context)\n");
}

void diff_against_serve_baseline(const std::string& path) {
  const std::string json = read_file(path);
  if (json.empty()) {
    std::printf("[serve-baseline] cannot read %s — skipping diff\n",
                path.c_str());
    return;
  }
  // The serve report nests `"unbatched": {...}` ahead of the served runs;
  // a name scan lands on the first (canonical) occurrence of each.
  std::printf("--- serve throughput vs %s ---\n", path.c_str());
  const double base_unbatched =
      baseline_field(json, "unbatched", "throughput_rps");
  const double base_requests = baseline_field(json, "config", "requests");
  std::printf("%-26s baseline unbatched=%.0f req/s over %.0f requests\n",
              "serve baseline", base_unbatched, base_requests);
  std::printf("(rerun bench_serve --report-out to refresh; this run only "
              "echoes the committed numbers for context)\n");
}

void diff_against_cityscale_baseline(const std::string& path) {
  const std::string json = read_file(path);
  if (json.empty()) {
    std::printf("[cityscale-baseline] cannot read %s — skipping diff\n",
                path.c_str());
    return;
  }
  // The cityscale report's "scale" array opens with the single-thread run;
  // the name scan lands on that first object. The codec arm names only
  // occur inside the codec section, "striped" inside the sdl section.
  // Reports before the single delivery core carry "copy"/"move" arms,
  // later ones "tensor"; an arm a report lacks is skipped.
  std::printf("--- cityscale emulation vs %s ---\n", path.c_str());
  std::printf("%-26s ue_epochs/s=%.3e  ind/s=%.3e\n", "scale baseline (1 thr)",
              baseline_field(json, "scale", "ue_epochs_per_sec"),
              baseline_field(json, "scale", "indications_per_sec"));
  for (const char* side : {"copy", "move", "tensor", "binary"}) {
    if (std::isnan(baseline_field(json, side, "inds_per_sec"))) continue;
    std::printf("%-26s inds/s=%.3e  allocs/ind=%.2f\n",
                (std::string("codec ") + side).c_str(),
                baseline_field(json, side, "inds_per_sec"),
                baseline_field(json, side, "allocs_per_ind"));
  }
  std::printf("%-26s writes/s=%.3e  contentions=%.0f\n", "sdl striped",
              baseline_field(json, "striped", "writes_per_sec"),
              baseline_field(json, "striped", "contentions"));
  std::printf("(rerun bench_cityscale --report-out to refresh; this run only "
              "echoes the committed numbers for context)\n");
}

}  // namespace

int main(int argc, char** argv) {
  ObsGuard obs_guard(argc, argv);
  parse_threads_flag(argc, argv);

  // --baseline / --serve-baseline / --defense-baseline /
  // --cityscale-baseline: committed reports to diff against.
  std::string baseline;
  std::string serve_baseline;
  std::string defense_baseline;
  std::string cityscale_baseline;
  scan_flags(argc, argv,
             {{"--baseline", baseline},
              {"--serve-baseline", serve_baseline},
              {"--defense-baseline", defense_baseline},
              {"--cityscale-baseline", cityscale_baseline}});

  std::printf("=== Perf report: matmul / E2 round-trip / attack sample / "
              "serve batch / defended batch ===\n");

  run_matmul(/*reps=*/300);
  run_e2_roundtrip(/*reps=*/500);
  run_attack(/*samples=*/64);
  run_serve(/*batches=*/300);
  run_defense(/*batches=*/300);
  run_sdl_stripes(/*writes_per_worker=*/2000);

  print_rule();
  print_sketch("perf.matmul64_ms");
  print_sketch("perf.e2_roundtrip_ms");
  print_sketch("perf.attack_sample_ms");
  print_sketch("attack.batch.sample_ms");
  print_sketch("perf.serve_batch_ms");
  print_sketch("perf.defense_screen_ms");
  print_sketch("oran.sdl.lock_wait_ns", "ns");
  print_sketch("serve.perf.latency_us", "us");  // virtual submit-to-completion
  print_rule();
  if (!baseline.empty()) {
    diff_against_baseline(baseline);
    print_rule();
  }
  if (!serve_baseline.empty()) {
    diff_against_serve_baseline(serve_baseline);
    print_rule();
  }
  if (!defense_baseline.empty()) {
    diff_against_defense_baseline(defense_baseline);
    print_rule();
  }
  if (!cityscale_baseline.empty()) {
    diff_against_cityscale_baseline(cityscale_baseline);
    print_rule();
  }
  std::printf("run with --metrics-out BENCH_<date>.json to save the report\n");
  return 0;
}
