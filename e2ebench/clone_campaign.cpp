// clone_campaign: Algorithms 1–2 against the served spectrogram victim.
//
// One chunk is one campaign: attack::collect_clone_dataset probes the
// victim through its ServeEngine (bulk batches, not a stream), clone_model
// trains the mini-DenseNet surrogate on D_clone, and one-pass DeepFool
// generate_uap runs on the surrogate (query + clone + UAP is campaign_s).
// Then Pgd::perturb runs per sample on the held-out set; each sample's
// wall time is the paper's per-sample generation time g (§5.3.3). A chunk
// times the campaign and the PGD samples together.
//
// The victim's engine runs without the defense plane: the probes are
// clean samples, and a quarantined probe would be a failed query.
#include <algorithm>
#include <memory>
#include <optional>

#include "apps/model_zoo.hpp"
#include "attack/clone.hpp"
#include "attack/pgm.hpp"
#include "attack/uap.hpp"
#include "bench.hpp"
#include "ran/datasets.hpp"
#include "serve/engine.hpp"
#include "util/obs/metrics.hpp"
#include "util/stats.hpp"

namespace e2ebench {

using namespace orev;

namespace {

constexpr float kUapEps = 0.2f;
constexpr float kPgdEps = 0.1f;

struct CloneShape {
  int probes_per_class;
  int held_out_per_class;  // PGD samples = 2 × this
  int clone_epochs;
  int uap_samples;  // interference rows of D_clone the UAP sweeps
};

CloneShape shape_for(const Options& opt) {
  if (opt.small) return {24, 8, 1, 8};
  return {200, 100, 4, 48};
}

struct CloneRig {
  std::unique_ptr<serve::ServeEngine> engine;
  std::optional<nn::Model> reference;  // layer-walk twin of the victim
  nn::Shape sample_shape;
  data::Dataset probes;
  data::Dataset held_out;
  std::vector<int> probe_truth;  // layer-walk victim labels of the probes
};

std::unique_ptr<CloneRig> build(const Options& opt) {
  const CloneShape shape = shape_for(opt);
  auto rig = std::make_unique<CloneRig>();
  SpectroVictim v = train_spectro_victim(opt);
  rig->reference.emplace(v.model.clone());
  serve::ServeConfig sc;
  sc.name = "bench_clone";
  sc.batch_max = 32;
  sc.replicas = opt.threads;
  rig->engine = std::make_unique<serve::ServeEngine>(std::move(v.model), sc);
  rig->probes = ran::make_spectrogram_dataset(v.scfg, shape.probes_per_class,
                                              opt.seed + 10);
  rig->held_out = ran::make_spectrogram_dataset(
      v.scfg, shape.held_out_per_class, opt.seed + 11);
  rig->sample_shape = rig->probes.sample_shape();
  rig->probe_truth = rig->reference->predict(rig->probes.x);
  return rig;
}

}  // namespace

Result run_clone_campaign(const Options& opt) {
  Result res;
  const CloneShape shape = shape_for(opt);
  SetupTimes setup;
  std::unique_ptr<CloneRig> rig =
      timed_setups([&] { return build(opt); }, setup);
  CloneRig& r = *rig;
  serve::ServeEngine& eng = *r.engine;
  obs::Counter& regions = obs::counter("pool.regions");
  obs::Counter& inner_calls = obs::counter("attack.uap.inner_calls");
  const int held = r.held_out.size();

  // One campaign and its per-sample generation: what a chunk times.
  struct Campaign {
    std::optional<data::Dataset> d_clone;
    std::optional<attack::CloneReport> clone;
    std::optional<attack::UapResult> uap;
    std::vector<nn::Tensor> adv;
    std::vector<double> gen_ms;
    double campaign_s = 0.0;  // query + clone + UAP
    std::uint64_t pgd_regions = 0;
  };
  auto run_campaign = [&](SpanLog* sp, Campaign& out) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope q(sp, "attack.query");
      out.d_clone = attack::collect_clone_dataset(eng, r.probes.x);
    }
    {
      Scope cl(sp, "attack.clone");
      attack::CloneConfig cc;
      cc.train.max_epochs = shape.clone_epochs;
      cc.train.learning_rate = 2e-3f;
      cc.seed = kSystemSeed;
      const nn::Shape in = r.sample_shape;
      out.clone = attack::clone_model(
          *out.d_clone,
          {{"DenseNet",
            [in](std::uint64_t s) { return apps::make_mini_densenet(in, 2, s); }}},
          cc);
    }
    {
      Scope u(sp, "attack.uap");
      std::vector<int> jammed;
      for (int k = 0; k < out.d_clone->size() &&
                      static_cast<int>(jammed.size()) < shape.uap_samples;
           ++k)
        if (out.d_clone->y[static_cast<std::size_t>(k)] == ran::kLabelInterference)
          jammed.push_back(k);
      attack::UapConfig uc;
      uc.eps = kUapEps;
      uc.max_passes = 1;
      // A sample counts as fooled only at high confidence, so every sample
      // takes an inner call, and the inner DeepFool takes one linearised
      // step: the campaign's work then does not depend on how fast this
      // seed's surrogate happens to be fooled.
      uc.min_confidence = 0.99f;
      uc.seed = kSystemSeed;
      attack::DeepFool inner(1, 0.1f);
      out.uap = attack::generate_uap(out.clone->model,
                                     out.d_clone->subset(jammed).x, inner, uc);
    }
    out.campaign_s = seconds_between(t0, Clock::now());

    // Per-sample generation on the surrogate: label = the surrogate's own
    // prediction (the attacker has no ground truth).
    nn::Model& surrogate = out.clone->model;
    out.adv.assign(static_cast<std::size_t>(held), nn::Tensor());
    out.gen_ms.clear();
    const std::uint64_t rg0 = regions.value();
    Scope pgd_scope(sp, "attack.pgd");
    attack::Pgd pgd(kPgdEps, 10, 0.0f, kSystemSeed);
    for (int k = 0; k < held; ++k) {
      Scope gen(sp, "attack.gen");
      const nn::Tensor x = r.held_out.x.slice_batch(k);
      const Clock::time_point g0 = Clock::now();
      pgd.reseed(static_cast<std::uint64_t>(k));
      const int label = surrogate.predict_one(x);
      out.adv[static_cast<std::size_t>(k)] = pgd.perturb(surrogate, x, label);
      out.gen_ms.push_back(1e3 * seconds_between(g0, Clock::now()));
    }
    out.pgd_regions = regions.value() - rg0;
  };

  // One untimed warm campaign: first-touch pages and plan scratch settle.
  {
    Campaign warm;
    run_campaign(nullptr, warm);
  }
  const std::uint64_t inner0 = inner_calls.value();

  SpanLog spans;
  std::vector<Chunk> chunks;
  std::vector<double> campaign_s;
  double traced_total = 0.0;
  std::uint64_t label_mismatch = 0, uap_outside = 0, pgd_outside = 0;
  std::uint64_t probes = 0, shed = 0, samples = 0, pgd_regions = 0;
  double clone_acc = 0.0;

  double measured = 0.0;
  for (int i = 0; opt.more(i, measured); ++i) {
    const bool traced = opt.traced(i);
    const serve::SloSnapshot s0 = eng.slo();
    Campaign cp;
    Chunk c = timed_chunk(traced, [&] {
      Scope chunk(traced ? &spans : nullptr, "campaign");
      run_campaign(traced ? &spans : nullptr, cp);
    });
    c.ops = 1;
    // One campaign's samples: its p90 has 20 samples beyond it. p95 moved
    // by a third between runs of the same code on a host that steals vCPU
    // time.
    c.lat_p50_us = 1e3 * percentile(cp.gen_ms, 50.0);
    c.lat_tail_us = 1e3 * percentile(cp.gen_ms, 90.0);
    measured += c.wall_s;
    if (!traced) campaign_s.push_back(cp.campaign_s);
    pgd_regions += cp.pgd_regions;

    // ---- output checks (untimed) ----
    const serve::SloSnapshot s1 = eng.slo();
    probes += static_cast<std::uint64_t>(cp.d_clone->size());
    shed += (s1.rejected - s0.rejected) + (s1.quarantined - s0.quarantined);
    samples += static_cast<std::uint64_t>(held);
    if (cp.d_clone->y != r.probe_truth) ++label_mismatch;
    if (!(cp.uap->perturbation.norm_inf() <= kUapEps * (1.0f + 1e-6f)))
      ++uap_outside;
    for (int k = 0; k < held; ++k) {
      const nn::Tensor& a = cp.adv[static_cast<std::size_t>(k)];
      nn::Tensor delta = a;
      delta -= r.held_out.x.slice_batch(k);
      if (!(delta.norm_inf() <= kPgdEps * (1.0f + 1e-5f)) || a.min() < 0.0f ||
          a.max() > 1.0f)
        ++pgd_outside;
    }
    clone_acc = cp.clone->cloning_accuracy;
    if (traced) traced_total += c.wall_s;
    chunks.push_back(c);
  }

  res.check(label_mismatch == 0,
            "clone_campaign: D_clone labels differ from direct victim "
            "predictions");
  res.check(uap_outside == 0, "clone_campaign: UAP outside its eps-ball");
  res.check(pgd_outside == 0,
            "clone_campaign: PGD sample outside its eps-ball or [0, 1]");
  res.check(shed == 0, "clone_campaign: probes shed by the victim's engine");
  res.attempted = probes + samples;
  res.failed = shed;

  const EndToEnd e = summarize(chunks, res);
  res.headline = {{"campaign_s", median(campaign_s), "s"},
                  {"cpu_us_per_campaign", e.cpu_us_per_op, "us"},
                  {"gen_ms_p50", e.lat_p50_us / 1e3, "ms"},
                  {"gen_ms_p90", e.lat_tail_us / 1e3, "ms"},
                  {"cloning_accuracy", clone_acc, "ratio"},
                  {"fail_frac", fail_frac(res), "ratio"}};
  for (Metric& m : setup_metrics(setup)) res.headline.push_back(std::move(m));
  res.headline.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  res.e2e = e2e_metrics(e, setup);

  // ---- per-layer (traced campaigns) ----
  const double traced_n = std::max<double>(
      1.0, static_cast<double>(std::count_if(chunks.begin(), chunks.end(),
                                             [](const Chunk& c) { return c.traced; })));
  const double accounted =
      spans.total_s("attack.query") + spans.total_s("attack.clone") +
      spans.total_s("attack.uap") + spans.total_s("attack.gen");
  res.layers = layer_metrics({
      {"serve.occupancy", eng.slo().mean_occupancy},
      {"pool.regions_per_op",
       samples ? static_cast<double>(pgd_regions) / static_cast<double>(samples) : 0.0},
      {"attack.query_s", spans.total_s("attack.query") / traced_n},
      {"attack.clone_s", spans.total_s("attack.clone") / traced_n},
      {"attack.uap_s", spans.total_s("attack.uap") / traced_n},
      {"trace_overhead_pct", trace_overhead_pct(chunks)},
      {"unaccounted_pct",
       traced_total > 0 ? 100.0 * (traced_total - accounted) / traced_total : 0.0},
  });

  res.counts = {{"campaigns", chunks.size()},
                {"probes", probes},
                {"shed_probes", shed},
                {"generated", samples},
                {"uap_inner_calls", inner_calls.value() - inner0},
                {"pgd_regions", pgd_regions}};
  if (opt.trace) spans.write_json(opt.out_dir + "/spans_clone_campaign.json");
  return res;
}

}  // namespace e2ebench
