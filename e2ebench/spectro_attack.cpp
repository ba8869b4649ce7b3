// spectro_attack: the paper's primary victim (§5.1) under attack.
//
// Spectrogram indications (24×24, generated in setup) are moved into
// NearRtRic::deliver_indication and dispatched, in priority order, to
// the paper's MaliciousXApp (an over-permissive telemetry-write role) and
// to the spectrogram IC xApp, whose BaseCNN (trained in setup) is served
// by a defended ServeEngine with quarantine review. The attacker applies
// a precomputed UAP in periodic bursts: each chunk is one attack burst
// followed by one clean window, then drain() and review_quarantine_now(),
// timed as a whole. Output checks run between chunks, untimed: the rows
// the victim read are rebuilt there from the pool and the UAP, with the
// attacker's own arithmetic.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "apps/ic_xapp.hpp"
#include "apps/malicious_xapp.hpp"
#include "attack/pgm.hpp"
#include "attack/uap.hpp"
#include "bench.hpp"
#include "defense/detectors.hpp"
#include "ran/datasets.hpp"
#include "serve/engine.hpp"
#include "util/obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace e2ebench {

using namespace orev;

namespace {

constexpr int kFixedMcs = 13;
constexpr int kNodes = 4;
constexpr float kUapEps = 0.2f;

struct SpectroShape {
  int stream_per_class;  // pre-generated indication pool
  int calib_per_class;   // the operator's clean calibration corpus
  int uap_samples;
  int burst;             // indications per attack burst (= clean window)
};

SpectroShape shape_for(const Options& opt) {
  if (opt.small) return {32, 32, 16, 16};
  return {512, 128, 48, 64};
}

struct SpectroRig {
  RicStack stack;
  RecordingE2Node node;
  std::shared_ptr<apps::IcXApp> victim;
  std::shared_ptr<apps::MaliciousXApp> attacker;
  std::string victim_id, attacker_id;
  std::unique_ptr<serve::ServeEngine> engine;
  std::optional<nn::Model> reference;  // layer-walk twin of the victim
  data::Dataset stream;                // indication pool, interleaved
  nn::Tensor uap;                      // the attacker's perturbation
  SpanLog* spans = nullptr;
};

std::unique_ptr<SpectroRig> build(const Options& opt) {
  const SpectroShape shape = shape_for(opt);
  auto rig = std::make_unique<SpectroRig>();
  SpectroVictim v = train_spectro_victim(opt);
  const ran::SpectrogramConfig& scfg = v.scfg;
  nn::Model model = std::move(v.model);
  rig->reference.emplace(model.clone());

  // Indication pool: both classes, interleaved so bursts see a mix.
  const data::Dataset pool = ran::make_spectrogram_dataset(
      scfg, shape.stream_per_class, opt.seed + 1);
  std::vector<int> order(static_cast<std::size_t>(pool.size()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Rng shuffle(opt.seed + 2);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[shuffle.uniform_int(0, static_cast<int>(i) - 1)]);
  rig->stream = pool.subset(order);

  // Precomputed UAP (Algorithm 2, one DeepFool pass) on interference
  // samples of the system's own corpus, pushing them across the victim's
  // boundary.
  const data::Dataset uap_set =
      ran::make_spectrogram_dataset(scfg, shape.uap_samples, kSystemSeed + 1);
  std::vector<int> jammed;
  for (int i = 0; i < uap_set.size(); ++i)
    if (uap_set.y[static_cast<std::size_t>(i)] == ran::kLabelInterference)
      jammed.push_back(i);
  attack::UapConfig uc;
  uc.eps = kUapEps;
  uc.max_passes = 1;
  uc.seed = kSystemSeed;
  attack::DeepFool inner(20, 0.1f);
  nn::Model uap_model = model.clone();
  const attack::UapResult uap =
      attack::generate_uap(uap_model, uap_set.subset(jammed).x, inner, uc);

  // Defended serving engine, calibrated on the operator's clean corpus:
  // the distribution profile on every row, the step distribution on
  // consecutive rows of calibration-only flows. Spectrogram pixels vary
  // widely between the two classes, so the default z-scale threshold
  // would pass any bounded perturbation; the distribution threshold is
  // instead the 99th percentile of the calibration corpus's own scores.
  const data::Dataset calib = ran::make_spectrogram_dataset(
      scfg, shape.calib_per_class, kSystemSeed + 3);
  defense::CalibrationProfile profile;
  profile.observe_rows(calib.x);
  std::vector<double> calib_scores;
  for (int i = 0; i < calib.size(); ++i)
    calib_scores.push_back(profile.score(calib.x.slice_batch(i)));
  const double calib_p99 = percentile(calib_scores, 99.0);
  serve::ServeConfig sc;
  sc.name = "bench_spectro";
  sc.batch_max = 32;
  sc.replicas = opt.threads;
  sc.defense.enable = true;
  sc.defense.dist_threshold = calib_p99;
  sc.defense.review_every = 64;
  rig->engine = std::make_unique<serve::ServeEngine>(model.clone(), sc);
  rig->engine->defense()->calibrate(calib.x);
  const int per_flow = calib.size() / kNodes;
  for (int f = 0; f < kNodes; ++f) {
    std::vector<int> idx;
    for (int i = 0; i < per_flow; ++i) idx.push_back(f * per_flow + i);
    rig->engine->defense()->calibrate_flow("warm/gnb-" + std::to_string(f),
                                           calib.subset(idx).x);
  }

  rig->victim = std::make_shared<apps::IcXApp>(
      std::move(model), oran::IndicationKind::kSpectrogram, kFixedMcs);
  rig->victim->set_serve_engine(rig->engine.get());
  rig->attacker =
      std::make_shared<apps::MaliciousXApp>(oran::IndicationKind::kSpectrogram);
  rig->uap = uap.perturbation;
  rig->attacker->arm_uap(uap.perturbation);
  rig->attacker->set_mode(apps::MaliciousXApp::Mode::kObserve);

  oran::NearRtRic& ric = rig->stack.ric;
  rig->victim_id = rig->stack.onboard("ic-spectro", "ic-xapp");
  rig->attacker_id = rig->stack.onboard("kpi-helper", "kpi-processor");
  OREV_CHECK(ric.register_xapp(rig->attacker, rig->attacker_id, 1) &&
                 ric.register_xapp(rig->victim, rig->victim_id, 10),
             "xApp registration refused");
  ric.connect_e2(&rig->node);
  apps::IcXApp* victim = rig->victim.get();
  rig->node.set_quarantine_source(
      [victim] { return victim->serve_quarantined(); });
  SpectroRig* r = rig.get();
  serve::ServeEngine* eng = rig->engine.get();
  ric.set_post_dispatch_hook([r, eng] {
    Scope tick(r->spans, "serve.tick");
    eng->tick();
  });
  return rig;
}

}  // namespace

Result run_spectro_attack(const Options& opt) {
  Result res;
  const SpectroShape shape = shape_for(opt);
  SetupTimes setup;
  std::unique_ptr<SpectroRig> rig =
      timed_setups([&] { return build(opt); }, setup);
  SpectroRig& r = *rig;
  oran::NearRtRic& ric = r.stack.ric;
  serve::ServeEngine& eng = *r.engine;
  const nn::Shape sample_shape = r.stream.sample_shape();
  const int pool_n = r.stream.size();
  const int numel = static_cast<int>(r.stream.x.numel()) / pool_n;
  std::vector<std::string> node_ids;
  for (int n = 0; n < kNodes; ++n) node_ids.push_back("gnb-" + std::to_string(n));

  SpanLog spans;
  std::uint64_t next = 0;  // stream position (wraps over the pool)
  std::uint64_t sent = 0, dropped = 0, allocs = 0;
  std::vector<int> pool_rows;  // pool row of each answered indication
  std::vector<char> attacked;  // per row: delivered in an attack burst

  // Deliver one indication; keep its pool row and whether it was sent in
  // an attack burst, from which the checks rebuild the row the victim read.
  auto deliver_one = [&](bool attack) {
    oran::E2Indication ind;
    const int k = static_cast<int>(next % static_cast<std::uint64_t>(pool_n));
    ind.ran_node_id = node_ids[next % kNodes];
    ind.tti = next++;
    ind.kind = oran::IndicationKind::kSpectrogram;
    ind.payload = r.stream.x.slice_batch(k);
    r.node.expect(Clock::now());
    const std::uint64_t a0 = heap_allocs();
    bool ok = false;
    {
      Scope deliver(r.spans, "oran.deliver");
      ok = ric.deliver_indication(std::move(ind));
    }
    allocs += heap_allocs() - a0;
    ++sent;
    if (!ok) {
      ++dropped;
      r.node.cancel_last();
      return;
    }
    pool_rows.push_back(k);
    attacked.push_back(attack ? 1 : 0);
  };

  // One chunk: an attack burst, a clean window, then drain and review.
  auto run_chunk = [&] {
    r.attacker->set_mode(apps::MaliciousXApp::Mode::kAttack);
    for (int i = 0; i < shape.burst; ++i) deliver_one(true);
    r.attacker->set_mode(apps::MaliciousXApp::Mode::kObserve);
    for (int i = 0; i < shape.burst; ++i) deliver_one(false);
    {
      Scope drain(r.spans, "serve.drain");
      eng.drain();
    }
    Scope review(r.spans, "defense.review");
    eng.review_quarantine_now();
  };

  // Layer-walk predictions for a chunk's rows. The row the victim read is
  // pool row k, or in a burst clamp(k + UAP, 0, 1) as the attacker writes
  // it, so each (k, attacked) pair is predicted once and looked up after.
  std::vector<int> walk(2 * static_cast<std::size_t>(pool_n), -1);
  auto expected = [&] {
    const std::size_t n = attacked.size();
    std::vector<std::size_t> slot(n), todo;
    for (std::size_t j = 0; j < n; ++j) {
      slot[j] = static_cast<std::size_t>(attacked[j]) * pool_n + pool_rows[j];
      if (walk[slot[j]] < 0 &&
          std::find(todo.begin(), todo.end(), slot[j]) == todo.end())
        todo.push_back(slot[j]);
    }
    if (!todo.empty()) {
      nn::Shape bs{static_cast<int>(todo.size())};
      bs.insert(bs.end(), sample_shape.begin(), sample_shape.end());
      nn::Tensor batch(bs);
      for (std::size_t t = 0; t < todo.size(); ++t) {
        const int k = static_cast<int>(todo[t] % pool_n);
        nn::Tensor row = r.stream.x.slice_batch(k);
        if (todo[t] >= static_cast<std::size_t>(pool_n)) {
          row += r.uap;
          row.clamp(0.0f, 1.0f);
        }
        std::copy_n(row.raw(), numel, batch.raw() + t * numel);
      }
      const std::vector<int> pred = r.reference->predict(batch);
      for (std::size_t t = 0; t < todo.size(); ++t) walk[todo[t]] = pred[t];
    }
    std::vector<int> out(n);
    for (std::size_t j = 0; j < n; ++j) out[j] = walk[slot[j]];
    return out;
  };

  // One untimed warm chunk: flows seed their references, scratch settles.
  run_chunk();
  r.node.take();

  std::vector<Chunk> chunks;
  ControlAudit audit;
  std::uint64_t atk_rows = 0, atk_flagged = 0, clean_rows = 0, clean_flagged = 0;
  const oran::XAppDispatchStats v0 = ric.stats_of(r.victim_id);
  const oran::XAppDispatchStats a0 = ric.stats_of(r.attacker_id);
  const std::uint64_t applied0 = r.attacker->perturbations_applied();
  const std::uint64_t flagged0 = eng.defense()->flagged();
  const std::uint64_t reviewed0 = eng.defense()->reviewed();
  const std::uint64_t sent0 = sent;
  const std::uint64_t allocs0 = allocs;
  double traced_ic_ms = 0.0, traced_atk_ms = 0.0;
  std::uint64_t traced_ic_n = 0, traced_atk_n = 0, traced_inds = 0;

  double measured = 0.0;
  for (int i = 0; opt.more(i, measured); ++i) {
    const bool traced = opt.traced(i);
    r.spans = traced ? &spans : nullptr;
    pool_rows.clear();
    attacked.clear();
    const oran::XAppDispatchStats vs = ric.stats_of(r.victim_id);
    const oran::XAppDispatchStats as = ric.stats_of(r.attacker_id);
    Chunk c = timed_chunk(traced, [&] {
      Scope chunk(r.spans, "chunk");
      run_chunk();
    });
    measured += c.wall_s;
    r.spans = nullptr;

    // ---- output checks (untimed) ----
    const std::vector<ControlRecord> ctl = r.node.take();
    if (ctl.size() == attacked.size()) {
      for (std::size_t k = 0; k < ctl.size(); ++k) {
        const bool atk = attacked[k] != 0;
        (atk ? atk_rows : clean_rows) += 1;
        if (ctl[k].quarantined) (atk ? atk_flagged : clean_flagged) += 1;
      }
    }
    audit.add(ctl, attacked.size(), expected, kFixedMcs, c);
    if (traced) {
      const oran::XAppDispatchStats v1 = ric.stats_of(r.victim_id);
      const oran::XAppDispatchStats a1 = ric.stats_of(r.attacker_id);
      traced_ic_ms += v1.total_ms - vs.total_ms;
      traced_ic_n += v1.dispatches - vs.dispatches;
      traced_atk_ms += a1.total_ms - as.total_ms;
      traced_atk_n += a1.dispatches - as.dispatches;
      traced_inds += attacked.size();
    }
    chunks.push_back(c);
  }

  const oran::XAppDispatchStats v1 = ric.stats_of(r.victim_id);
  const oran::XAppDispatchStats a1 = ric.stats_of(r.attacker_id);
  const serve::SloSnapshot slo = eng.slo();
  const std::uint64_t inds = sent - sent0;
  const std::uint64_t faults = (v1.faults - v0.faults) + (a1.faults - a0.faults);
  const std::uint64_t lost_controls =
      ric.controls_dropped() + ric.controls_failed();
  const std::uint64_t applied = r.attacker->perturbations_applied() - applied0;
  std::uint64_t regions = 0;
  for (const Chunk& c : chunks) regions += c.regions;

  res.check(audit.count_errors == 0, "spectro_attack: a chunk's control "
                                     "count differs from its indications");
  res.check(dropped == 0, "spectro_attack: indications dropped");
  res.check(slo.degraded_syncs == 0, "spectro_attack: serve degraded_syncs != 0");
  res.check(r.victim->serve_shed() == 0, "spectro_attack: serve_shed != 0");
  res.check(r.node.unmatched() == 0, "spectro_attack: control without indication");
  res.check(audit.mismatched == 0,
            "spectro_attack: " + std::to_string(audit.mismatched) +
                " unquarantined controls differ from the layer walk");
  res.check(faults == 0 && lost_controls == 0,
            "spectro_attack: xApp faults or lost controls");
  res.check(applied == atk_rows,
            "spectro_attack: attacker writes != attack-burst indications");
  res.check(atk_rows > 0 && atk_flagged > 0,
            "spectro_attack: attack bursts were never flagged");
  res.attempted = inds;
  res.failed = dropped + (inds - std::min(inds, audit.controls)) + faults +
               lost_controls + r.victim->serve_shed();

  const EndToEnd e = summarize(chunks, res);
  res.headline = stream_headline(e, res, setup);
  res.e2e = e2e_metrics(e, setup);

  // ---- per-layer (traced chunks) ----
  double traced_wall = 0.0;
  std::size_t traced_chunks = 0;
  for (const Chunk& c : chunks)
    if (c.traced) {
      traced_wall += c.wall_s;
      ++traced_chunks;
    }
  const double per_ind = traced_inds ? 1.0 / static_cast<double>(traced_inds) : 0.0;
  const double apps_s = (traced_ic_ms + traced_atk_ms) / 1e3;
  const double deliver_self = spans.self_s("oran.deliver") - apps_s;
  const double flush = spans.total_s("serve.tick") + spans.total_s("serve.drain");
  const double review = spans.total_s("defense.review");
  const double accounted = deliver_self + apps_s + flush + review;
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  res.layers = layer_metrics({
      {"oran.deliver_us_per_ind", 1e6 * deliver_self * per_ind},
      {"oran.allocs_per_ind", ratio(allocs - allocs0, inds)},
      {"apps.ic_us_per_ind", traced_ic_n ? 1e3 * traced_ic_ms / static_cast<double>(traced_ic_n) : 0.0},
      {"apps.atk_us_per_ind", traced_atk_n ? 1e3 * traced_atk_ms / static_cast<double>(traced_atk_n) : 0.0},
      {"serve.flush_us_per_ind", 1e6 * flush * per_ind},
      {"serve.occupancy", slo.mean_occupancy},
      {"pool.regions_per_op", ratio(regions, inds)},
      {"defense.flag_rate_attack", ratio(atk_flagged, atk_rows)},
      {"defense.flag_rate_clean", ratio(clean_flagged, clean_rows)},
      {"defense.review_ms", traced_chunks ? 1e3 * review / static_cast<double>(traced_chunks) : 0.0},
      {"trace_overhead_pct", trace_overhead_pct(chunks)},
      {"unaccounted_pct", traced_wall > 0 ? 100.0 * (traced_wall - accounted) / traced_wall : 0.0},
  });

  res.counts = {{"chunks", chunks.size()},
                {"indications", inds},
                {"controls", audit.controls},
                {"attacker_writes", applied},
                {"flagged", eng.defense()->flagged() - flagged0},
                {"quarantined", audit.quarantined},
                {"reviewed", eng.defense()->reviewed() - reviewed0},
                {"pool_regions", regions},
                {"allocs", allocs - allocs0}};
  if (opt.trace) spans.write_json(opt.out_dir + "/spans_spectro_attack.json");
  return res;
}

}  // namespace e2ebench
