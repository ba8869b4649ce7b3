// city_kpm: the KPM indication's trip through the whole system.
//
// CitySim at the committed city shape emits one binary KPM frame per cell
// per epoch. A benchmark FrameSink hands each frame to
// NearRtRic::deliver_kpm_frame, which writes the SDL and dispatches the
// KPM IC xApp; the xApp submits to a defended ServeEngine, whose
// completions publish the decision and send the E2 control to a recording
// E2 node. The platform's post-dispatch hook ticks the engine, and the
// engine is drained at each epoch barrier, so every control of an epoch
// has returned before the next epoch starts (closed loop).
//
// One chunk is one epoch: run_epochs(1) + drain(), timed as a whole.
// Output checks run between chunks, outside the timed region.
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "apps/ic_xapp.hpp"
#include "apps/model_zoo.hpp"
#include "bench.hpp"
#include "citysim/citysim.hpp"
#include "oran/e2_codec.hpp"
#include "serve/engine.hpp"
#include "util/obs/metrics.hpp"

namespace e2ebench {

using namespace orev;

namespace {

constexpr int kFeatures = 16;
constexpr int kFixedMcs = 13;

struct CityShape {
  std::uint32_t cells, ues, shards;
  std::uint64_t warm_epochs;
};

CityShape shape_for(const Options& opt) {
  if (opt.small) return {200, 5000, 8, 2};
  return {2000, 100000, 64, 3};
}

/// Frame consumer on the simulating thread: records the row the xApp
/// will read (the frame's features — nothing else writes KPM telemetry
/// in this workload) and the delivery timestamp, then delivers.
class DeliverSink : public citysim::FrameSink {
 public:
  DeliverSink(oran::NearRtRic& ric, RecordingE2Node& node)
      : ric_(ric), node_(node) {}

  void on_frame(std::uint32_t, std::string_view frame) override {
    Scope sink(spans, "bench.sink");
    const std::size_t at = rows.size();
    rows.resize(at + kFeatures);
    std::memcpy(rows.data() + at, frame.data() + oran::kKpmFrameHeaderBytes,
                kFeatures * sizeof(float));
    node_.expect(Clock::now());
    const std::uint64_t a0 = heap_allocs();
    bool ok = false;
    {
      Scope deliver(spans, "oran.deliver");
      ok = ric_.deliver_kpm_frame(frame);
    }
    allocs += heap_allocs() - a0;
    if (ok) {
      ++delivered;
    } else {
      ++rejected;
      rows.resize(at);
      node_.cancel_last();
    }
  }

  SpanLog* spans = nullptr;
  std::vector<float> rows;  // this epoch's delivered rows, [n, kFeatures]
  std::uint64_t delivered = 0;  // frames the RIC accepted
  std::uint64_t rejected = 0;
  std::uint64_t allocs = 0;

 private:
  oran::NearRtRic& ric_;
  RecordingE2Node& node_;
};

/// Warm-up consumer: keeps every frame's features for calibration.
class CollectSink : public citysim::FrameSink {
 public:
  void on_frame(std::uint32_t, std::string_view frame) override {
    oran::KpmFrameView v;
    if (oran::decode_kpm_frame(frame, v) != oran::KpmDecodeStatus::kOk)
      return;
    std::vector<float>& dst = by_cell[v.cell_id];
    const std::size_t at = dst.size();
    dst.resize(at + v.feature_count);
    v.copy_features(std::span<float>(dst.data() + at, v.feature_count));
  }
  std::map<std::uint32_t, std::vector<float>> by_cell;
};

struct CityRig {
  RicStack stack;
  RecordingE2Node node;
  std::unique_ptr<citysim::CitySim> sim;
  std::shared_ptr<apps::IcXApp> app;
  std::string app_id;
  std::unique_ptr<serve::ServeEngine> engine;
  std::optional<nn::Model> reference;  // layer-walk twin of the served model
  std::unique_ptr<DeliverSink> sink;
};

std::unique_ptr<CityRig> build(const Options& opt) {
  const CityShape shape = shape_for(opt);
  auto rig = std::make_unique<CityRig>();
  citysim::CityConfig cc;
  cc.cells = shape.cells;
  cc.ues = shape.ues;
  cc.shards = shape.shards;
  cc.features = kFeatures;
  cc.seed = opt.seed;
  rig->sim = std::make_unique<citysim::CitySim>(cc);

  nn::Model model = apps::make_kpm_dnn(kFeatures, 2, kSystemSeed);
  rig->reference.emplace(model.clone());
  serve::ServeConfig sc;
  sc.name = "bench_city";
  sc.batch_max = 32;
  sc.replicas = opt.threads;
  sc.defense.enable = true;
  // KPM frames carry a report counter and follow a diurnal profile, so a
  // per-feature profile of a few warm-up epochs goes stale within
  // seconds; the per-flow step screen is the detector that fits them.
  sc.defense.use_distribution = false;
  rig->engine = std::make_unique<serve::ServeEngine>(model.clone(), sc);

  // Calibrate the defense plane on warm-up epochs of the same simulation:
  // the natural step distribution from each cell's consecutive rows,
  // under calibration-only flow keys so live flows seed their own
  // last-known-good from live SDL versions.
  CollectSink warm;
  rig->sim->set_sink(&warm);
  rig->sim->run_epochs(shape.warm_epochs);
  for (const auto& [cell, rows] : warm.by_cell) {
    const int m = static_cast<int>(rows.size() / kFeatures);
    rig->engine->defense()->calibrate_flow(
        "warm/cell-" + std::to_string(cell), nn::Tensor({m, kFeatures}, rows));
  }

  rig->app = std::make_shared<apps::IcXApp>(
      std::move(model), oran::IndicationKind::kKpm, kFixedMcs);
  rig->app->set_serve_engine(rig->engine.get());
  rig->app_id = rig->stack.onboard("ic-kpm", "ic-xapp");
  OREV_CHECK(rig->stack.ric.register_xapp(rig->app, rig->app_id, 10),
             "IC xApp registration refused");
  rig->stack.ric.connect_e2(&rig->node);
  apps::IcXApp* app = rig->app.get();
  rig->node.set_quarantine_source([app] { return app->serve_quarantined(); });
  rig->sink = std::make_unique<DeliverSink>(rig->stack.ric, rig->node);
  DeliverSink* sink = rig->sink.get();
  serve::ServeEngine* eng = rig->engine.get();
  rig->stack.ric.set_post_dispatch_hook([sink, eng] {
    Scope tick(sink->spans, "serve.tick");
    eng->tick();
  });
  rig->sim->set_sink(sink);
  return rig;
}

}  // namespace

Result run_city_kpm(const Options& opt) {
  Result res;
  SetupTimes setup;
  std::unique_ptr<CityRig> rig =
      timed_setups([&] { return build(opt); }, setup);
  CityRig& r = *rig;
  DeliverSink& sink = *r.sink;
  oran::NearRtRic& ric = r.stack.ric;
  serve::ServeEngine& eng = *r.engine;

  // One untimed warm epoch: SDL keys, flow references and plan scratch
  // settle before timing.
  r.sim->run_epochs(1);
  eng.drain();
  r.node.take();

  SpanLog spans;
  std::vector<Chunk> chunks;
  ControlAudit audit;
  const oran::XAppDispatchStats ic0 = ric.stats_of(r.app_id);
  const std::uint64_t events0 = r.sim->stats().events;
  const std::uint64_t flagged0 = eng.defense()->flagged();
  const std::uint64_t delivered0 = sink.delivered;
  const std::uint64_t allocs0 = sink.allocs;
  double traced_ic_ms = 0.0, traced_events = 0.0;
  std::uint64_t traced_dispatches = 0, traced_inds = 0;

  double measured = 0.0;
  for (int i = 0; opt.more(i, measured); ++i) {
    const bool traced = opt.traced(i);
    sink.spans = traced ? &spans : nullptr;
    sink.rows.clear();
    const std::uint64_t d0 = sink.delivered;
    const oran::XAppDispatchStats s0 = ric.stats_of(r.app_id);
    const std::uint64_t e0 = r.sim->stats().events;
    Chunk c = timed_chunk(traced, [&] {
      Scope epoch(sink.spans, "epoch");
      {
        Scope sim(sink.spans, "citysim.run_epochs");
        r.sim->run_epochs(1);
      }
      Scope drain(sink.spans, "serve.drain");
      eng.drain();
    });
    measured += c.wall_s;

    // ---- output checks (untimed) ----
    const std::size_t n = sink.delivered - d0;
    audit.add(r.node.take(), n,
              [&] {
                return r.reference->predict(
                    nn::Tensor({static_cast<int>(n), kFeatures}, sink.rows));
              },
              kFixedMcs, c);
    if (traced) {
      const oran::XAppDispatchStats s1 = ric.stats_of(r.app_id);
      traced_ic_ms += s1.total_ms - s0.total_ms;
      traced_dispatches += s1.dispatches - s0.dispatches;
      traced_events += static_cast<double>(r.sim->stats().events - e0);
      traced_inds += n;
    }
    chunks.push_back(c);
  }
  sink.spans = nullptr;

  const oran::XAppDispatchStats ic1 = ric.stats_of(r.app_id);
  const serve::SloSnapshot slo = eng.slo();
  const std::uint64_t inds = sink.delivered - delivered0;
  const std::uint64_t faults = ic1.faults - ic0.faults;
  const std::uint64_t lost_controls =
      ric.controls_dropped() + ric.controls_failed();
  std::uint64_t regions = 0;
  for (const Chunk& c : chunks) regions += c.regions;

  res.check(audit.count_errors == 0, "city_kpm: an epoch's control count "
                                     "differs from its delivered frames");
  res.check(ric.frames_rejected() == 0, "city_kpm: frames_rejected != 0");
  res.check(slo.degraded_syncs == 0, "city_kpm: serve degraded_syncs != 0");
  res.check(r.app->serve_shed() == 0, "city_kpm: serve_shed != 0");
  res.check(r.node.unmatched() == 0, "city_kpm: control without indication");
  res.check(audit.mismatched == 0,
            "city_kpm: " + std::to_string(audit.mismatched) +
                " unquarantined controls differ from the layer walk");
  res.check(faults == 0 && lost_controls == 0,
            "city_kpm: xApp faults or lost controls");
  res.attempted = inds + sink.rejected;
  res.failed = sink.rejected + (inds - std::min(inds, audit.controls)) +
               faults + lost_controls + r.app->serve_shed();

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
  const double sim_self = spans.self_s("citysim.run_epochs");
  const double ic_s = traced_ic_ms / 1e3;
  const double deliver_self = spans.self_s("oran.deliver") - ic_s;
  const double flush = spans.total_s("serve.tick") + spans.total_s("serve.drain");
  const double accounted = sim_self + deliver_self + ic_s + flush;
  const std::uint64_t flagged = eng.defense()->flagged() - flagged0;
  res.layers = layer_metrics({
      {"citysim.sim_s", traced_chunks ? sim_self / static_cast<double>(traced_chunks) : 0.0},
      {"citysim.events_per_s", sim_self > 0 ? traced_events / sim_self : 0.0},
      {"oran.deliver_us_per_ind", 1e6 * deliver_self * per_ind},
      {"oran.allocs_per_ind", inds ? static_cast<double>(sink.allocs - allocs0) / static_cast<double>(inds) : 0.0},
      {"apps.ic_us_per_ind",
       traced_dispatches ? 1e3 * traced_ic_ms / static_cast<double>(traced_dispatches) : 0.0},
      {"serve.flush_us_per_ind", 1e6 * flush * per_ind},
      {"serve.occupancy", slo.mean_occupancy},
      {"pool.regions_per_op", inds ? static_cast<double>(regions) / static_cast<double>(inds) : 0.0},
      {"defense.flag_rate_clean", inds ? static_cast<double>(flagged) / static_cast<double>(inds) : 0.0},
      {"trace_overhead_pct", trace_overhead_pct(chunks)},
      {"unaccounted_pct", traced_wall > 0 ? 100.0 * (traced_wall - accounted) / traced_wall : 0.0},
  });

  res.counts = {{"epochs", chunks.size()},
                {"events", r.sim->stats().events - events0},
                {"frames", inds},
                {"controls", audit.controls},
                {"flagged", flagged},
                {"quarantined", audit.quarantined},
                {"pool_regions", regions},
                {"allocs", sink.allocs - allocs0}};
  if (opt.trace) spans.write_json(opt.out_dir + "/spans_city_kpm.json");
  return res;
}

}  // namespace e2ebench
