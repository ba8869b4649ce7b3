// Chaos benchmark (DESIGN.md §9): drives the closed near-RT loop and the
// non-RT PM pipeline under a deterministic FaultPlan, twice — once with the
// recovery layer armed (retries + fallback + circuit breaker + source
// retransmission) and once with it disabled — and reports loop
// availability, informed-control rate, fail-safe rate, and recovery
// behaviour. Every reported field derives from the seeded fault streams,
// so two runs with the same plan/seed produce byte-identical reports
// (the property the CI chaos-smoke step diffs).
//
// Flags (chaos-specific, parsed before ObsGuard):
//   --fault-plan FILE   fault schedule (default: the committed chaos plan)
//   --fault-seed N      override the plan's seed
//   --iters N           near-RT loop iterations (default 4000)
//   --periods N         non-RT PM periods (default 120)
//   --report-out FILE   deterministic JSON report
//                       (default bench_results/chaos_report.json)
// plus the usual --metrics-out/--trace-out via ObsGuard.
#include "bench_common.hpp"

#include "apps/ic_xapp.hpp"
#include "apps/power_saving_rapp.hpp"
#include "citysim/citysim.hpp"
#include "nn/blocks.hpp"
#include "nn/layers.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/non_rt_ric.hpp"
#include "rictest/emulator.hpp"
#include "serve/engine.hpp"

using namespace orev;
using namespace orev::bench;

namespace {

/// A 2-feature IC model: interference iff feature0 < 0.5 (low SINR).
/// Hand-set weights keep the bench independent of training time.
nn::Model tiny_ic_model() {
  auto seq = std::make_unique<nn::Sequential>();
  seq->emplace<nn::Dense>(2, 2);
  nn::Model m("TinyIc", std::move(seq), {2}, 2);
  std::vector<nn::Tensor> w;
  w.push_back(nn::Tensor({2, 2}, {8.0f, 0.0f, -8.0f, 0.0f}));
  w.push_back(nn::Tensor({2}, {-4.0f, 4.0f}));
  m.set_weights(w);
  return m;
}

class SinkE2Node : public oran::E2Node {
 public:
  void handle_control(const oran::E2Control& /*c*/) override { ++controls_; }
  std::string node_id() const override { return "ran-1"; }
  std::uint64_t controls() const { return controls_; }

 private:
  std::uint64_t controls_ = 0;
};

struct NearRtResult {
  std::uint64_t iters = 0;
  std::uint64_t served = 0;        // iterations where any control arrived
  std::uint64_t informed = 0;      // classification-based control
  std::uint64_t fallbacks = 0;     // of informed: from cached telemetry
  std::uint64_t failsafes = 0;     // fail-safe adaptive-MCS controls
  std::uint64_t retransmissions = 0;
  std::uint64_t outages = 0;       // maximal runs of unserved iterations
  std::uint64_t longest_outage = 0;
  std::uint64_t indications_dropped = 0;
  std::uint64_t xapp_faults = 0;
  std::uint64_t quarantined_skips = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t sdl_write_failures = 0;
  std::uint64_t controls_dropped = 0;
  std::uint64_t controls_failed = 0;
  std::uint64_t telemetry_failures = 0;
  std::uint64_t serve_degraded = 0;   // engine degraded-sync completions
  std::uint64_t serve_shed = 0;       // classifications shed by the engine
  std::uint64_t defense_screened = 0; // rows through the inline screen
  std::uint64_t defense_flagged = 0;  // rows quarantined by the screen
  std::uint64_t review_passes = 0;    // quarantine review passes that ran
  std::uint64_t swap_attempts = 0;    // periodic hot-swap attempts
  std::uint64_t swaps_accepted = 0;
  std::uint64_t swaps_rejected = 0;   // includes fault-refused attempts
  std::string injector_stats;

  double availability() const {
    return iters == 0 ? 0.0
                      : static_cast<double>(served) /
                            static_cast<double>(iters);
  }
  double informed_rate() const {
    return iters == 0 ? 0.0
                      : static_cast<double>(informed) /
                            static_cast<double>(iters);
  }
};

/// One near-RT chaos run: `iters` KPM indications through a NearRtRic
/// hosting the IC xApp, under `plan`. With `recover` the full recovery
/// layer is armed (bounded retries, degraded-mode fallback, and up to two
/// source retransmissions when no control returns); without it every
/// fault is terminal for its iteration.
NearRtResult run_near_rt(const fault::FaultPlan& plan, bool recover,
                         std::uint64_t iters) {
  oran::Rbac rbac;
  oran::Operator op("op", "sec");
  oran::OnboardingService svc(&op, &rbac);
  rbac.define_role("ic-xapp",
                   {oran::Permission{"telemetry/*", true, false},
                    oran::Permission{"decisions", true, true},
                    oran::Permission{"e2/control", false, true}});
  oran::AppDescriptor d;
  d.name = "ic";
  d.version = "1";
  d.vendor = "v";
  d.payload = "p";
  d.requested_role = "ic-xapp";
  const std::string ic_id = svc.onboard(op.package(d)).app_id;

  oran::NearRtRic ric(&rbac, &svc, /*control_window_ms=*/1000.0);
  SinkE2Node node;
  ric.connect_e2(&node);

  fault::FaultInjector injector(plan);
  ric.set_fault_injector(&injector);
  fault::RetryPolicy policy;
  policy.max_attempts = recover ? 4 : 1;
  ric.set_retry_policy(policy);

  auto app = std::make_shared<apps::IcXApp>(tiny_ic_model(),
                                            oran::IndicationKind::kKpm, 13);
  apps::IcDegradedConfig dcfg;
  dcfg.enabled = recover;
  dcfg.max_stale = 2;
  app->set_degraded_config(dcfg);
  OREV_CHECK(ric.register_xapp(app, ic_id, 10), "IC xApp must register");

  // Serving path under chaos: classifications route through a ServeEngine
  // drawing from the same injector, so the plan's serve.admit/serve.batch
  // sites shed or degrade real requests. The drain after each delivery
  // keeps the control inside its iteration (batch-of-one, but the full
  // admission → batch → completion pipeline runs for every request).
  serve::ServeConfig scfg;
  scfg.name = recover ? "chaosic" : "chaosicraw";
  scfg.batch_max = 4;
  // Closed-loop surfaces under chaos: the defense plane screens every
  // served row and its review cadence draws the defense.review site (a
  // transient fault defers the pass, never loses records), while a
  // periodic same-weights hot-swap attempt draws the serve.swap site (a
  // transient fault refuses the swap and the fleet keeps serving — the
  // operational rollback path). The profile calibrates on both telemetry
  // patterns so screening is live without quarantining the clean,
  // deterministic chaos traffic.
  scfg.defense.enable = true;
  scfg.defense.review_every = 64;
  scfg.swap.enable = true;
  serve::ServeEngine engine(tiny_ic_model(), scfg);
  engine.set_fault_injector(&injector);
  engine.defense()->calibrate(nn::Tensor(
      {4, 2}, {0.1f, 0.9f, 0.9f, 0.1f, 0.1f, 0.9f, 0.9f, 0.1f}));
  app->set_serve_engine(&engine);
  const nn::Tensor swap_probe({2, 2}, {0.1f, 0.9f, 0.9f, 0.1f});
  const std::vector<int> swap_labels = tiny_ic_model().predict(swap_probe);

  NearRtResult out;
  out.iters = iters;
  std::uint64_t current_outage = 0;
  const int max_transmissions = recover ? 3 : 1;
  for (std::uint64_t t = 0; t < iters; ++t) {
    oran::E2Indication ind;
    ind.ran_node_id = "ran-1";
    ind.tti = t;
    ind.kind = oran::IndicationKind::kKpm;
    // A rare anomalous indication (far outside the calibrated profile)
    // keeps the quarantine ring non-empty so the review cadence actually
    // runs passes — and draws the defense.review fault site. The xApp
    // answers each quarantined row with a fail-safe control, so the
    // iteration still counts as served.
    const bool anomalous = t % 97 == 0;
    const float sinr = t % 2 == 0 ? 0.1f : 0.9f;
    ind.payload = anomalous
                      ? nn::Tensor({2}, std::vector<float>{4.0f, -3.0f})
                      : nn::Tensor({2}, std::vector<float>{sinr, 1.0f - sinr});

    // The RAN side retransmits (bounded) when no control comes back
    // within the window — the loop-level recovery a real node performs.
    const std::uint64_t controls_before = node.controls();
    const std::uint64_t informed_before = app->predictions_made();
    const std::uint64_t fallback_before = app->fallback_classifications();
    const std::uint64_t failsafe_before = app->failsafe_controls();
    for (int tx = 0; tx < max_transmissions; ++tx) {
      if (tx > 0) ++out.retransmissions;
      ric.deliver_indication(ind);
      engine.drain();
      if (node.controls() > controls_before) break;
    }

    const bool served = node.controls() > controls_before;
    if (served) {
      ++out.served;
      if (current_outage > 0) {
        ++out.outages;
        out.longest_outage = std::max(out.longest_outage, current_outage);
        current_outage = 0;
      }
      if (app->predictions_made() > informed_before) ++out.informed;
      out.fallbacks += app->fallback_classifications() - fallback_before;
      out.failsafes += app->failsafe_controls() - failsafe_before;
    } else {
      ++current_outage;
    }

    // Every 1000 iterations, attempt a gated hot-swap of a candidate
    // with identical weights: the gate metrics are trivially clean
    // (delta 0), so every refusal is the serve.swap fault path.
    if ((t + 1) % 1000 == 0) {
      ++out.swap_attempts;
      engine.request_hot_swap(tiny_ic_model(), swap_probe, swap_labels);
    }
  }
  if (current_outage > 0) {
    ++out.outages;
    out.longest_outage = std::max(out.longest_outage, current_outage);
  }

  const oran::XAppDispatchStats& s = ric.stats_of(ic_id);
  out.indications_dropped = ric.indications_dropped();
  out.xapp_faults = s.faults;
  out.quarantined_skips = s.quarantined_skips;
  out.breaker_opens = ric.breaker_opens(ic_id);
  out.sdl_write_failures = ric.sdl_write_failures();
  out.controls_dropped = ric.controls_dropped();
  out.controls_failed = ric.controls_failed();
  out.telemetry_failures = app->telemetry_failures();
  out.serve_degraded = engine.slo().degraded_syncs;
  out.serve_shed = app->serve_shed();
  out.defense_screened = engine.defense()->screened();
  out.defense_flagged = engine.defense()->flagged();
  out.review_passes = engine.defense()->review_passes();
  out.swaps_accepted = engine.swaps_accepted();
  out.swaps_rejected = engine.swaps_rejected();
  out.injector_stats = injector.stats_json();
  return out;
}

struct NonRtResult {
  std::uint64_t periods = 0;
  std::uint64_t decided = 0;        // periods with fresh-history decisions
  std::uint64_t fallbacks = 0;      // periods decided from cached history
  std::uint64_t failsafes = 0;      // periods skipped fail-safe
  std::uint64_t collect_failures = 0;
  std::uint64_t publish_failures = 0;
  std::uint64_t rapp_faults = 0;
  std::uint64_t policies_sent = 0;
  std::uint64_t policies_delivered = 0;
  std::uint64_t serve_degraded = 0;   // engine degraded-sync completions
  std::uint64_t serve_shed = 0;       // sector decisions shed by the engine
  std::string injector_stats;

  double decision_availability() const {
    return periods == 0
               ? 0.0
               : static_cast<double>(decided + fallbacks) /
                     static_cast<double>(periods);
  }
};

/// One non-RT chaos run: `periods` PM periods through a NonRtRic hosting
/// the power-saving rApp on the RICTest emulator, plus one A1 policy push
/// per period toward a Near-RT RIC instance.
NonRtResult run_non_rt(const fault::FaultPlan& plan, bool recover,
                       std::uint64_t periods) {
  oran::Rbac rbac;
  oran::Operator op("op", "sec");
  oran::OnboardingService svc(&op, &rbac);
  rbac.define_role("ps-rapp",
                   {oran::Permission{"pm", true, false},
                    oran::Permission{"rapp-decisions", true, true},
                    oran::Permission{"o1/cell-control", false, true}});
  oran::AppDescriptor d;
  d.name = "ps";
  d.version = "1";
  d.vendor = "v";
  d.payload = "p";
  d.type = oran::AppType::kRApp;
  d.requested_role = "ps-rapp";
  const std::string ps_id = svc.onboard(op.package(d)).app_id;

  oran::NonRtRic ric(&rbac, &svc, /*history_window=*/12);
  rictest::Emulator emulator{rictest::EmulatorConfig{}};
  ric.connect_o1(&emulator);

  fault::FaultInjector injector(plan);
  ric.set_fault_injector(&injector);
  fault::RetryPolicy policy;
  policy.max_attempts = recover ? 4 : 1;
  ric.set_retry_policy(policy);

  // The downstream Near-RT RIC receiving the A1 pushes stays fault-free;
  // only the A1 transport between the two is on the plan.
  oran::NearRtRic near(&rbac, &svc, 1000.0);

  // Untrained (seeded) model: decision *quality* is not under test here,
  // only whether the loop keeps producing decisions under faults.
  auto app = std::make_shared<apps::PowerSavingRApp>(
      apps::make_power_saving_cnn({1, 12, 9}, 6, 21));
  apps::PsDegradedConfig dcfg;
  dcfg.enabled = recover;
  dcfg.max_stale = 1;
  app->set_degraded_config(dcfg);
  OREV_CHECK(ric.register_rapp(app, ps_id, 10), "PS rApp must register");

  // Serving path under chaos: per-sector decisions batch through a
  // ServeEngine on the same injector (the rApp drains it every period),
  // so serve.admit/serve.batch faults hit the non-RT loop too.
  serve::ServeConfig scfg;
  scfg.name = recover ? "chaosps" : "chaospsraw";
  scfg.batch_max = rictest::kNumSectors;
  serve::ServeEngine engine(apps::make_power_saving_cnn({1, 12, 9}, 6, 21),
                            scfg);
  engine.set_fault_injector(&injector);
  app->set_serve_engine(&engine);

  NonRtResult out;
  out.periods = periods;
  for (std::uint64_t t = 0; t < periods; ++t) {
    emulator.advance();
    const std::uint64_t fallback_before = app->fallback_decisions();
    const std::uint64_t failsafe_before = app->failsafe_periods();
    const std::uint64_t decisions_before = app->decisions_made();
    ric.step();
    const bool fell_back = app->fallback_decisions() > fallback_before;
    if (app->decisions_made() > decisions_before && !fell_back) ++out.decided;
    if (fell_back) ++out.fallbacks;
    out.failsafes += app->failsafe_periods() - failsafe_before;

    oran::A1Policy pol;
    pol.policy_type = "interference-management";
    pol.params["mode"] = "adaptive";
    ++out.policies_sent;
    if (ric.push_a1_policy(near, pol)) ++out.policies_delivered;
  }

  out.collect_failures = ric.pm_collect_failures();
  out.publish_failures = ric.pm_publish_failures();
  out.rapp_faults = ric.stats_of(ps_id).faults;
  out.serve_degraded = engine.slo().degraded_syncs;
  out.serve_shed = app->serve_shed();
  out.injector_stats = injector.stats_json();
  return out;
}

// --------------------------------------------- city-scale emulation phase

struct CitySimResult {
  std::uint64_t events = 0;
  std::uint64_t reports = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t frame_retries = 0;
  std::uint64_t handovers_cross = 0;
  double avail = 0.0;
  std::string event_digest;
  std::string injector_stats;
};

/// The sharded simulator (DESIGN.md §16) under the same plan: the
/// citysim.event drop/transient lines are live at every barrier delivery.
/// Transients are redelivered (the report stays buffered) so only hard
/// drops cost availability; the digest stays the one reliable runs
/// produce because faults act on delivery, not on the event schedule.
/// Fully deterministic given the plan seed — the CI chaos smoke diffs
/// every field.
CitySimResult run_citysim(const fault::FaultPlan& plan,
                          std::uint64_t epochs) {
  fault::FaultInjector injector(plan);
  citysim::CityConfig cfg;
  cfg.cells = 200;
  cfg.ues = 5000;
  cfg.shards = 8;
  citysim::CitySim sim(cfg);
  sim.set_fault_injector(&injector);
  sim.run_epochs(epochs);
  const citysim::CityStats s = sim.stats();
  CitySimResult out;
  out.events = s.events;
  out.reports = s.reports;
  out.frames_delivered = s.frames_delivered;
  out.frames_lost = s.frames_lost;
  out.frame_retries = s.frame_retries;
  out.handovers_cross = s.handovers_cross;
  out.avail = sim.availability();
  out.event_digest = sim.event_digest();
  out.injector_stats = injector.stats_json();
  return out;
}

void write_citysim(json::Writer& w, const char* name,
                   const CitySimResult& r) {
  w.key(name).begin_object().field("events", r.events);
  w.field("reports", r.reports).field("frames_delivered", r.frames_delivered);
  w.field("frames_lost", r.frames_lost);
  w.field("frame_retries", r.frame_retries);
  w.field("handovers_cross", r.handovers_cross);
  w.field("availability", r.avail).field("event_digest", r.event_digest);
  w.key("faults").raw(r.injector_stats).end_object();
}

void write_near_rt(json::Writer& w, const char* name, const NearRtResult& r) {
  w.key(name).begin_object().field("iters", r.iters);
  w.field("availability", r.availability());
  w.field("informed_rate", r.informed_rate());
  w.field("served", r.served).field("informed", r.informed);
  w.field("fallback_classifications", r.fallbacks);
  w.field("failsafe_controls", r.failsafes);
  w.field("retransmissions", r.retransmissions);
  w.field("outages", r.outages).field("longest_outage", r.longest_outage);
  w.field("indications_dropped", r.indications_dropped);
  w.field("xapp_faults", r.xapp_faults);
  w.field("quarantined_skips", r.quarantined_skips);
  w.field("breaker_opens", r.breaker_opens);
  w.field("sdl_write_failures", r.sdl_write_failures);
  w.field("controls_dropped", r.controls_dropped);
  w.field("controls_failed", r.controls_failed);
  w.field("telemetry_failures", r.telemetry_failures);
  w.field("serve_degraded", r.serve_degraded).field("serve_shed", r.serve_shed);
  w.field("defense_screened", r.defense_screened);
  w.field("defense_flagged", r.defense_flagged);
  w.field("review_passes", r.review_passes);
  w.field("swap_attempts", r.swap_attempts);
  w.field("swaps_accepted", r.swaps_accepted);
  w.field("swaps_rejected", r.swaps_rejected);
  w.key("faults").raw(r.injector_stats).end_object();
}

void write_non_rt(json::Writer& w, const char* name, const NonRtResult& r) {
  w.key(name).begin_object().field("periods", r.periods);
  w.field("decision_availability", r.decision_availability());
  w.field("decided_fresh", r.decided).field("fallback_periods", r.fallbacks);
  w.field("failsafe_periods", r.failsafes);
  w.field("collect_failures", r.collect_failures);
  w.field("publish_failures", r.publish_failures);
  w.field("rapp_faults", r.rapp_faults);
  w.field("policies_sent", r.policies_sent);
  w.field("policies_delivered", r.policies_delivered);
  w.field("serve_degraded", r.serve_degraded).field("serve_shed", r.serve_shed);
  w.key("faults").raw(r.injector_stats).end_object();
}

}  // namespace

int main(int argc, char** argv) {
  // Chaos-specific flags come out of argv first so ObsGuard's own
  // --fault-plan handling (the global injector) never engages here: this
  // bench owns its injectors, one fresh instance per run.
  std::string plan_file;
  std::string seed_str;
  std::string report_out = "bench_results/chaos_report.json";
  std::uint64_t iters = 4000;
  std::uint64_t periods = 120;
  scan_flags(argc, argv,
             {{"--fault-plan", plan_file},
              {"--fault-seed", seed_str},
              {"--iters", iters},
              {"--periods", periods},
              {"--report-out", report_out}});
  const fault::FaultPlan plan =
      load_fault_plan(plan_file, seed_str, fault::default_chaos_plan());
  ObsGuard obs_guard(argc, argv);

  std::printf("=== Chaos: closed loops under a deterministic fault plan "
              "(seed %llu) ===\n",
              static_cast<unsigned long long>(plan.seed));

  const NearRtResult with = run_near_rt(plan, /*recover=*/true, iters);
  const NearRtResult without = run_near_rt(plan, /*recover=*/false, iters);
  const NonRtResult nwith = run_non_rt(plan, true, periods);
  const NonRtResult nwithout = run_non_rt(plan, false, periods);
  const CitySimResult city = run_citysim(plan, /*epochs=*/10);

  std::printf("\n%-26s %-14s %-14s\n", "near-RT loop", "with recovery",
              "without");
  print_rule();
  std::printf("%-26s %-14.4f %-14.4f\n", "loop availability",
              with.availability(), without.availability());
  std::printf("%-26s %-14.4f %-14.4f\n", "informed-control rate",
              with.informed_rate(), without.informed_rate());
  std::printf("%-26s %-14llu %-14llu\n", "fail-safe controls",
              static_cast<unsigned long long>(with.failsafes),
              static_cast<unsigned long long>(without.failsafes));
  std::printf("%-26s %-14llu %-14llu\n", "fallback classifications",
              static_cast<unsigned long long>(with.fallbacks),
              static_cast<unsigned long long>(without.fallbacks));
  std::printf("%-26s %-14llu %-14llu\n", "longest outage (iters)",
              static_cast<unsigned long long>(with.longest_outage),
              static_cast<unsigned long long>(without.longest_outage));
  std::printf("%-26s %-14llu %-14llu\n", "breaker opens",
              static_cast<unsigned long long>(with.breaker_opens),
              static_cast<unsigned long long>(without.breaker_opens));
  std::printf("%-26s %llu/%llu            %llu/%llu\n", "hot-swaps accepted",
              static_cast<unsigned long long>(with.swaps_accepted),
              static_cast<unsigned long long>(with.swap_attempts),
              static_cast<unsigned long long>(without.swaps_accepted),
              static_cast<unsigned long long>(without.swap_attempts));
  std::printf("%-26s %-14llu %-14llu\n", "review passes",
              static_cast<unsigned long long>(with.review_passes),
              static_cast<unsigned long long>(without.review_passes));
  std::printf("\n%-26s %-14.4f %-14.4f\n", "non-RT decision avail.",
              nwith.decision_availability(),
              nwithout.decision_availability());
  std::printf("%-26s %llu/%llu       %llu/%llu\n", "A1 policies delivered",
              static_cast<unsigned long long>(nwith.policies_delivered),
              static_cast<unsigned long long>(nwith.policies_sent),
              static_cast<unsigned long long>(nwithout.policies_delivered),
              static_cast<unsigned long long>(nwithout.policies_sent));
  std::printf("\n%-26s %-14.4f\n", "citysim frame avail.", city.avail);
  std::printf("%-26s %llu delivered, %llu lost, %llu retried over %llu "
              "reports\n",
              "citysim frames",
              static_cast<unsigned long long>(city.frames_delivered),
              static_cast<unsigned long long>(city.frames_lost),
              static_cast<unsigned long long>(city.frame_retries),
              static_cast<unsigned long long>(city.reports));

  json::Writer w;
  w.begin_object();
  write_near_rt(w, "near_rt_with_recovery", with);
  write_near_rt(w, "near_rt_without_recovery", without);
  write_non_rt(w, "non_rt_with_recovery", nwith);
  write_non_rt(w, "non_rt_without_recovery", nwithout);
  write_citysim(w, "citysim", city);
  w.field("plan_seed", plan.seed).end_object();
  write_report(report_out, w.str());

  CsvWriter csv;
  csv.header({"loop", "recovery", "availability", "informed_rate",
              "failsafes", "fallbacks", "breaker_opens"});
  csv.row("near_rt", 1, with.availability(), with.informed_rate(),
          with.failsafes, with.fallbacks, with.breaker_opens);
  csv.row("near_rt", 0, without.availability(), without.informed_rate(),
          without.failsafes, without.fallbacks, without.breaker_opens);
  csv.row("non_rt", 1, nwith.decision_availability(), 0.0, nwith.failsafes,
          nwith.fallbacks, 0);
  csv.row("non_rt", 0, nwithout.decision_availability(), 0.0,
          nwithout.failsafes, nwithout.fallbacks, 0);
  save_csv(csv, "chaos");

  // Self-check: the recovery layer must clear the availability bar and
  // beat the unprotected loop by a clear margin.
  if (with.availability() < 0.99) {
    std::fprintf(stderr, "FAIL: availability with recovery %.4f < 0.99\n",
                 with.availability());
    return 1;
  }
  if (without.availability() > with.availability() - 0.02) {
    std::fprintf(stderr,
                 "FAIL: recovery layer shows no measurable benefit "
                 "(%.4f vs %.4f)\n",
                 with.availability(), without.availability());
    return 1;
  }
  // The closed-loop fault sites must actually have been exercised: the
  // periodic swap attempts ran, at least one survived the plan's
  // transient faults, and the review cadence produced passes.
  if (with.swap_attempts == 0 || with.swaps_accepted == 0 ||
      with.swaps_accepted + with.swaps_rejected != with.swap_attempts) {
    std::fprintf(stderr,
                 "FAIL: hot-swap attempts under chaos look wrong "
                 "(%llu attempts, %llu accepted, %llu rejected)\n",
                 static_cast<unsigned long long>(with.swap_attempts),
                 static_cast<unsigned long long>(with.swaps_accepted),
                 static_cast<unsigned long long>(with.swaps_rejected));
    return 1;
  }
  if (with.defense_screened == 0 || with.review_passes == 0) {
    std::fprintf(stderr,
                 "FAIL: defense plane idle under chaos (screened %llu, "
                 "review passes %llu)\n",
                 static_cast<unsigned long long>(with.defense_screened),
                 static_cast<unsigned long long>(with.review_passes));
    return 1;
  }
  // City-scale plane: the plan's citysim.event lines must have fired (the
  // site is exercised, retries recovered the transients) while frame
  // availability clears the same bar the control loop does.
  if (city.avail < 0.99) {
    std::fprintf(stderr, "FAIL: citysim frame availability %.4f < 0.99\n",
                 city.avail);
    return 1;
  }
  if (city.frames_lost + city.frame_retries == 0) {
    std::fprintf(stderr,
                 "FAIL: citysim fault site never fired under the chaos "
                 "plan (%llu reports)\n",
                 static_cast<unsigned long long>(city.reports));
    return 1;
  }
  std::printf("loop availability %.4f with recovery vs %.4f without — "
              "recovery layer holds the loop up\n",
              with.availability(), without.availability());
  return 0;
}
