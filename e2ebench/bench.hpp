// Shared harness for the end-to-end benchmark: run options, the result
// record every workload fills, timed chunks and their summary, the
// in-memory span log of the traced run, and the RIC fixtures the stream
// workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "ran/spectrogram.hpp"
#include "util/obs/metrics.hpp"

namespace e2ebench {

/// Seed of the system's fixed parts: the trained victim, the attacker's
/// precomputed UAP, the operator's calibration corpus and every model's
/// initialisation. The workload seed (--seed) generates only the inputs,
/// so every seed runs the same models and does the same amount of work.
inline constexpr std::uint64_t kSystemSeed = 1;

/// Set-ups per run; the median of their times is the run's setup figure.
inline constexpr int kSetupReps = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced shapes for the smoke test (seconds, not minutes, end to end).
  bool small = false;
  /// When > 0, run exactly this many chunks instead of `seconds`: the
  /// fixed-work mode whose counts must repeat exactly for a seed.
  int chunks = 0;
  int threads = 1;
  std::string out_dir;

  /// Whether chunk `i` runs: the run lasts `seconds` of timed work, or
  /// exactly `chunks` chunks.
  bool more(int i, double measured_s) const {
    return chunks > 0 ? i < chunks : measured_s < seconds;
  }
  /// A traced run alternates untraced and traced chunks.
  bool traced(int i) const { return trace && i % 2 == 1; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(). `headline` holds every
/// end-to-end metric that applies to the workload (printed); `e2e` and
/// `layers` are the BENCHMARK.json metrics (the JSON result).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> headline;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  /// Deterministic counts (events, frames, controls, ...) for the
  /// same-seed repeat check.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  /// Share of the timed CPU capacity the hypervisor stole while the
  /// untraced chunks ran, and how many chunks those were. Time stolen from
  /// one vCPU stalls every fork/join region waiting on it, so wall-clock
  /// figures from a run with high steal measure the host's neighbours.
  double steal_pct = 0.0;
  std::size_t chunks = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads), seconds.
double process_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();
/// Heap allocations made by the process so far (counted by the
/// benchmark's global operator new).
std::uint64_t heap_allocs();
/// Hypervisor steal so far, summed over all CPUs, in USER_HZ ticks (the
/// "steal" column of /proc/stat; 0 where the kernel does not report it).
std::uint64_t steal_ticks();

/// Median of a sample (orev::percentile), 0 for an empty one.
double median(std::vector<double> v);

/// Wall and process CPU seconds of each set-up.
struct SetupTimes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

/// Run `build` kSetupReps times, timing each; keep the last rig.
template <class Build>
auto timed_setups(Build&& build, SetupTimes& times) {
  decltype(build()) rig;
  for (int i = 0; i < kSetupReps; ++i) {
    rig.reset();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    rig = build();
    times.wall_s.push_back(seconds_between(t0, Clock::now()));
    times.cpu_s.push_back(process_cpu_s() - cpu0);
  }
  return rig;
}

/// Host speed probe. The host's speed drifts by a fifth and more within
/// minutes, as other tenants load the same cores, and CPU time per op
/// drifts with it. The probe times a fixed float kernel of the benchmark's
/// own, which no change under src/ touches, on `threads` threads at once,
/// outside every timed region: at the first chunk and then before any
/// chunk that starts a second or more after the last probe.
void start_host_probe(int threads);
void probe_host_if_due();
/// Median over the run's probes of one thread's CPU seconds for the
/// kernel (each probe takes the median over its threads).
double host_probe_s();
std::size_t host_probes();

/// One timed chunk of a workload, the unit a run repeats.
struct Chunk {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ops = 0;      // indications answered, or one campaign
  std::uint64_t regions = 0;  // pool.regions dispatched
  std::uint64_t steal = 0;    // steal ticks while it ran
  double lat_p50_us = 0.0;    // the chunk's own latency percentiles
  double lat_tail_us = 0.0;
};

/// Time `fn` as one chunk: wall, process CPU, pool regions and steal.
template <class Fn>
Chunk timed_chunk(bool traced, Fn&& fn) {
  static orev::obs::Counter& regions = orev::obs::counter("pool.regions");
  probe_host_if_due();
  Chunk c;
  c.traced = traced;
  const std::uint64_t st0 = steal_ticks();
  const std::uint64_t rg0 = regions.value();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  fn();
  c.wall_s = seconds_between(t0, Clock::now());
  c.cpu_s = process_cpu_s() - cpu0;
  c.regions = regions.value() - rg0;
  c.steal = steal_ticks() - st0;
  return c;
}

/// End-to-end figures of a run, each the median over its untraced chunks.
struct EndToEnd {
  double s_per_op = 0.0;
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  double lat_p50_us = 0.0;
  double lat_tail_us = 0.0;
};
EndToEnd summarize(const std::vector<Chunk>& chunks, Result& res);

/// Failed over attempted operations (0 when nothing was attempted).
double fail_frac(const Result& res);

/// The set-up figures every workload prints: setup_s, the median process
/// CPU seconds of a set-up, and setup_wall_s, the median wall seconds.
std::vector<Metric> setup_metrics(const SetupTimes& t);

/// The printed end-to-end metrics of the two indication streams.
std::vector<Metric> stream_headline(const EndToEnd& e, const Result& res,
                                    const SetupTimes& setup);

/// The BENCHMARK.json end-to-end metrics: the ones that stay steady from
/// run to run on a shared host (see README.md). cpu_per_op_ref is the
/// process CPU time per op over host_probe_s().
std::vector<Metric> e2e_metrics(const EndToEnd& e, const SetupTimes& setup);

/// Traced over untraced median wall per op, minus 1, in percent.
double trace_overhead_pct(const std::vector<Chunk>& chunks);

/// The per-layer metric set in BENCHMARK.json order. `measured` names the
/// layers the workload exercises; every other layer reports 0.
std::vector<Metric> layer_metrics(const std::map<std::string, double>& measured);

/// In-memory span log of the traced run. Spans nest strictly on the
/// driving thread; a span's self time is its duration minus its direct
/// children's durations.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  int open(const char* name);
  void close(int id);

  /// Summed self time (seconds) of every span named `name`.
  double self_s(const std::string& name) const;
  /// Summed duration (seconds) of every span named `name`.
  double total_s(const std::string& name) const;

  /// Write the spans as chrome://tracing JSON (complete events).
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span that is a no-op without a log.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->open(name) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Operator, RBAC and onboarding around one Near-RT RIC.
struct RicStack {
  orev::oran::Rbac rbac;
  orev::oran::Operator op{"bench-operator", "bench-secret"};
  orev::oran::OnboardingService svc{&op, &rbac};
  orev::oran::NearRtRic ric{&rbac, &svc, /*control_window_ms=*/1000.0};

  RicStack();
  /// Onboard an app under `role`; fails the run if onboarding is refused.
  std::string onboard(const std::string& name, const std::string& role);
};

struct ControlRecord {
  orev::oran::E2Control control;
  /// The IC xApp's quarantine counter moved for this control: the defense
  /// plane withheld the prediction and the xApp sent its fail-safe.
  bool quarantined = false;
  double latency_us = 0.0;
};

/// E2 node that records every control with its delivery-to-control wall
/// latency, matching controls to delivered indications in FIFO order.
class RecordingE2Node : public orev::oran::E2Node {
 public:
  void expect(Clock::time_point delivered) { pending_.push_back(delivered); }
  /// Withdraw the latest expect(): that indication was refused and will
  /// never be answered.
  void cancel_last() { pending_.pop_back(); }
  /// `f` reads the victim xApp's quarantine counter; a control sent while
  /// it moved is the fail-safe for a quarantined request.
  void set_quarantine_source(std::function<std::uint64_t()> f) {
    quarantine_count_ = std::move(f);
  }

  void handle_control(const orev::oran::E2Control& c) override;
  std::string node_id() const override { return "bench-ran"; }

  /// Controls received since the last take(), in arrival order.
  std::vector<ControlRecord> take();
  std::uint64_t unmatched() const { return unmatched_; }

 private:
  std::vector<Clock::time_point> pending_;
  std::size_t next_ = 0;
  std::vector<ControlRecord> got_;
  std::function<std::uint64_t()> quarantine_count_;
  std::uint64_t last_quarantined_ = 0;
  std::uint64_t unmatched_ = 0;
};

/// Checks each chunk's controls against layer-walk predictions of the
/// rows the xApp read, in delivery order, and fills the chunk's latency
/// percentiles: p50 and p90. p99 moved by up to 2x between runs of the
/// same code on a host that steals vCPU time.
struct ControlAudit {
  std::uint64_t controls = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t count_errors = 0;  // chunks whose control count was wrong

  /// `predict` maps the chunk's row count to the layer-walk predictions;
  /// it is not called when the control count is already wrong.
  void add(const std::vector<ControlRecord>& ctl, std::size_t delivered,
           const std::function<std::vector<int>()>& predict,
           int fixed_mcs_index, Chunk& chunk);
};

/// The spectrogram IC xApp's victim: a BaseCNN trained on a corpus of
/// side × side spectrograms drawn from kSystemSeed (shared by
/// spectro_attack and clone_campaign).
struct SpectroVictim {
  orev::ran::SpectrogramConfig scfg;
  orev::nn::Model model;
};
SpectroVictim train_spectro_victim(const Options& opt);

Result run_city_kpm(const Options& opt);
Result run_spectro_attack(const Options& opt);
Result run_clone_campaign(const Options& opt);

}  // namespace e2ebench
