// Shared fixtures for the benchmark suite: the spectrogram/KPM/PRB corpora
// at benchmark scale, victim training, the five-candidate surrogate list,
// table-printing helpers, the one argv scanner (scan_flags) behind every
// bench's command line, and the one report writer (write_report).
//
// Scale note: the paper trains ImageNet-class surrogates on GPUs over
// 3,000 RGB 128×128 spectrograms. The benchmarks run the same pipeline on
// one CPU core, so they default to 24×24 single-channel spectrograms and a
// few hundred samples; every bench accepts its sizes as constants below.
// Relative orderings (which surrogate clones best, UAP-vs-input-specific,
// timing ratios) are preserved; see DESIGN.md §1.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "apps/model_zoo.hpp"
#include "attack/clone.hpp"
#include "attack/metrics.hpp"
#include "attack/runner.hpp"
#include "attack/uap.hpp"
#include "data/dataset.hpp"
#include "ran/datasets.hpp"
#include "rictest/dataset.hpp"
#include "util/csv.hpp"
#include "util/fault/fault.hpp"
#include "util/json.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/persist.hpp"
#include "util/thread_pool.hpp"

namespace orev::bench {

/// One valued flag of a scan_flags() table: `--name V` or `--name=V`
/// parses V into the variable the entry was built from — int like atoi,
/// float/double like atof, uint32/uint64 like strtoull (base 0, so hex
/// works), std::string verbatim.
struct Flag {
  Flag(const char* n, int& v)
      : name(n), set([&v](const char* s) { v = std::atoi(s); }) {}
  Flag(const char* n, float& v)
      : name(n),
        set([&v](const char* s) { v = static_cast<float>(std::atof(s)); }) {}
  Flag(const char* n, double& v)
      : name(n), set([&v](const char* s) { v = std::atof(s); }) {}
  Flag(const char* n, std::uint32_t& v)
      : name(n), set([&v](const char* s) {
          v = static_cast<std::uint32_t>(std::strtoull(s, nullptr, 0));
        }) {}
  Flag(const char* n, std::uint64_t& v)
      : name(n),
        set([&v](const char* s) { v = std::strtoull(s, nullptr, 0); }) {}
  Flag(const char* n, std::string& v)
      : name(n), set([&v](const char* s) { v = s; }) {}

  const char* name;
  std::function<void(const char*)> set;
};

/// A boolean switch of a scan_flags() table: a bare `--name` sets *on.
struct Switch {
  const char* name;
  bool* on;
};

/// The one argv scanner every bench uses. One pass over argv: each
/// argument that matches a table entry is consumed — a switch by exact
/// name; a valued flag as `--name V` (the next argument is the value) or
/// `--name=V` — and everything else is compacted to the front in its
/// original order, with argc updated. A later occurrence overrides an
/// earlier one. A valued flag in last position with no value is left in
/// place. Stripping what it consumes lets parsers run in sequence
/// (ObsGuard, parse_threads_flag, then the bench's own table) and keeps
/// google-benchmark from ever seeing a bench flag.
inline void scan_flags(int& argc, char** argv,
                       std::initializer_list<Flag> flags,
                       std::initializer_list<Switch> switches = {}) {
  auto take = [&](int& r) {
    const char* arg = argv[r];
    for (const Switch& s : switches) {
      if (std::strcmp(arg, s.name) == 0) {
        *s.on = true;
        return true;
      }
    }
    for (const Flag& f : flags) {
      const std::size_t len = std::strlen(f.name);
      if (std::strncmp(arg, f.name, len) != 0) continue;
      if (arg[len] == '=') {
        f.set(arg + len + 1);
        return true;
      }
      if (arg[len] == '\0' && r + 1 < argc) {
        f.set(argv[++r]);
        return true;
      }
    }
    return false;
  };
  int w = 1;
  for (int r = 1; r < argc; ++r)
    if (!take(r)) argv[w++] = argv[r];  // take() moves r only on success
  argc = w;
}

/// Parse and strip a `--threads N` / `--threads=N` flag, configure the
/// global pool accordingly, and return the active thread count. With no
/// flag the pool keeps its default (OREV_NUM_THREADS or 1).
inline int parse_threads_flag(int& argc, char** argv) {
  int threads = -1;
  scan_flags(argc, argv, {{"--threads", threads}});
  if (threads > 0) util::set_num_threads(threads);
  std::printf("[threads] running with %d thread(s)\n", util::num_threads());
  return util::num_threads();
}

/// Load the fault plan at `path`, or start from `fallback` when `path` is
/// empty, then override its seed when `seed` is non-empty (strtoull, base
/// 0). An unreadable plan file is fatal: the bench exits with status 2.
inline fault::FaultPlan load_fault_plan(const std::string& path,
                                        const std::string& seed,
                                        fault::FaultPlan fallback) {
  fault::FaultPlan plan = std::move(fallback);
  if (!path.empty()) {
    std::optional<fault::FaultPlan> loaded = fault::FaultPlan::load(path);
    if (!loaded) {
      std::fprintf(stderr, "cannot read fault plan %s\n", path.c_str());
      std::exit(2);
    }
    plan = std::move(*loaded);
  }
  if (!seed.empty()) plan.seed = std::strtoull(seed.c_str(), nullptr, 0);
  return plan;
}

/// Write a report (a JSON document from json::Writer, or any text
/// artifact) to `path`, creating its parent directory, through
/// persist::atomic_write_file. A failed write is fatal: the bench exits
/// with status 2.
inline void write_report(const std::string& path, std::string_view text) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  if (!persist::atomic_write_file(path, text, /*sync=*/false).ok()) {
    std::fprintf(stderr, "cannot write report %s\n", path.c_str());
    std::exit(2);
  }
  std::printf("[report] wrote %s\n", path.c_str());
}

/// Monotonic wall-clock timer for CSV reporting. The observability layer's
/// timer, re-exported: `seconds()` as before, plus `elapsed_ns()` /
/// `lap_ns()` / `lap_seconds()` / `reset()` for finer-grained loops.
using WallTimer = obs::WallTimer;

/// Parse and strip `--metrics-out FILE` / `--trace-out FILE` flags, then
/// dump the process-wide metrics registry (JSON) and the trace ring
/// (chrome://tracing JSON) to those files when the guard goes out of scope
/// at the end of main(). `--trace-out` also force-enables tracing, so the
/// flag works without setting OREV_TRACE=1.
///
/// Also parses `--fault-plan FILE` / `--fault-seed N`: when either is
/// present, a FaultInjector is built from the plan file (or, with only a
/// seed, from fault::default_chaos_plan()) and installed as the
/// process-global injector — so every existing bench runs under a fault
/// schedule with no code changes. The injector's per-site stats print at
/// exit. All flags go through scan_flags(), so each also takes the
/// `--flag=V` form and is removed from argv.
///
/// Usage, first lines of a bench main():
///   bench::ObsGuard obs_guard(argc, argv);
///   bench::parse_threads_flag(argc, argv);
class ObsGuard {
 public:
  ObsGuard(int& argc, char** argv) {
    std::string fault_plan;
    std::string fault_seed;
    scan_flags(argc, argv,
               {{"--metrics-out", metrics_out_},
                {"--trace-out", trace_out_},
                {"--fault-plan", fault_plan},
                {"--fault-seed", fault_seed},
                {"--flight-dir", flight_dir_}});
    if (!trace_out_.empty()) {
      obs::set_trace_enabled(true);
      // Causal spans and wall-clock trace events share the chrome export
      // file: if the bench recorded any causal spans, they win (the
      // destructor picks whichever ring has content).
      obs::set_causal_enabled(true);
    }
    if (!flight_dir_.empty()) obs::set_flight_dir(flight_dir_);
    if (!fault_plan.empty() || !fault_seed.empty()) {
      const fault::FaultPlan plan =
          load_fault_plan(fault_plan, fault_seed, fault::default_chaos_plan());
      injector_ = std::make_unique<fault::FaultInjector>(plan);
      fault::set_global_injector(injector_.get());
      std::printf("[fault] injector armed (plan=%s seed=%llu)\n",
                  fault_plan.empty() ? "<default-chaos>" : fault_plan.c_str(),
                  static_cast<unsigned long long>(plan.seed));
    }
  }

  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

  ~ObsGuard() {
    if (injector_ != nullptr) {
      fault::set_global_injector(nullptr);
      std::printf("[fault] %s", injector_->stats_json().c_str());
    }
    if (!metrics_out_.empty()) {
      if (obs::Registry::instance().save_json(metrics_out_)) {
        std::printf("[obs] wrote metrics to %s\n", metrics_out_.c_str());
      } else {
        std::printf("[obs] FAILED to write metrics to %s\n",
                    metrics_out_.c_str());
      }
    }
    if (!trace_out_.empty()) {
      // Prefer the causal (virtual-time, deterministic) ring when the run
      // produced spans; fall back to the wall-clock trace ring otherwise.
      const bool ok = obs::causal_size() > 0
                          ? obs::save_causal_chrome_json(trace_out_)
                          : obs::save_trace_chrome_json(trace_out_);
      if (ok) {
        std::printf("[obs] wrote trace to %s (load via chrome://tracing)\n",
                    trace_out_.c_str());
      } else {
        std::printf("[obs] FAILED to write trace to %s\n",
                    trace_out_.c_str());
      }
    }
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string flight_dir_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

/// The ε grid of Tables 1 and 2.
inline const std::vector<float> kEpsGrid = {0.05f, 0.1f, 0.2f, 0.3f, 0.5f};

/// Benchmark-scale spectrogram corpus (paper: 1,500 per class, 128×128).
inline ran::SpectrogramConfig bench_spectrogram_config() {
  ran::SpectrogramConfig cfg;
  cfg.freq_bins = 24;
  cfg.time_frames = 24;
  return cfg;
}

inline data::Dataset bench_spectrogram_corpus(int per_class = 180,
                                              std::uint64_t seed = 4242) {
  return ran::make_spectrogram_dataset(bench_spectrogram_config(), per_class,
                                       seed);
}

/// Train the Spectrogram IC xApp victim (BaseCNN) on a training split.
inline nn::Model train_victim_cnn(const data::Dataset& train,
                                  const data::Dataset& val,
                                  std::uint64_t seed = 11) {
  nn::Model victim = apps::make_base_cnn(train.sample_shape(),
                                         train.num_classes, seed);
  nn::TrainConfig cfg;
  cfg.max_epochs = 12;
  cfg.learning_rate = 2e-3f;
  cfg.early_stop_patience = 4;
  nn::Trainer trainer(cfg);
  trainer.fit(victim, train.x, train.y, val.x, val.y);
  return victim;
}

/// The five surrogate candidates of Tables 1/2 for a given input shape.
inline std::vector<attack::Candidate> surrogate_candidates(
    const nn::Shape& input_shape, int num_classes) {
  std::vector<attack::Candidate> out;
  for (const apps::Arch arch : apps::all_archs()) {
    out.push_back(attack::Candidate{
        apps::arch_name(arch), [arch, input_shape, num_classes](
                                   std::uint64_t seed) {
          return apps::make_arch(arch, input_shape, num_classes, seed);
        }});
  }
  return out;
}

/// MCA training configuration used across benches.
inline attack::CloneConfig bench_clone_config() {
  attack::CloneConfig cfg;
  cfg.train.max_epochs = 10;
  cfg.train.learning_rate = 2e-3f;
  cfg.train.early_stop_patience = 3;
  return cfg;
}

/// Train one named surrogate on D_clone; returns the trained model and its
/// cloning accuracy.
struct TrainedSurrogate {
  nn::Model model;
  double cloning_accuracy = 0.0;
};
inline TrainedSurrogate train_surrogate(const data::Dataset& d_clone,
                                        const attack::Candidate& candidate,
                                        const attack::CloneConfig& cfg) {
  attack::CloneReport r = attack::clone_model(d_clone, {candidate}, cfg);
  return TrainedSurrogate{std::move(r.model), r.cloning_accuracy};
}

/// Benchmark-scale PRB corpus for the power-saving rApp (paper: 40 days).
inline data::Dataset bench_prb_corpus(int days = 24,
                                      std::uint64_t seed = 0xc17f) {
  rictest::CityTraceConfig cfg;
  cfg.days = days;
  cfg.seed = seed;
  return rictest::make_power_saving_dataset(cfg, 12, /*stride=*/4);
}

/// Train the Power-Saving rApp victim CNN.
inline nn::Model train_victim_ps(const data::Dataset& train,
                                 const data::Dataset& val,
                                 std::uint64_t seed = 21) {
  nn::Model victim = apps::make_power_saving_cnn(train.sample_shape(),
                                                 train.num_classes, seed);
  nn::TrainConfig cfg;
  cfg.max_epochs = 40;
  cfg.learning_rate = 5e-3f;
  cfg.early_stop_patience = 8;
  nn::Trainer trainer(cfg);
  trainer.fit(victim, train.x, train.y, val.x, val.y);
  return victim;
}

/// Write a CSV under ./bench_results/ (created on demand) and announce it.
inline void save_csv(const CsvWriter& csv, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const std::string path = "bench_results/" + name + ".csv";
  if (csv.save(path)) {
    std::printf("[csv] wrote %s\n", path.c_str());
  } else {
    std::printf("[csv] FAILED to write %s\n", path.c_str());
  }
}

inline void print_rule() {
  std::printf("-------------------------------------------------------------"
              "-----------------\n");
}

}  // namespace orev::bench
