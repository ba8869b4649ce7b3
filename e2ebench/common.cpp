#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>
#include <thread>

#include "apps/model_zoo.hpp"
#include "bench.hpp"
#include "data/dataset.hpp"
#include "nn/trainer.hpp"
#include "ran/datasets.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// ------------------------------------------------------ allocation counter
//
// Every heap allocation in the process goes through this operator new.
// The count is process-wide: which thread runs a pool chunk depends on the
// schedule, but the chunks' total allocations do not.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace e2ebench {

using namespace orev;

std::uint64_t heap_allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(std::move(v), 50.0);
}

// ------------------------------------------------------------ host probe

namespace {

int g_probe_threads = 1;
std::vector<double> g_probe_s;
bool g_probed = false;
Clock::time_point g_last_probe;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One thread's CPU seconds for 1000 products of two 64x64 float matrices
/// (25 to 32 ms on one core of the host in README.md).
double probe_kernel_s() {
  constexpr int n = 64;
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<std::size_t>(i)] = 0.01f * static_cast<float>(i % 17);
    b[static_cast<std::size_t>(i)] = 0.02f * static_cast<float>(i % 13);
  }
  const double t0 = thread_cpu_s();
  for (int rep = 0; rep < 1000; ++rep) {
    for (int i = 0; i < n; ++i)
      for (int k = 0; k < n; ++k) {
        const float av = a[static_cast<std::size_t>(i * n + k)];
        for (int j = 0; j < n; ++j)
          c[static_cast<std::size_t>(i * n + j)] +=
              av * b[static_cast<std::size_t>(k * n + j)];
      }
    // Feed each product into the next, so none can be skipped.
    a[static_cast<std::size_t>(rep % (n * n))] +=
        1e-9f * c[static_cast<std::size_t>(rep % (n * n))];
  }
  const double s = thread_cpu_s() - t0;
  volatile float sink = c[0];
  (void)sink;
  return s;
}

}  // namespace

void start_host_probe(int threads) { g_probe_threads = std::max(1, threads); }

void probe_host_if_due() {
  if (g_probed && seconds_between(g_last_probe, Clock::now()) < 1.0) return;
  std::vector<double> per_thread(static_cast<std::size_t>(g_probe_threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < g_probe_threads; ++t)
    threads.emplace_back([&per_thread, t] {
      per_thread[static_cast<std::size_t>(t)] = probe_kernel_s();
    });
  for (std::thread& t : threads) t.join();
  g_probe_s.push_back(median(per_thread));
  g_probed = true;
  g_last_probe = Clock::now();
}

double host_probe_s() { return median(g_probe_s); }

std::size_t host_probes() { return g_probe_s.size(); }

// ------------------------------------------------------------ summaries

EndToEnd summarize(const std::vector<Chunk>& chunks, Result& res) {
  std::vector<double> s_per_op, cpu, p50, tail;
  double wall = 0.0;
  std::uint64_t stolen = 0;
  for (const Chunk& c : chunks) {
    if (c.traced || c.ops == 0) continue;
    const double ops = static_cast<double>(c.ops);
    s_per_op.push_back(c.wall_s / ops);
    cpu.push_back(1e6 * c.cpu_s / ops);
    p50.push_back(c.lat_p50_us);
    tail.push_back(c.lat_tail_us);
    wall += c.wall_s;
    stolen += c.steal;
  }
  res.chunks = s_per_op.size();
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  res.steal_pct = wall > 0 ? 100.0 * static_cast<double>(stolen) /
                                 (ticks * cpus * wall)
                           : 0.0;
  EndToEnd e;
  e.s_per_op = median(s_per_op);
  e.ops_per_s = e.s_per_op > 0 ? 1.0 / e.s_per_op : 0.0;
  e.cpu_us_per_op = median(cpu);
  e.lat_p50_us = median(p50);
  e.lat_tail_us = median(tail);
  return e;
}

double fail_frac(const Result& res) {
  return res.attempted ? static_cast<double>(res.failed) /
                             static_cast<double>(res.attempted)
                       : 0.0;
}

std::vector<Metric> setup_metrics(const SetupTimes& t) {
  return {{"setup_s", median(t.cpu_s), "s"},
          {"setup_wall_s", median(t.wall_s), "s"}};
}

std::vector<Metric> stream_headline(const EndToEnd& e, const Result& res,
                                    const SetupTimes& setup) {
  std::vector<Metric> out = {{"ind_per_s", e.ops_per_s, "1/s"},
                             {"cpu_us_per_ind", e.cpu_us_per_op, "us"},
                             {"ind_to_ctl_p50_us", e.lat_p50_us, "us"},
                             {"ind_to_ctl_p90_us", e.lat_tail_us, "us"},
                             {"fail_frac", fail_frac(res), "ratio"}};
  for (Metric& m : setup_metrics(setup)) out.push_back(std::move(m));
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  return out;
}

std::vector<Metric> e2e_metrics(const EndToEnd& e, const SetupTimes& setup) {
  const double probe_s = host_probe_s();
  return {{"cpu_per_op_ref", probe_s > 0 ? 1e-6 * e.cpu_us_per_op / probe_s : 0.0,
           "ref"},
          setup_metrics(setup).front(),
          {"peak_rss_mb", peak_rss_mb(), "MiB"}};
}

double trace_overhead_pct(const std::vector<Chunk>& chunks) {
  std::vector<double> plain, traced;
  for (const Chunk& c : chunks)
    if (c.ops > 0)
      (c.traced ? traced : plain).push_back(c.wall_s / static_cast<double>(c.ops));
  if (plain.empty() || traced.empty()) return 0.0;
  return 100.0 * (median(traced) / median(plain) - 1.0);
}

std::vector<Metric> layer_metrics(const std::map<std::string, double>& measured) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"citysim.sim_s", "s"},
      {"citysim.events_per_s", "1/s"},
      {"oran.deliver_us_per_ind", "us"},
      {"oran.allocs_per_ind", "count"},
      {"apps.ic_us_per_ind", "us"},
      {"apps.atk_us_per_ind", "us"},
      {"serve.flush_us_per_ind", "us"},
      {"serve.occupancy", "rows"},
      {"pool.regions_per_op", "count"},
      {"defense.flag_rate_attack", "ratio"},
      {"defense.flag_rate_clean", "ratio"},
      {"defense.review_ms", "ms"},
      {"attack.query_s", "s"},
      {"attack.clone_s", "s"},
      {"attack.uap_s", "s"},
      {"trace_overhead_pct", "%"},
      {"unaccounted_pct", "%"},
  };
  std::vector<Metric> out;
  std::size_t found = 0;
  for (const auto& [name, unit] : kLayers) {
    const auto it = measured.find(name);
    found += it != measured.end() ? 1 : 0;
    out.push_back({name, it != measured.end() ? it->second : 0.0, unit});
  }
  OREV_CHECK(found == measured.size(), "unknown per-layer metric name");
  return out;
}

// ----------------------------------------------------------------- spans

int SpanLog::open(const char* name) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, now, now, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  OREV_CHECK(!stack_.empty() && stack_.back() == id,
             "spans must close in LIFO order");
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
          .count();
}

double SpanLog::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (name == s.name) ns += s.end_ns - s.start_ns;
  return 1e-9 * static_cast<double>(ns);
}

double SpanLog::self_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
    if (s.parent >= 0 && name == spans_[static_cast<std::size_t>(s.parent)].name)
      ns -= s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------- RIC

RicStack::RicStack() {
  // Victim IC xApp: reads telemetry, publishes decisions and defense
  // attestations, steers the RAN.
  rbac.define_role("ic-xapp", {oran::Permission{"telemetry/*", true, false},
                               oran::Permission{"decisions", true, true},
                               oran::Permission{"defense-alerts", true, true},
                               oran::Permission{"e2/control", false, true}});
  // The paper's misconfiguration (§2.2.2): a telemetry processor granted
  // telemetry WRITE. It is not granted the decisions namespace, so the
  // attacker between bursts only reads the entry it would rewrite and
  // its observation log stays empty (bounded memory over long runs).
  rbac.define_role("kpi-processor",
                   {oran::Permission{"telemetry/*", true, true}});
}

std::string RicStack::onboard(const std::string& name,
                              const std::string& role) {
  oran::AppDescriptor d;
  d.name = name;
  d.version = "1.0";
  d.vendor = "bench";
  d.payload = "package-" + name;
  d.requested_role = role;
  const oran::OnboardResult r = svc.onboard(op.package(d));
  OREV_CHECK(r.accepted, "onboarding refused for " + name + ": " + r.reason);
  return r.app_id;
}

// ------------------------------------------------------------- E2 node

void RecordingE2Node::handle_control(const oran::E2Control& c) {
  ControlRecord rec;
  rec.control = c;
  if (quarantine_count_) {
    const std::uint64_t q = quarantine_count_();
    rec.quarantined = q != last_quarantined_;
    last_quarantined_ = q;
  }
  if (next_ < pending_.size()) {
    rec.latency_us = 1e6 * seconds_between(pending_[next_++], Clock::now());
  } else {
    ++unmatched_;  // a control with no outstanding indication
  }
  got_.push_back(rec);
}

std::vector<ControlRecord> RecordingE2Node::take() {
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(next_));
  next_ = 0;
  std::vector<ControlRecord> out;
  out.swap(got_);
  return out;
}

void ControlAudit::add(const std::vector<ControlRecord>& ctl,
                       std::size_t delivered,
                       const std::function<std::vector<int>()>& predict,
                       int fixed_mcs_index, Chunk& chunk) {
  chunk.ops = ctl.size();
  controls += ctl.size();
  std::vector<double> lat;
  for (const ControlRecord& rec : ctl) lat.push_back(rec.latency_us);
  if (!lat.empty()) {
    chunk.lat_p50_us = percentile(lat, 50.0);
    chunk.lat_tail_us = percentile(lat, 90.0);
  }
  if (ctl.size() != delivered) {
    ++count_errors;
    return;
  }
  const std::vector<int> pred = predict();
  for (std::size_t k = 0; k < ctl.size(); ++k) {
    if (ctl[k].quarantined) {
      ++quarantined;
      continue;
    }
    const oran::E2Control& c = ctl[k].control;
    const bool ok = pred[k] == ran::kLabelInterference
                        ? c.action == oran::ControlAction::kSetAdaptiveMcs
                        : c.action == oran::ControlAction::kSetFixedMcs &&
                              c.fixed_mcs_index == fixed_mcs_index;
    if (!ok) ++mismatched;
  }
}

// ---------------------------------------------------------------- victim

SpectroVictim train_spectro_victim(const Options& opt) {
  ran::SpectrogramConfig scfg;
  scfg.freq_bins = opt.small ? 16 : 24;
  scfg.time_frames = scfg.freq_bins;
  const data::Dataset corpus =
      ran::make_spectrogram_dataset(scfg, opt.small ? 40 : 150, kSystemSeed);
  Rng split_rng(kSystemSeed ^ 0x5eed);
  const data::Split split = data::stratified_split(corpus, 0.8, split_rng);
  nn::Model model = apps::make_base_cnn(corpus.sample_shape(), 2, kSystemSeed);
  nn::TrainConfig tc;
  tc.max_epochs = opt.small ? 2 : 10;
  tc.learning_rate = 2e-3f;
  tc.shuffle_seed = kSystemSeed;
  nn::Trainer(tc).fit(model, split.train.x, split.train.y, split.test.x,
                      split.test.y);
  return {scfg, std::move(model)};
}

}  // namespace e2ebench
