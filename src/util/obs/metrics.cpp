#include "util/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/persist/persist.hpp"

namespace orev::obs {

namespace {

std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Sample value in the exposition format, which spells non-finite values
/// NaN, +Inf and -Inf.
std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Prometheus metric name: [a-z0-9_:] with an orev_ prefix. ':' is legal
/// in exposition-format metric names (recording-rule convention) and is
/// preserved; every other character outside [a-zA-Z0-9] collapses to '_'.
std::string prom_name(const std::string& name) {
  std::string out = "orev_";
  for (const char c : name) {
    if (c == ':') {
      out.push_back(c);
      continue;
    }
    const char l = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    out.push_back((std::isalnum(static_cast<unsigned char>(l)) != 0) ? l : '_');
  }
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline
/// must be escaped; everything else passes through.
std::string prom_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '\n') out.push_back('\\');
    out.push_back(c == '\n' ? 'n' : c);
  }
  return out;
}

}  // namespace

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

// ------------------------------------------------------------------ Gauge

void Gauge::set(double v) {
  bits_.store(to_bits(v), std::memory_order_relaxed);
}

void Gauge::add(double delta) {
  std::uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(cur, to_bits(from_bits(cur) + delta),
                                      std::memory_order_relaxed)) {
  }
}

double Gauge::value() const {
  return from_bits(bits_.load(std::memory_order_relaxed));
}

// ------------------------------------------------------------ SketchMetric

SketchMetric::SketchMetric(double alpha) : alpha_(alpha) {
  const QuantileSketch geometry(alpha);
  first_ = geometry.index_of(QuantileSketch::kMinTrackable);
  last_ = geometry.index_of(kMaxDense);
  shards_.reserve(detail::kStripes);
  for (int i = 0; i < detail::kStripes; ++i)
    shards_.push_back(std::make_unique<Shard>(alpha));
}

void SketchMetric::observe(double v) {
  Shard& s = *shards_[thread_index() & (detail::kStripes - 1)];
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.sketch.record(v)) return;
  if (s.dense.empty())
    s.dense.assign(static_cast<std::size_t>(last_ - first_) + 1, 0);
  const std::int32_t idx = std::min(s.sketch.index_of(v), last_);
  ++s.dense[static_cast<std::size_t>(idx - first_)];
}

QuantileSketch SketchMetric::merged() const {
  // Ascending shard order: merge is order-independent anyway (exact
  // integer bucket addition), but a fixed order keeps the fp `sum` field
  // deterministic too.
  QuantileSketch out(alpha_);
  for (const std::unique_ptr<Shard>& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    out.merge(s->sketch);
    for (std::size_t i = 0; i < s->dense.size(); ++i)
      if (s->dense[i] != 0)
        out.buckets_[first_ + static_cast<std::int32_t>(i)] += s->dense[i];
  }
  return out;
}

void SketchMetric::reset() {
  for (const std::unique_ptr<Shard>& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->sketch.reset();
    std::fill(s->dense.begin(), s->dense.end(), 0);
  }
}

// --------------------------------------------------------------- Registry

Registry& Registry::instance() {
  static Registry* leaked = new Registry();  // never destroyed: cached
  return *leaked;                            // references outlive exit paths
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  OREV_CHECK(!e.gauge && !e.sketch,
             "metric type mismatch: " + name);
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
    e.help = help;
  }
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  OREV_CHECK(!e.counter && !e.sketch,
             "metric type mismatch: " + name);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
    e.help = help;
  }
  return *e.gauge;
}

SketchMetric& Registry::sketch(const std::string& name, double alpha,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  OREV_CHECK(!e.counter && !e.gauge,
             "metric type mismatch: " + name);
  if (!e.sketch) {
    e.sketch = std::make_unique<SketchMetric>(alpha);
    e.help = help;
  }
  return *e.sketch;
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, e] : metrics_) {
    const std::string pn = prom_name(name);
    if (!e.help.empty())
      os << "# HELP " << pn << ' ' << prom_help(e.help) << '\n';
    if (e.counter) {
      os << "# TYPE " << pn << " counter\n"
         << pn << ' ' << e.counter->value() << '\n';
    } else if (e.gauge) {
      os << "# TYPE " << pn << " gauge\n"
         << pn << ' ' << prom_double(e.gauge->value()) << '\n';
    } else if (e.sketch) {
      const QuantileSketch s = e.sketch->merged();
      os << "# TYPE " << pn << " summary\n";
      os << pn << "{quantile=\"0.5\"} " << prom_double(s.quantile(0.50))
         << '\n';
      os << pn << "{quantile=\"0.95\"} " << prom_double(s.quantile(0.95))
         << '\n';
      os << pn << "{quantile=\"0.99\"} " << prom_double(s.quantile(0.99))
         << '\n';
      os << pn << "{quantile=\"0.999\"} " << prom_double(s.quantile(0.999))
         << '\n';
      os << pn << "_sum " << prom_double(s.sum()) << '\n';
      os << pn << "_count " << s.count() << '\n';
    }
  }
  return os.str();
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Writer w;
  w.begin_object().field("schema", "orev-metrics-v1");
  w.key("counters").begin_object();
  for (const auto& [name, e] : metrics_)
    if (e.counter) w.field(name, e.counter->value());
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, e] : metrics_)
    if (e.gauge) w.field(name, e.gauge->value());
  w.end_object().key("sketches").begin_object();
  for (const auto& [name, e] : metrics_) {
    if (!e.sketch) continue;
    const QuantileSketch s = e.sketch->merged();
    const double mean =
        s.count() == 0 ? 0.0 : s.sum() / static_cast<double>(s.count());
    w.key(name).begin_object().field("count", s.count());
    w.field("sum", s.sum()).field("mean", mean).field("min", s.min());
    w.field("max", s.max()).field("p50", s.quantile(0.50));
    w.field("p95", s.quantile(0.95)).field("p99", s.quantile(0.99));
    w.field("p999", s.quantile(0.999)).end_object();
  }
  w.end_object().end_object();
  return w.str();
}

bool Registry::save_json(const std::string& path) const {
  return persist::atomic_write_file(path, to_json(), /*sync=*/false).ok();
}

bool Registry::save_prometheus(const std::string& path) const {
  return persist::atomic_write_file(path, to_prometheus(), /*sync=*/false)
      .ok();
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : metrics_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.sketch) e.sketch->reset();
  }
}

Counter& counter(const std::string& name, const std::string& help) {
  return Registry::instance().counter(name, help);
}
Gauge& gauge(const std::string& name, const std::string& help) {
  return Registry::instance().gauge(name, help);
}
SketchMetric& sketch(const std::string& name, double alpha,
                     const std::string& help) {
  return Registry::instance().sketch(name, alpha, help);
}

}  // namespace orev::obs
