#include "util/obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/json.hpp"
#include "util/obs/metrics.hpp"
#include "util/persist/persist.hpp"
#include "util/obs/timer.hpp"

namespace orev::obs {

namespace detail {

namespace {
bool env_trace_enabled() {
  const char* env = std::getenv("OREV_TRACE");
  if (env == nullptr) return false;
  return std::strcmp(env, "1") == 0 || std::strcmp(env, "true") == 0 ||
         std::strcmp(env, "on") == 0;
}
}  // namespace

std::atomic<bool> g_trace_enabled{env_trace_enabled()};

}  // namespace detail

namespace {

constexpr std::size_t kCapacity = 1 << 16;

struct Ring {
  std::vector<TraceEvent> slots{kCapacity};
  std::atomic<std::uint64_t> next{0};  // total spans ever completed
};

Ring& ring() {
  static Ring* leaked = new Ring();  // leaked: spans may end during exit
  return *leaked;
}

}  // namespace

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

TraceSpan::TraceSpan(std::string_view name, const char* cat)
    : name_(name), cat_(cat), start_ns_(0), active_(trace_enabled()) {
  if (active_) start_ns_ = now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  Ring& r = ring();
  const std::uint64_t seq = r.next.fetch_add(1, std::memory_order_relaxed);
  TraceEvent& e = r.slots[static_cast<std::size_t>(seq % kCapacity)];
  const std::size_t n = std::min(name_.size(), sizeof(e.name) - 1);
  std::memcpy(e.name, name_.data(), n);
  e.name[n] = '\0';
  e.cat = cat_;
  e.ts_ns = start_ns_;
  e.dur_ns = end_ns - start_ns_;
  e.tid = thread_index();
}

std::size_t trace_capacity() { return kCapacity; }

std::vector<TraceEvent> trace_snapshot() {
  Ring& r = ring();
  const std::uint64_t total = r.next.load(std::memory_order_acquire);
  const std::size_t count =
      static_cast<std::size_t>(std::min<std::uint64_t>(total, kCapacity));
  std::vector<TraceEvent> out;
  out.reserve(count);
  // Oldest surviving span first. When the ring wrapped, that is slot
  // (total % capacity); otherwise slot 0.
  const std::uint64_t first = total > kCapacity ? total - kCapacity : 0;
  for (std::uint64_t s = first; s < total; ++s)
    out.push_back(r.slots[static_cast<std::size_t>(s % kCapacity)]);
  return out;
}

std::uint64_t trace_dropped() {
  const std::uint64_t total = ring().next.load(std::memory_order_relaxed);
  return total > kCapacity ? total - kCapacity : 0;
}

void trace_clear() {
  Ring& r = ring();
  r.next.store(0, std::memory_order_relaxed);
  for (TraceEvent& e : r.slots) e = TraceEvent{};
}

std::string trace_to_chrome_json() {
  json::Writer w;
  w.begin_object().field("displayTimeUnit", "ms").key("traceEvents");
  w.begin_array();
  for (const TraceEvent& e : trace_snapshot()) {
    w.begin_object().field("name", e.name).field("cat", e.cat);
    w.field("ph", "X").field("ts", static_cast<double>(e.ts_ns) / 1e3);
    w.field("dur", static_cast<double>(e.dur_ns) / 1e3).field("pid", 1);
    w.field("tid", e.tid).end_object();
  }
  w.end_array().end_object();
  return w.str();
}

bool save_trace_chrome_json(const std::string& path) {
  return persist::atomic_write_file(path, trace_to_chrome_json(),
                                    /*sync=*/false)
      .ok();
}

}  // namespace orev::obs
