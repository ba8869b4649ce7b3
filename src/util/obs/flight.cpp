#include "util/obs/flight.hpp"

#include <mutex>
#include <sstream>
#include <vector>

#include "util/json.hpp"
#include "util/obs/causal.hpp"
#include "util/persist/persist.hpp"

namespace orev::obs {

namespace {

constexpr std::size_t kTailSpans = 128;

struct FlightState {
  std::mutex mu;
  std::string dir;
  std::uint64_t seq = 0;
  std::string last_report;
};

FlightState& state() {
  static FlightState* leaked = new FlightState();
  return *leaked;
}

std::string file_tag(std::string_view reason) {
  std::string out;
  out.reserve(reason.size());
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

void set_flight_dir(const std::string& dir) {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.dir = dir;
}

std::string flight_dir() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.dir;
}

std::uint64_t flight_trigger(std::string_view reason, std::string_view detail) {
  // Snapshot the causal tail before taking the flight lock (the causal
  // log has its own lock; never hold both).
  std::vector<CausalSpan> spans = causal_snapshot();
  if (spans.size() > kTailSpans)
    spans.erase(spans.begin(),
                spans.end() - static_cast<std::ptrdiff_t>(kTailSpans));

  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  const std::uint64_t seq = ++st.seq;

  json::Writer w;
  w.begin_object().field("schema", "orev-flight-v1").field("seq", seq);
  w.field("reason", reason).field("detail", detail).key("spans");
  w.begin_array();
  for (const CausalSpan& s : spans) {
    w.begin_object().field("name", s.name).field("lane", lane_name(s.lane));
    w.field("trace", s.trace_id).field("span", s.span_id);
    w.field("parent", s.parent_span_id).field("flow_from", s.flow_from);
    w.field("ts_us", s.ts_us).field("dur_us", s.dur_us).end_object();
  }
  w.end_array().end_object();
  st.last_report = w.str();

  if (!st.dir.empty()) {
    std::ostringstream path;
    path << st.dir << "/flight-" << seq << '-' << file_tag(reason) << ".json";
    // Best effort: a failed dump must never turn a recorded incident
    // into a second failure.
    (void)persist::atomic_write_file(path.str(), st.last_report,
                                     /*sync=*/false);
  }
  return seq;
}

std::uint64_t flight_trigger_count() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.seq;
}

std::string flight_last_report() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.last_report;
}

void flight_reset() {
  FlightState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.seq = 0;
  st.last_report.clear();
}

}  // namespace orev::obs
