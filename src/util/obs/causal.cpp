#include "util/obs/causal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "util/json.hpp"
#include "util/persist/persist.hpp"

namespace orev::obs {

namespace detail {
std::atomic<bool> g_causal_enabled{false};
}

bool causal_enabled() {
  return detail::g_causal_enabled.load(std::memory_order_relaxed);
}

void set_causal_enabled(bool on) {
  detail::g_causal_enabled.store(on, std::memory_order_relaxed);
}

namespace {

constexpr std::size_t kCapacity = std::size_t{1} << 16;

/// Ring of causal spans plus the monotone span-id allocator. One mutex for
/// both: producers append from their pipeline's driving thread, so the
/// lock is effectively uncontended — it exists so a stray concurrent
/// producer corrupts nothing.
struct CausalLog {
  std::mutex mu;
  std::vector<CausalSpan> ring = std::vector<CausalSpan>(kCapacity);
  std::uint64_t next = 0;          // total spans ever recorded
  std::uint64_t next_span_id = 1;  // 0 is reserved for "no parent"
};

CausalLog& log() {
  static CausalLog* leaked = new CausalLog();
  return *leaked;
}

}  // namespace

std::string lane_name(std::uint32_t lane) {
  switch (lane) {
    case lanes::kIndication: return "e2.indication";
    case lanes::kDispatch: return "ric.dispatch";
    case lanes::kApp: return "app";
    case lanes::kControl: return "e2.control";
    case lanes::kAdmit: return "serve.admit";
    case lanes::kBatch: return "serve.batch";
    case lanes::kComplete: return "serve.complete";
    case lanes::kAttack: return "attack";
    case lanes::kFault: return "fault";
    default:
      break;
  }
  if (lane >= lanes::kReplicaBase) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "replica[%u]", lane - lanes::kReplicaBase);
    return buf;
  }
  return "lane" + std::to_string(lane);
}

TraceContext causal_child(const TraceContext& parent, std::string_view name,
                          std::uint32_t lane, std::uint64_t ts_us,
                          std::uint64_t dur_us, std::uint64_t flow_from) {
  if (!causal_enabled() || !parent.valid()) return TraceContext{};
  CausalLog& l = log();
  std::lock_guard<std::mutex> lock(l.mu);
  CausalSpan& s = l.ring[l.next % kCapacity];
  ++l.next;
  s.trace_id = parent.trace_id;
  s.span_id = l.next_span_id++;
  s.parent_span_id = parent.span_id;
  s.flow_from = flow_from;
  s.ts_us = ts_us;
  s.dur_us = dur_us;
  s.lane = lane;
  const std::size_t n = std::min(name.size(), sizeof(s.name) - 1);
  std::memcpy(s.name, name.data(), n);
  s.name[n] = '\0';
  return TraceContext{s.trace_id, s.span_id, ts_us};
}

std::vector<CausalSpan> causal_snapshot() {
  CausalLog& l = log();
  std::lock_guard<std::mutex> lock(l.mu);
  std::vector<CausalSpan> out;
  const std::uint64_t count = std::min<std::uint64_t>(l.next, kCapacity);
  out.reserve(count);
  const std::uint64_t first = l.next - count;
  for (std::uint64_t i = first; i < l.next; ++i)
    out.push_back(l.ring[i % kCapacity]);
  return out;
}

std::size_t causal_size() {
  CausalLog& l = log();
  std::lock_guard<std::mutex> lock(l.mu);
  return static_cast<std::size_t>(std::min<std::uint64_t>(l.next, kCapacity));
}

std::size_t causal_capacity() { return kCapacity; }

std::uint64_t causal_dropped() {
  CausalLog& l = log();
  std::lock_guard<std::mutex> lock(l.mu);
  return l.next > kCapacity ? l.next - kCapacity : 0;
}

void causal_clear() {
  CausalLog& l = log();
  std::lock_guard<std::mutex> lock(l.mu);
  l.next = 0;
  l.next_span_id = 1;
}

bool causal_validate(std::string* why) {
  const std::vector<CausalSpan> spans = causal_snapshot();
  const bool truncated = causal_dropped() > 0;
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  std::unordered_set<std::uint64_t> ids;
  ids.reserve(spans.size());
  std::unordered_map<std::uint64_t, std::uint64_t> trace_by_span;
  trace_by_span.reserve(spans.size());
  std::uint64_t prev_id = 0;
  for (const CausalSpan& s : spans) {
    if (s.span_id <= prev_id)
      return fail("span ids not strictly increasing at span " +
                  std::to_string(s.span_id));
    prev_id = s.span_id;
    ids.insert(s.span_id);
    trace_by_span.emplace(s.span_id, s.trace_id);
  }
  for (const CausalSpan& s : spans) {
    if (s.parent_span_id != 0) {
      const auto it = trace_by_span.find(s.parent_span_id);
      if (it == trace_by_span.end()) {
        if (!truncated)
          return fail("span " + std::to_string(s.span_id) + " (" + s.name +
                      ") references missing parent " +
                      std::to_string(s.parent_span_id));
      } else if (it->second != s.trace_id) {
        return fail("span " + std::to_string(s.span_id) + " (" + s.name +
                    ") crosses traces: parent " +
                    std::to_string(s.parent_span_id) + " is on another trace");
      }
    }
    if (s.flow_from != 0 && ids.count(s.flow_from) == 0 && !truncated)
      return fail("span " + std::to_string(s.span_id) + " (" + s.name +
                  ") references missing flow_from " +
                  std::to_string(s.flow_from));
  }
  return true;
}

std::string causal_to_chrome_json() {
  const std::vector<CausalSpan> spans = causal_snapshot();
  json::Writer w;
  w.begin_object().key("traceEvents").begin_array();
  auto meta = [&w](const char* name, std::uint32_t tid,
                   const std::string& label) {
    w.begin_object().field("name", name).field("ph", "M").field("pid", 2);
    w.field("tid", tid).key("args").begin_object().field("name", label);
    w.end_object().end_object();
  };
  // Lane metadata: named virtual threads, ascending for determinism.
  meta("process_name", 0, "orev-causal");
  std::set<std::uint32_t> seen_lanes;
  for (const CausalSpan& s : spans) seen_lanes.insert(s.lane);
  for (const std::uint32_t lane : seen_lanes)
    meta("thread_name", lane, lane_name(lane));
  // Spans, in deterministic record order. Timestamps are virtual µs —
  // exactly chrome's ts unit.
  std::unordered_map<std::uint64_t, const CausalSpan*> by_id;
  by_id.reserve(spans.size());
  for (const CausalSpan& s : spans) by_id.emplace(s.span_id, &s);
  for (const CausalSpan& s : spans) {
    w.begin_object().field("name", s.name).field("cat", "causal");
    w.field("ph", "X").field("pid", 2).field("tid", s.lane);
    w.field("ts", s.ts_us).field("dur", s.dur_us).key("args").begin_object();
    w.field("trace", s.trace_id).field("span", s.span_id);
    w.field("parent", s.parent_span_id).field("flow_from", s.flow_from);
    w.end_object().end_object();
  }
  // Flow events for cross-lane parent links and every flow_from edge.
  // Edge ids: 2*child_span_id for the parent edge, 2*id+1 for flow_from —
  // unique because span ids are.
  auto emit_flow = [&w](const CausalSpan& from, const CausalSpan& to,
                        std::uint64_t id) {
    w.begin_object().field("name", to.name).field("cat", "flow");
    w.field("ph", "s").field("pid", 2).field("tid", from.lane);
    w.field("ts", from.ts_us).field("id", id).end_object();
    w.begin_object().field("name", to.name).field("cat", "flow");
    w.field("ph", "f").field("bp", "e").field("pid", 2).field("tid", to.lane);
    w.field("ts", to.ts_us).field("id", id).end_object();
  };
  for (const CausalSpan& s : spans) {
    if (s.parent_span_id != 0) {
      const auto it = by_id.find(s.parent_span_id);
      if (it != by_id.end() && it->second->lane != s.lane)
        emit_flow(*it->second, s, 2 * s.span_id);
    }
    if (s.flow_from != 0) {
      const auto it = by_id.find(s.flow_from);
      if (it != by_id.end()) emit_flow(*it->second, s, 2 * s.span_id + 1);
    }
  }
  w.end_array().field("displayTimeUnit", "ms").key("otherData");
  w.begin_object().field("dropped", causal_dropped()).end_object();
  w.end_object();
  return w.str();
}

bool save_causal_chrome_json(const std::string& path) {
  return persist::atomic_write_file(path, causal_to_chrome_json(),
                                    /*sync=*/false)
      .ok();
}

}  // namespace orev::obs
