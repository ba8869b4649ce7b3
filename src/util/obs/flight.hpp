// Flight recorder: bounded post-mortem snapshots of the causal span log.
//
// When something exceptional happens — a circuit breaker opens, a
// kill-point crash fires, the hot-swap gate refuses a model — the
// interesting evidence is the last few dozen causally-linked spans, and
// by the time a human looks, the ring has long since overwritten them.
// flight_trigger() freezes the tail of the causal log (last ≤128 spans)
// into a deterministic JSON report at the moment of the event, keeps the
// most recent report in memory for tests, and — when a flight directory
// is configured — atomically writes each report to its own file.
//
// Determinism: the report contains only virtual-time causal spans, the
// trigger reason/detail, and a monotone trigger sequence number. Two
// same-seed runs that hit the same trigger produce byte-identical
// reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace orev::obs {

/// Directory for report files ("" disables file output; in-memory
/// last-report capture always works).
void set_flight_dir(const std::string& dir);
std::string flight_dir();

/// Record a flight report for `reason` (short stable tag, e.g.
/// "breaker.open", "kill_point", "serve.swap_reject") with free-form
/// `detail`.
/// Returns the trigger sequence number (1-based).
std::uint64_t flight_trigger(std::string_view reason, std::string_view detail);

/// Number of triggers fired since start / last reset.
std::uint64_t flight_trigger_count();

/// The most recent report's JSON ("" when none fired yet).
std::string flight_last_report();

/// Forget all triggers and the retained report (flight dir unchanged).
void flight_reset();

}  // namespace orev::obs
