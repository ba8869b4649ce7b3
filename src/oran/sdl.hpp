// Shared Data Layer (SDL): the RIC-internal namespaced key-value store that
// xApps/rApps read telemetry from and (when permitted) write to.
//
// Every access is mediated by the RBAC/ABAC engine and recorded in an audit
// log. The paper's core attack path — a malicious app with (mis)granted
// write access perturbing the telemetry a victim app consumes — happens
// entirely through this interface.
//
// Sharding (DESIGN.md §16): the key map is split into `stripe_count()`
// lock-striped partitions keyed by a stable FNV-1a hash of (ns, key), so
// city-scale simulation shards can write per-cell telemetry concurrently
// without serialising on one mutex. The stripe of a key depends only on
// its bytes — never on stripe history, insertion order, or thread count —
// and every externally visible semantic (per-entry versions, last-writer
// identity, sorted keys(), journal replay, snapshot compaction bytes) is
// identical to the historical single-map store. A one-stripe SDL *is* the
// old single-mutex behaviour, which is what bench_perf_report's contention
// phase compares against. Lock waits are observed into the
// "oran.sdl.lock_wait_ns" sketch and per-stripe contention counters so
// the sharding win is measurable.
//
// Robustness: an optional FaultInjector models a flaky storage backend
// (site "sdl.read"/"sdl.write", plus per-partition outages at site
// "sdl.shard"). Transient faults surface as SdlStatus::kUnavailable — a
// retryable condition distinct from kDenied / kNotFound — write drops are
// silently lost, and a corrupt write perturbs the committed tensor entry
// deterministically (never the writer's buffer). With no injector the
// store is perfectly reliable, as before. The audit log is a bounded ring
// so long chaos soaks cannot grow it without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "oran/rbac.hpp"
#include "util/fault/fault.hpp"
#include "util/persist/bytes.hpp"
#include "util/persist/journal.hpp"
#include "util/persist/persist.hpp"

namespace orev::oran {

enum class SdlStatus { kOk, kDenied, kNotFound, kUnavailable };

struct AuditRecord {
  std::string app_id;
  std::string ns;
  std::string key;
  Op op = Op::kRead;
  bool allowed = false;
};

class Sdl {
 public:
  /// Default partition count; one stripe reproduces the historical
  /// single-mutex store exactly.
  static constexpr std::size_t kDefaultStripes = 16;

  /// The RBAC engine must outlive the SDL.
  explicit Sdl(const Rbac* rbac, std::size_t stripes = kDefaultStripes);

  /// The one tensor write: when the entry already holds a tensor of
  /// `shape`, the payload is copied into its existing storage (the KPM
  /// steady state: no new tensor per indication); otherwise a fresh
  /// tensor is stored. The caller's buffer is never modified: an
  /// injected sdl.write corrupt perturbs the committed entry, and only
  /// once the per-stripe outage check has passed.
  SdlStatus write_tensor(const std::string& app_id, const std::string& ns,
                         const std::string& key, const nn::Shape& shape,
                         std::span<const float> data);
  SdlStatus write_tensor(const std::string& app_id, const std::string& ns,
                         const std::string& key, const nn::Tensor& value) {
    return write_tensor(app_id, ns, key, value.shape(), value.data());
  }

  SdlStatus write_text(const std::string& app_id, const std::string& ns,
                       const std::string& key, std::string value);

  /// Read into `out`; returns kDenied/kNotFound/kUnavailable without
  /// touching `out` on failure.
  SdlStatus read_tensor(const std::string& app_id, const std::string& ns,
                        const std::string& key, nn::Tensor& out) const;
  SdlStatus read_text(const std::string& app_id, const std::string& ns,
                      const std::string& key, std::string& out) const;

  /// Version counter of an entry (bumped on every successful write);
  /// nullopt when absent. Versions let apps detect tampering windows and
  /// bound the staleness of cached telemetry during outages.
  std::optional<std::uint64_t> version(const std::string& ns,
                                       const std::string& key) const;

  /// Identity of the last successful writer of an entry (for audits).
  std::optional<std::string> last_writer(const std::string& ns,
                                         const std::string& key) const;

  /// Bounded audit ring: the most recent `audit_capacity()` records.
  /// The ring is shared across stripes; read it only while no concurrent
  /// SDL traffic is in flight (tests and log consumers are serial).
  const std::deque<AuditRecord>& audit_log() const { return audit_; }
  void clear_audit_log() {
    std::lock_guard<std::mutex> lock(audit_mu_);
    audit_.clear();
  }

  /// Ring capacity (default 65536); shrinking drops the oldest records.
  void set_audit_capacity(std::size_t capacity);
  std::size_t audit_capacity() const { return audit_capacity_; }

  /// Records evicted from the ring so far. The sequence number of
  /// audit_log().front() is exactly this value, which lets log consumers
  /// (e.g. SdlWriteMonitor) keep stable cursors across evictions.
  std::uint64_t audit_dropped_records() const { return audit_dropped_; }

  /// Inject storage faults (nullptr restores perfect reliability). Falls
  /// back to the process-global injector when unset.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Reads/writes that reported kUnavailable due to injected faults.
  std::uint64_t unavailable_reads() const { return unavailable_reads_; }
  std::uint64_t unavailable_writes() const { return unavailable_writes_; }
  /// Writes silently lost (reported kOk, store untouched).
  std::uint64_t dropped_writes() const { return dropped_writes_; }
  /// Committed writes whose stored payload was corrupted by a fault.
  std::uint64_t corrupted_writes() const { return corrupted_writes_; }

  /// All keys currently present in a namespace, ascending.
  std::vector<std::string> keys(const std::string& ns) const;

  // ----- sharding ---------------------------------------------------------
  std::size_t stripe_count() const { return stripes_.size(); }

  /// Stable partition index of a key: FNV-1a over ns and key bytes, mod
  /// the stripe count. Exposed so tests can pin cross-stripe scenarios.
  std::size_t stripe_of(const std::string& ns, const std::string& key) const;

  /// Lock acquisitions that found the stripe mutex already held.
  std::uint64_t stripe_contentions(std::size_t stripe) const;
  std::uint64_t total_contentions() const;

  // ----- crash-safe persistence -----------------------------------------
  // Durable store state under `dir`: a framed snapshot
  // (<dir>/sdl_snapshot.ckpt) plus an append-only write journal
  // (<dir>/sdl_journal.log). attach_storage() loads the snapshot (if any),
  // replays the journal's clean prefix on top — truncating a torn tail
  // from a crash mid-append — and then logs every subsequent successful
  // write. snapshot() compacts: it atomically rewrites the snapshot from
  // the live store and resets the journal. Snapshot bytes are
  // stripe-independent: entries are serialised in ascending (ns, key)
  // order regardless of partitioning, so snapshots written by a 1-stripe
  // store load into a 16-stripe store (and vice versa) byte-exactly.
  // With `sync_each_write` every journal append is fsync'd (power-loss
  // durable) at a per-write cost. Without attach_storage() the SDL stays
  // purely in-memory, as before. Attach/snapshot assume no concurrent
  // traffic (they are maintenance operations, not hot-path ones).
  persist::Status attach_storage(const std::string& dir,
                                 bool sync_each_write = false);
  persist::Status snapshot();
  bool storage_attached() const { return journal_.is_open(); }
  /// Journal records replayed by the last attach_storage().
  std::uint64_t journal_replayed() const { return journal_replayed_; }
  /// Whether the last attach_storage() found (and dropped) a torn tail.
  bool journal_tail_torn() const { return journal_tail_torn_; }

 private:
  struct Entry {
    nn::Tensor tensor;
    std::string text;
    bool is_tensor = false;
    std::string writer;
    std::uint64_t version = 0;
  };

  /// One partition: its own mutex, its own sorted map. unique_ptr keeps
  /// the stripe array constructible (std::mutex is not movable).
  struct Stripe {
    mutable std::mutex mu;
    std::map<std::pair<std::string, std::string>, Entry> store;
    std::atomic<std::uint64_t> contentions{0};
  };

  bool check(const std::string& app_id, const std::string& ns,
             const std::string& key, Op op) const;

  /// Fault decision for one storage op; returns the injected status to
  /// surface (kOk = proceed normally). A corrupt decision is handed back
  /// through `corrupt` (when non-null) for the caller to apply to the
  /// committed payload; without it corruption has nothing to perturb.
  SdlStatus storage_fault(Op op,
                          fault::FaultDecision* corrupt = nullptr) const;

  /// Per-partition outage site ("sdl.shard"): kUnavailable on a transient
  /// decision, kOk otherwise. Drawn once per stripe access under a plan.
  SdlStatus shard_fault(Op op) const;

  /// Acquire a stripe's mutex, recording contention and lock-wait time.
  std::unique_lock<std::mutex> lock_stripe(std::size_t i) const;

  /// Append one committed write to the journal (no-op when detached),
  /// then serve the "sdl.journal" kill-point.
  void journal_write(const std::string& ns, const std::string& key,
                     const Entry& e);
  /// Decode one serialised entry and apply it to the store.
  persist::Status apply_entry(persist::ByteReader& r);

  const Rbac* rbac_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  mutable std::mutex audit_mu_;
  mutable std::deque<AuditRecord> audit_;
  std::size_t audit_capacity_ = 65536;
  mutable std::uint64_t audit_dropped_ = 0;
  fault::FaultInjector* fault_ = nullptr;
  mutable std::atomic<std::uint64_t> unavailable_reads_{0};
  mutable std::atomic<std::uint64_t> unavailable_writes_{0};
  mutable std::atomic<std::uint64_t> dropped_writes_{0};
  mutable std::atomic<std::uint64_t> corrupted_writes_{0};
  std::string storage_dir_;
  bool sync_each_write_ = false;
  mutable std::mutex journal_mu_;
  persist::JournalWriter journal_;
  std::uint64_t journal_replayed_ = 0;
  bool journal_tail_torn_ = false;
};

}  // namespace orev::oran
