// City-scale deterministic RAN simulator (DESIGN.md §16).
//
// CitySim generalises the serve engine's virtual clock into a sharded
// virtual-time event scheduler: thousands of cells and up to millions of
// UEs, partitioned into shards (cell c belongs to shard c % shards), each
// shard with its own binary-heap event queue, KPM frame arena and running
// SHA-256 event digest. Epochs advance in two phases:
//
//   1. Parallel: util::parallel_for over shards (grain 1) pops and
//      executes every event scheduled strictly before the epoch horizon.
//      A shard touches only state it owns — its cells, the UEs attached
//      to them — so the phase is race-free by construction. A UE's owner
//      shard is recorded in its state and changes only at the barrier, so
//      a shard can tell a stale entry for a UE it no longer owns without
//      reading any field the new owner writes. Cross-shard handovers are
//      appended to per-destination outbound buffers.
//   2. Serial barrier: emitted KPM frames are delivered to the attached
//      FrameSink in ascending shard order (one thread — sinks such as a
//      NearRtRic need no locking), then handover messages are applied in
//      (source shard, append order), each scheduling the UE's next move
//      in the destination's queue. Cross-shard handovers thus take effect
//      with one epoch-barrier of latency — the conservative-PDES
//      simplification that keeps shard execution independent.
//
// Determinism: shard decomposition depends only on the config (never on
// thread count), per-event randomness comes from counter-based streams
// (Rng::split on the UE/cell id and a per-entity draw counter), sequence
// numbers are assigned in schedule order, and the barrier phases run
// serially in a fixed order. The merged event digest is therefore
// byte-identical at any thread count — the property bench_cityscale's CI
// smoke diffs at 1 vs 4 threads.
//
// Robustness follows the house pattern: an opt-in FaultInjector draws one
// "citysim.event" decision per delivered frame (drop = report lost,
// transient = one retried delivery), and checkpoints (app tag
// "orev.citysim", config-fingerprint gated, kill-point "ckpt.citysim")
// capture the exact scheduler state — heaps are rebuilt from stored
// per-entity (time, seq) pairs, so a resumed run pops the same events in
// the same order as the uninterrupted one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "citysim/event.hpp"
#include "oran/e2_codec.hpp"
#include "util/fault/fault.hpp"
#include "util/persist/bytes.hpp"
#include "util/persist/persist.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"

namespace orev::citysim {

struct CityConfig {
  std::uint32_t cells = 2000;
  std::uint32_t ues = 100000;
  std::uint32_t shards = 64;
  std::uint64_t seed = 0xc117;
  /// Epoch (barrier) length in virtual microseconds.
  std::uint64_t epoch_us = 100000;
  /// Per-cell KPM reporting period.
  std::uint64_t report_period_us = 100000;
  /// Mean UE dwell between mobility steps (dwell is uniform in
  /// [0.5, 1.5) × mean).
  std::uint64_t mean_dwell_us = 1000000;
  /// Virtual length of one diurnal cycle for the traffic profiles.
  std::uint64_t day_us = 60000000;
  /// Chance a mobility step changes cell.
  double handover_prob = 0.3;
  /// KPM feature count per report (>= 8).
  std::uint16_t features = 16;
  /// Offered load per UE at profile peak, Mbps.
  double ue_rate_mbps = 0.5;
  /// Cell capacity for PRB-utilisation scaling, Mbps.
  double cell_capacity_mbps = 400.0;
};

/// Receives every delivered KPM frame at the epoch barrier, in ascending
/// shard order, on the simulating thread. The view is valid only for the
/// duration of the call.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void on_frame(std::uint32_t shard, std::string_view frame) = 0;
};

struct CityStats {
  std::uint64_t events = 0;            // events executed
  std::uint64_t moves = 0;             // mobility steps that stayed put
  std::uint64_t handovers_intra = 0;   // cell change within a shard
  std::uint64_t handovers_cross = 0;   // cell change across shards
  std::uint64_t reports = 0;           // cell reports emitted
  std::uint64_t frame_bytes = 0;       // encoded KPM bytes emitted
  std::uint64_t frames_delivered = 0;  // frames that reached the sink
  std::uint64_t frames_lost = 0;       // dropped by injected faults
  std::uint64_t frame_retries = 0;     // transient-fault redeliveries
};

class CitySim {
 public:
  explicit CitySim(const CityConfig& config);

  const CityConfig& config() const { return cfg_; }

  /// Attach/detach the frame consumer (nullptr = frames counted only).
  void set_sink(FrameSink* sink) { sink_ = sink; }

  /// Inject faults at "citysim.event" / "ckpt.citysim" (nullptr restores
  /// reliability; the process-global injector applies when unset).
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Advance `n` epochs (parallel shard phase + serial barrier each).
  void run_epochs(std::uint64_t n);

  std::uint64_t epoch() const { return epoch_; }
  /// Virtual time of the next epoch's horizon.
  std::uint64_t now_us() const { return epoch_ * cfg_.epoch_us; }

  /// Merged per-shard event digest (hex): covers every executed event
  /// record and every emitted frame since construction or load(). The
  /// cross-thread-count determinism witness.
  std::string event_digest() const;

  /// Digest of the canonical serialised simulator state (hex): recomputed
  /// from live state, so it is comparable across save/load boundaries.
  std::string state_digest() const;

  /// Aggregated counters (merged across shards on each call).
  CityStats stats() const;

  /// Delivered / emitted frames; 1.0 before any report. The availability
  /// figure bench_chaos asserts >= 0.99 under the default chaos plan.
  double availability() const;

  // ----- checkpointing ----------------------------------------------------
  /// Config identity: checkpoints only load into a sim with an equal
  /// fingerprint.
  std::string fingerprint() const;
  /// Atomically persist the full scheduler state (call between epochs),
  /// then serve the "ckpt.citysim" kill-point.
  persist::Status save(const std::string& path) const;
  /// Restore a checkpoint; event queues are rebuilt to pop identically to
  /// the run that saved. Event digests restart at load (digest state is
  /// not serialisable); state_digest() is the cross-restart witness.
  persist::Status load(const std::string& path);

  // ----- introspection (tests) --------------------------------------------
  std::uint32_t shard_of_cell(std::uint32_t cell) const {
    return cell % cfg_.shards;
  }
  std::uint32_t ue_cell(std::uint32_t ue) const { return ues_[ue].cell; }
  std::uint32_t cell_ue_count(std::uint32_t cell) const {
    return cells_[cell].ue_count;
  }

  /// Test hook: pin one UE's pending mobility step to an exact virtual
  /// time (e.g. precisely on an epoch horizon to probe boundary ties).
  /// Rebuilds the owning shard's schedule entry; call between epochs.
  void pin_ue_move(std::uint32_t ue, std::uint64_t time_us);

 private:
  struct UeState {
    std::uint32_t cell = 0;
    /// Shard that executes this UE's moves. Written only serially
    /// (construction, barrier handover, restore), so the parallel phase
    /// may read it from any shard; the other fields belong to the owner.
    std::uint32_t owner = 0;
    std::uint64_t next_move_us = 0;
    std::uint64_t move_seq = 0;  // seq of the pending move event
    std::uint64_t draws = 0;     // per-UE randomness counter
  };
  static_assert(sizeof(UeState) == 32,
                "owner must fit the padding after cell");
  struct CellState {
    std::uint64_t next_report_us = 0;
    std::uint64_t report_seq = 0;        // reports emitted (frame TTI)
    std::uint64_t report_event_seq = 0;  // seq of the pending report event
    std::uint32_t ue_count = 0;
    std::uint32_t handovers_since = 0;  // arrivals since the last report
  };
  struct HandoverMsg {
    std::uint32_t ue = 0;
    std::uint32_t to_cell = 0;
  };
  struct Shard {
    EventHeap heap;
    std::uint64_t next_seq = 0;
    Sha256 digest;
    oran::KpmFrameArena arena;
    std::string frames;  // frame bytes emitted this epoch, concatenated
    std::vector<std::uint32_t> frame_sizes;
    std::vector<std::vector<HandoverMsg>> outbound;  // per dest shard
    std::vector<float> feat_scratch;
    CityStats stats;  // shard-local; merged by stats()
  };

  Rng ue_stream(std::uint32_t ue) const {
    return base_.split(std::uint64_t{ue} * 2);
  }
  Rng cell_stream(std::uint32_t cell) const {
    return base_.split(std::uint64_t{cell} * 2 + 1);
  }
  std::uint64_t draw_dwell(Rng& r) const;

  void seed_queues();
  void process_shard(std::uint32_t s, std::uint64_t horizon);
  void handle_move(std::uint32_t s, const Event& ev);
  void handle_report(std::uint32_t s, const Event& ev);
  void deliver_frames();
  void apply_handovers();
  void encode_state(persist::ByteWriter& w) const;
  persist::Status decode_state(persist::ByteReader& r);
  void rebuild_queues();

  CityConfig cfg_;
  Rng base_;
  std::vector<UeState> ues_;
  std::vector<CellState> cells_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t epoch_ = 0;
  FrameSink* sink_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  // Barrier-phase (serial) delivery accounting.
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frame_retries_ = 0;
};

}  // namespace orev::citysim
