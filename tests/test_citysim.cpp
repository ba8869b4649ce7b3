// City-scale emulation plane (DESIGN.md §16): deterministic sharded
// simulator, binary KPM codec, CRC-32C, checkpointing, striped SDL
// equivalence, and the NearRtRic's two delivery entries.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "citysim/citysim.hpp"
#include "oran/e2_codec.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "oran/sdl.hpp"
#include "util/fault/fault.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/persist.hpp"
#include "util/thread_pool.hpp"

namespace orev {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(util::num_threads()) {}
  ~ThreadGuard() { util::set_num_threads(saved_); }

 private:
  int saved_;
};

// A small city that still exercises every mechanism: multiple shards,
// frequent handovers, several epochs of reports.
citysim::CityConfig small_city() {
  citysim::CityConfig cfg;
  cfg.cells = 40;
  cfg.ues = 500;
  cfg.shards = 8;
  cfg.seed = 0x5eed;
  cfg.epoch_us = 100000;
  cfg.report_period_us = 100000;
  cfg.mean_dwell_us = 150000;  // several moves per UE across the run
  return cfg;
}

// ------------------------------------------------------------- CRC-32C

TEST(Crc32c, KnownAnswerAndChaining) {
  // iSCSI/RFC 3720 check value — also pins hw/sw dispatch agreement,
  // since whichever implementation runs must produce this constant.
  EXPECT_EQ(persist::crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(persist::crc32c(std::string_view{}), 0u);
  const std::string a = "city-scale ";
  const std::string b = "emulation plane";
  EXPECT_EQ(persist::crc32c(b, persist::crc32c(a)),
            persist::crc32c(a + b));
  // Odd lengths hit the byte-tail path of both implementations.
  for (std::size_t n = 1; n <= 17; ++n) {
    const std::string s(n, static_cast<char>(0xa5));
    EXPECT_NE(persist::crc32c(s), 0u) << "length " << n;
  }
}

// ------------------------------------------------------- binary KPM codec

TEST(KpmCodec, RoundTripPreservesEveryField) {
  oran::KpmFrameArena arena;
  std::vector<float> feats{1.5f, -2.25f, 0.0f, 100.0f, 0.125f};
  const std::string_view frame =
      arena.encode(4242, 77, oran::IndicationKind::kKpm,
                   std::span<const float>(feats));
  EXPECT_EQ(frame.size(), oran::kpm_frame_size(feats.size()));

  oran::KpmFrameView v;
  ASSERT_EQ(oran::decode_kpm_frame(frame, v), oran::KpmDecodeStatus::kOk);
  EXPECT_EQ(v.cell_id, 4242u);
  EXPECT_EQ(v.tti, 77u);
  EXPECT_EQ(v.kind, oran::IndicationKind::kKpm);
  ASSERT_EQ(v.feature_count, feats.size());
  for (std::size_t i = 0; i < feats.size(); ++i)
    EXPECT_EQ(v.feature(i), feats[i]) << "feature " << i;
}

TEST(KpmCodec, EveryTruncationIsRejected) {
  oran::KpmFrameArena arena;
  std::vector<float> feats(8, 0.5f);
  const std::string good(arena.encode(1, 2, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  oran::KpmFrameView v;
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_NE(oran::decode_kpm_frame(good.substr(0, n), v),
              oran::KpmDecodeStatus::kOk)
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(KpmCodec, EverySingleBitFlipFailsTheCrc) {
  oran::KpmFrameArena arena;
  std::vector<float> feats(6);
  for (std::size_t i = 0; i < feats.size(); ++i)
    feats[i] = static_cast<float>(i) * 0.25f;
  const std::string good(arena.encode(9, 3, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  oran::KpmFrameView v;
  ASSERT_EQ(oran::decode_kpm_frame(good, v), oran::KpmDecodeStatus::kOk);
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = good;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(oran::decode_kpm_frame(flipped, v),
                oran::KpmDecodeStatus::kOk)
          << "flip at byte " << byte << " bit " << bit << " decoded";
    }
  }
}

TEST(KpmCodec, DeclaredFeatureCountIsBoundsChecked) {
  oran::KpmFrameArena arena;
  std::vector<float> feats(4, 1.0f);
  std::string frame(arena.encode(1, 1, oran::IndicationKind::kKpm,
                                 std::span<const float>(feats)));
  // Inflate the declared count past the actual frame size (offset 6,
  // u16 LE) — the decoder must reject before touching feature bytes.
  const std::uint16_t huge = 0x4000;
  std::memcpy(frame.data() + 6, &huge, sizeof(huge));
  oran::KpmFrameView v;
  EXPECT_EQ(oran::decode_kpm_frame(frame, v),
            oran::KpmDecodeStatus::kTruncated);
}

TEST(KpmCodec, NonFiniteFeaturesAreRejected) {
  oran::KpmFrameArena arena;
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> feats(4, 0.5f);
    feats[2] = bad;
    const std::string frame(arena.encode(1, 1, oran::IndicationKind::kKpm,
                                         std::span<const float>(feats)));
    oran::KpmFrameView v;
    EXPECT_EQ(oran::decode_kpm_frame(frame, v),
              oran::KpmDecodeStatus::kNonFinite)
        << bad;
    EXPECT_EQ(v.feature_bytes, nullptr) << "a rejected decode leaves out alone";
  }
  EXPECT_STREQ(oran::kpm_decode_status_name(oran::KpmDecodeStatus::kNonFinite),
               "non_finite");
}

// --------------------------------------------------- simulator determinism

TEST(CitySim, DigestsAreThreadCountInvariant) {
  ThreadGuard guard;
  const citysim::CityConfig cfg = small_city();
  std::string event_ref;
  std::string state_ref;
  for (const int threads : {1, 2, 4}) {
    util::set_num_threads(threads);
    citysim::CitySim sim(cfg);
    sim.run_epochs(6);
    if (event_ref.empty()) {
      event_ref = sim.event_digest();
      state_ref = sim.state_digest();
      EXPECT_FALSE(event_ref.empty());
    } else {
      EXPECT_EQ(sim.event_digest(), event_ref) << threads << " threads";
      EXPECT_EQ(sim.state_digest(), state_ref) << threads << " threads";
    }
  }
}

TEST(CitySim, GoldenDigestLocksDuplicateTimestampTieBreak) {
  ThreadGuard guard;
  citysim::CityConfig cfg = small_city();
  cfg.handover_prob = 1.0;  // every executed move relocates its UE
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    citysim::CitySim sim(cfg);
    // Pin a burst of UEs — spanning several shards — to one identical
    // virtual time. Pop order of the tie is (time, shard, seq), so the
    // digest below changes if the tie-break ever changes.
    for (std::uint32_t ue = 0; ue < 64; ++ue) sim.pin_ue_move(ue, 50000);
    sim.run_epochs(3);
    EXPECT_EQ(sim.event_digest(),
              "ecb4538abbe206f211316ea835ed843d3f15c98f38b8fdbedc3dd2267c"
              "106838")
        << "at " << threads << " threads";
  }
}

TEST(CitySim, EpochHorizonEventRunsInTheNextEpoch) {
  ThreadGuard guard;
  util::set_num_threads(1);
  citysim::CityConfig cfg = small_city();
  cfg.handover_prob = 1.0;
  cfg.mean_dwell_us = 10 * cfg.epoch_us;  // background mobility quiet
  citysim::CitySim sim(cfg);
  const std::uint32_t ue = 3;
  const std::uint32_t before = sim.ue_cell(ue);
  // Exactly on the first horizon: the phase runs events strictly before
  // the horizon, so the move must wait for epoch 2.
  sim.pin_ue_move(ue, cfg.epoch_us);
  sim.run_epochs(1);
  EXPECT_EQ(sim.ue_cell(ue), before) << "horizon event ran a phase early";
  sim.run_epochs(1);
  EXPECT_NE(sim.ue_cell(ue), before) << "horizon event never ran";
}

TEST(CitySim, CrossShardHandoverLandsAtTheBarrier) {
  ThreadGuard guard;
  util::set_num_threads(1);
  citysim::CityConfig cfg = small_city();
  cfg.handover_prob = 1.0;
  cfg.mean_dwell_us = 10 * cfg.epoch_us;
  citysim::CitySim sim(cfg);
  const std::uint32_t ue = 3;
  const std::uint32_t src = sim.ue_cell(ue);
  sim.pin_ue_move(ue, cfg.epoch_us / 2);
  sim.run_epochs(1);
  const std::uint32_t dst = sim.ue_cell(ue);
  ASSERT_NE(dst, src);
  // Ownership already moved (counts stay conserved) even if the handover
  // crossed shards and travelled through the barrier message buffer.
  std::uint64_t attached = 0;
  for (std::uint32_t c = 0; c < cfg.cells; ++c)
    attached += sim.cell_ue_count(c);
  EXPECT_EQ(attached, cfg.ues);
  // Background UEs (first moves are dwell-staggered) hand over too; the
  // pinned one guarantees the counter is live.
  const citysim::CityStats s = sim.stats();
  EXPECT_GE(s.handovers_intra + s.handovers_cross, 1u);
}

TEST(CitySim, StaleEntryInTheOldShardNeverRunsAMigratedUe) {
  // Two cells, two shards, two UEs; reports and background mobility are
  // parked far beyond the run, and every move changes cell (so every
  // move crosses shards). UE 0 starts in cell 0 / shard 0. Seeding gives
  // both shards the seqs {0: cell, 1: UE}.
  citysim::CityConfig cfg;
  cfg.cells = 2;
  cfg.ues = 2;
  cfg.shards = 2;
  cfg.seed = 0x0a11;
  cfg.epoch_us = 100000;
  cfg.report_period_us = 1000000000000ull;
  cfg.mean_dwell_us = 1000000000000ull;
  cfg.handover_prob = 1.0;
  const std::uint64_t t = cfg.epoch_us + 500;  // in the second epoch
  ThreadGuard guard;
  std::string digest;
  for (const int threads : {1, 4}) {
    util::set_num_threads(threads);
    citysim::CitySim sim(cfg);
    // Shard 0 schedules seqs 2, 3, 4 for UE 0; only the last is live, so
    // (t, 3) is left behind as a stale entry in shard 0.
    sim.pin_ue_move(0, 3 * cfg.epoch_us);
    sim.pin_ue_move(0, t);
    sim.pin_ue_move(0, 10);
    sim.run_epochs(1);  // the move at 10 hands UE 0 over to shard 1
    ASSERT_EQ(sim.ue_cell(0), 1u);
    // Shard 1 took seq 2 at the barrier; this pin takes seq 3, so UE 0's
    // live move (t, 3) in shard 1 collides with shard 0's stale (t, 3).
    // Only the owner may run it — as a second cross-shard handover.
    sim.pin_ue_move(0, t);
    sim.run_epochs(1);
    const citysim::CityStats st = sim.stats();
    EXPECT_EQ(st.events, 2u) << "at " << threads << " threads";
    EXPECT_EQ(st.handovers_cross, 2u) << "at " << threads << " threads";
    EXPECT_EQ(st.handovers_intra, 0u) << "at " << threads << " threads";
    EXPECT_EQ(sim.ue_cell(0), 0u);
    EXPECT_EQ(sim.cell_ue_count(0) + sim.cell_ue_count(1), cfg.ues);
    if (digest.empty()) digest = sim.event_digest();
    EXPECT_EQ(sim.event_digest(), digest) << "at " << threads << " threads";
  }
}

TEST(CitySim, ZeroUeCellsStillReport) {
  ThreadGuard guard;
  util::set_num_threads(2);
  citysim::CityConfig cfg = small_city();
  cfg.ues = 5;  // 40 cells, 5 UEs: most cells are empty
  citysim::CitySim sim(cfg);
  std::uint32_t empty_cells = 0;
  for (std::uint32_t c = 0; c < cfg.cells; ++c)
    if (sim.cell_ue_count(c) == 0) ++empty_cells;
  ASSERT_GT(empty_cells, 0u);
  sim.run_epochs(3);
  const citysim::CityStats s = sim.stats();
  // Every cell reports every epoch, populated or not. The first report is
  // scheduled exactly on the epoch-1 horizon (strictly-before semantics),
  // so it executes in epoch 2: 3 epochs yield 2 reports per cell.
  EXPECT_EQ(s.reports, std::uint64_t{2} * cfg.cells);
  EXPECT_EQ(s.frames_delivered, s.reports);
  EXPECT_EQ(sim.availability(), 1.0);
}

// ------------------------------------------------------------ checkpointing

TEST(CitySim, CheckpointResumeMatchesUninterruptedRun) {
  ThreadGuard guard;
  util::set_num_threads(2);
  const citysim::CityConfig cfg = small_city();
  const std::string path = ::testing::TempDir() + "citysim_ckpt.bin";

  citysim::CitySim uninterrupted(cfg);
  uninterrupted.run_epochs(5);

  citysim::CitySim first(cfg);
  first.run_epochs(2);
  ASSERT_TRUE(first.save(path).ok()) << "checkpoint save failed";

  citysim::CitySim resumed(cfg);
  ASSERT_TRUE(resumed.load(path).ok()) << "checkpoint load failed";
  EXPECT_EQ(resumed.epoch(), 2u);
  EXPECT_EQ(resumed.state_digest(), first.state_digest());
  resumed.run_epochs(3);
  EXPECT_EQ(resumed.state_digest(), uninterrupted.state_digest());
}

TEST(CitySim, CheckpointRefusesAForeignConfig) {
  ThreadGuard guard;
  util::set_num_threads(1);
  const std::string path = ::testing::TempDir() + "citysim_ckpt_fp.bin";
  citysim::CitySim sim(small_city());
  sim.run_epochs(1);
  ASSERT_TRUE(sim.save(path).ok());
  citysim::CityConfig other = small_city();
  other.cells += 1;
  citysim::CitySim reject(other);
  const persist::Status st = reject.load(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code, persist::StatusCode::kMismatch);
}

// ----------------------------------------------------- striped SDL semantics

TEST(SdlStriping, StripeCountIsSemanticallyInvisible) {
  oran::Rbac rbac;
  rbac.define_role("writer",
                   {oran::Permission{"*", /*read=*/true, /*write=*/true}});
  rbac.assign_role("app", "writer");
  oran::Sdl one(&rbac, 1);
  oran::Sdl many(&rbac, oran::Sdl::kDefaultStripes);
  const nn::Shape shape{4};
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 40; ++k) {
      std::vector<float> payload(4, static_cast<float>(round * 100 + k));
      const std::string key = "cell-" + std::to_string(k);
      for (oran::Sdl* sdl : {&one, &many}) {
        ASSERT_EQ(sdl->write_tensor("app", "telemetry/kpm", key,
                                    nn::Tensor(shape, payload)),
                  oran::SdlStatus::kOk);
      }
    }
  }
  for (int k = 0; k < 40; ++k) {
    const std::string key = "cell-" + std::to_string(k);
    nn::Tensor a;
    nn::Tensor b;
    ASSERT_EQ(one.read_tensor("app", "telemetry/kpm", key, a),
              oran::SdlStatus::kOk);
    ASSERT_EQ(many.read_tensor("app", "telemetry/kpm", key, b),
              oran::SdlStatus::kOk);
    ASSERT_EQ(a.numel(), b.numel());
    for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(one.version("telemetry/kpm", key),
              many.version("telemetry/kpm", key));
    EXPECT_EQ(one.version("telemetry/kpm", key).value_or(0), 3u);
  }
  EXPECT_EQ(one.read_tensor("app", "telemetry/kpm", "cell-999",
                            *std::make_unique<nn::Tensor>()),
            oran::SdlStatus::kNotFound);
}

// ------------------------------------------------- RIC delivery paths

struct RicFixture {
  oran::Rbac rbac;
  oran::Operator op{"op", "sec"};
  oran::OnboardingService svc{&op, &rbac};
  oran::NearRtRic ric{&rbac, &svc};
};

TEST(RicDelivery, MovePathStoresThePayloadAndCountsBytes) {
  RicFixture fx;
  obs::Counter& bytes = obs::counter("oran.e2.indication_bytes");
  const std::uint64_t before = bytes.value();

  oran::E2Indication ind;
  ind.ran_node_id = "cell-7";
  ind.tti = 1;
  ind.kind = oran::IndicationKind::kKpm;
  ind.payload = nn::Tensor({4}, {1.0f, 2.0f, 3.0f, 4.0f});
  ASSERT_TRUE(fx.ric.deliver_indication(std::move(ind)));
  EXPECT_EQ(bytes.value() - before, 4 * sizeof(float));

  nn::Tensor stored;
  ASSERT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-7/current", stored),
            oran::SdlStatus::kOk);
  ASSERT_EQ(stored.numel(), 4u);
  EXPECT_EQ(stored[2], 3.0f);
}

TEST(RicDelivery, BinaryFramePathMatchesTheTensorPath) {
  RicFixture fx;
  std::vector<float> feats{0.5f, 1.5f, 2.5f};
  oran::KpmFrameArena arena;
  const std::string_view frame =
      arena.encode(11, 9, oran::IndicationKind::kKpm,
                   std::span<const float>(feats));
  ASSERT_TRUE(fx.ric.deliver_kpm_frame(frame));
  EXPECT_EQ(fx.ric.frames_rejected(), 0u);

  nn::Tensor stored;
  ASSERT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-11/current", stored),
            oran::SdlStatus::kOk);
  ASSERT_EQ(stored.numel(), feats.size());
  for (std::size_t i = 0; i < feats.size(); ++i)
    EXPECT_EQ(stored[i], feats[i]);

  // Repeated frames for the same cell reuse the in-place write path;
  // the entry version must keep advancing.
  feats[0] = 9.0f;
  ASSERT_TRUE(fx.ric.deliver_kpm_frame(
      arena.encode(11, 10, oran::IndicationKind::kKpm,
                   std::span<const float>(feats))));
  ASSERT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-11/current", stored),
            oran::SdlStatus::kOk);
  EXPECT_EQ(stored[0], 9.0f);
  EXPECT_GE(fx.ric.sdl().version(oran::kNsKpm, "cell-11/current").value_or(0),
            2u);
}

TEST(RicDelivery, MalformedFramesAreCountedNotDispatched) {
  RicFixture fx;
  std::vector<float> feats(8, 0.25f);
  oran::KpmFrameArena arena;
  const std::string good(arena.encode(2, 1, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  EXPECT_FALSE(fx.ric.deliver_kpm_frame(good.substr(0, good.size() - 1)));
  std::string flipped = good;
  flipped[oran::kKpmFrameHeaderBytes] ^= 0x01;
  EXPECT_FALSE(fx.ric.deliver_kpm_frame(flipped));
  EXPECT_EQ(fx.ric.frames_rejected(), 2u);
}

TEST(RicDelivery, NonFiniteFramesAreCountedNotDispatched) {
  RicFixture fx;
  oran::KpmFrameArena arena;
  std::vector<float> feats(8, 0.25f);
  feats[5] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(fx.ric.deliver_kpm_frame(arena.encode(
      2, 1, oran::IndicationKind::kKpm, std::span<const float>(feats))));
  feats[5] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(fx.ric.deliver_kpm_frame(arena.encode(
      2, 2, oran::IndicationKind::kKpm, std::span<const float>(feats))));
  EXPECT_EQ(fx.ric.frames_rejected(), 2u);
  nn::Tensor stored;
  EXPECT_NE(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-2/current", stored),
            oran::SdlStatus::kOk);
}

// Both entries feed one delivery core, so under the same fault plan a
// feature vector must leave the same SDL entry, corruption count, byte
// count and dispatch count whichever entry it arrives through.
struct EntryOutcome {
  std::vector<float> stored;
  std::uint64_t corrupted_writes = 0;
  std::uint64_t indication_bytes = 0;
  int dispatches = 0;
};

EntryOutcome deliver_through_one_entry(bool binary, const std::string& plan,
                                       const std::vector<float>& feats) {
  RicFixture fx;
  fault::FaultInjector injector(fault::FaultPlan::parse(plan));
  fx.ric.set_fault_injector(&injector);
  EntryOutcome out;
  fx.ric.set_post_dispatch_hook([&out] { ++out.dispatches; });
  obs::Counter& bytes = obs::counter("oran.e2.indication_bytes");
  const std::uint64_t before = bytes.value();
  if (binary) {
    oran::KpmFrameArena arena;
    EXPECT_TRUE(fx.ric.deliver_kpm_frame(arena.encode(
        5, 1, oran::IndicationKind::kKpm, std::span<const float>(feats))));
  } else {
    oran::E2Indication ind;
    ind.ran_node_id = "cell-5";
    ind.tti = 1;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload =
        nn::Tensor({static_cast<int>(feats.size())}, std::vector(feats));
    EXPECT_TRUE(fx.ric.deliver_indication(ind));
  }
  out.indication_bytes = bytes.value() - before;
  out.corrupted_writes = fx.ric.sdl().corrupted_writes();
  fx.ric.set_fault_injector(nullptr);
  nn::Tensor stored;
  EXPECT_EQ(fx.ric.sdl().read_tensor(oran::kRicPlatformId, oran::kNsKpm,
                                     "cell-5/current", stored),
            oran::SdlStatus::kOk);
  out.stored.assign(stored.data().begin(), stored.data().end());
  return out;
}

/// Delivers `feats` once through each entry into a fresh RIC under
/// `plan`, expects every observable to agree, and returns the binary run.
EntryOutcome expect_entries_agree(const std::string& plan,
                                  const std::vector<float>& feats) {
  const EntryOutcome tensor = deliver_through_one_entry(false, plan, feats);
  const EntryOutcome binary = deliver_through_one_entry(true, plan, feats);
  EXPECT_EQ(tensor.stored.size(), feats.size());
  EXPECT_EQ(tensor.stored, binary.stored);  // float ==: byte-equal, no NaNs
  EXPECT_EQ(tensor.corrupted_writes, binary.corrupted_writes);
  EXPECT_EQ(tensor.indication_bytes, binary.indication_bytes);
  EXPECT_EQ(tensor.dispatches, binary.dispatches);
  return binary;
}

const std::vector<float> kEntryFeatures{0.5f, 1.5f, 2.5f, 3.5f};

TEST(RicDelivery, CorruptSdlWriteActsTheSameThroughBothEntries) {
  const EntryOutcome out = expect_entries_agree(
      "seed 11\nsite sdl.write corrupt p=1\n", kEntryFeatures);
  EXPECT_EQ(out.corrupted_writes, 1u);
  EXPECT_EQ(out.dispatches, 1);
  EXPECT_NE(out.stored, kEntryFeatures)
      << "an injected sdl.write corrupt must perturb the stored entry";
}

TEST(RicDelivery, DuplicatedIndicationActsTheSameThroughBothEntries) {
  const EntryOutcome out = expect_entries_agree(
      "seed 11\nsite e2.indication duplicate p=1\n", kEntryFeatures);
  EXPECT_EQ(out.dispatches, 2);
  EXPECT_EQ(out.indication_bytes, 2 * kEntryFeatures.size() * sizeof(float));
  EXPECT_EQ(out.stored, kEntryFeatures);
}

}  // namespace
}  // namespace orev
