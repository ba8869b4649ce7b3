// City-scale emulation benchmark (DESIGN.md §16): drives the sharded
// CitySim scheduler at ≥2000 cells / ≥100k UEs and reports
//
//   UEs/sec          — UE-epochs advanced per wall-second, and
//   indications/sec  — KPM frames emitted per wall-second,
//
// at each thread count in {1, 4}, asserting that the merged per-shard
// event digest is byte-identical across thread counts and across repeated
// passes — the determinism witness the CI smoke diffs. Digest lines print
// as `[digest] threads=T pass=P <hex>` so two runs can be compared with a
// grep + diff, independent of the (wall-clock-bearing) JSON report.
//
// Two further phases quantify the data-plane claims:
//
//   codec — N KPM indications through a NearRtRic, round-robin over the
//   configured cell count, via its two entries into the one delivery
//   core: `tensor` (an E2Indication moved into deliver_indication) and
//   `binary` (arena encode + deliver_kpm_frame), counting heap
//   allocations with an overridden global operator new. Binary must
//   allocate less per indication and must reject a truncated /
//   bit-flipped / bad-magic probe frame. Throughput is compared over
//   three interleaved reps per arm: `faster` when binary's worst rep
//   beats tensor's best, `slower` (a failed run) when binary's best rep
//   loses to tensor's worst, otherwise `inconclusive` — the reps overlap,
//   and one noisy rep must not decide the verdict either way.
//
//   sdl — the same parallel writer load against a 1-stripe and a
//   default-stripe Sdl, reporting stripe contentions and wall time (the
//   oran.sdl.lock_wait_ns sketch fills as a side effect; view it via
//   --metrics-out or bench_perf_report).
//
// `--report-out FILE` writes the JSON consumed as the committed
// BENCH_CITYSCALE_<date>.json baseline (diffed by
// bench_perf_report --cityscale-baseline). The 1M-UE configuration is
// exercised by `--ues 1000000 --epochs 2 --passes 1`.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "citysim/citysim.hpp"
#include "oran/e2_codec.hpp"
#include "oran/near_rt_ric.hpp"
#include "oran/onboarding.hpp"
#include "util/check.hpp"

// ------------------------------------------------------- allocation probe
//
// Counts every heap allocation in the process so the codec phase can
// report allocations per indication. Relaxed atomics: the codec loops are
// single-threaded; the counter only needs to not tear under the scale
// phase's worker threads.

static std::atomic<std::uint64_t> g_allocs{0};

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

namespace {

using namespace orev;
using namespace orev::bench;

// ------------------------------------------------------------ scale phase

/// Sink that CRC-verifies every delivered frame through the real decoder,
/// so the scale numbers include full decode cost on the consumer side.
class DecodeSink : public citysim::FrameSink {
 public:
  void on_frame(std::uint32_t /*shard*/, std::string_view frame) override {
    oran::KpmFrameView v;
    if (oran::decode_kpm_frame(frame, v) != oran::KpmDecodeStatus::kOk) {
      ++bad;
      return;
    }
    ++frames;
    bytes += frame.size();
    checksum += v.cell_id + v.tti;
  }
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bad = 0;
  std::uint64_t checksum = 0;  // keeps the decode honest
};

struct ScaleRun {
  int threads = 0;
  int pass = 0;
  double wall_seconds = 0.0;
  double ue_epochs_per_sec = 0.0;
  double indications_per_sec = 0.0;
  citysim::CityStats stats;
  std::string event_digest;
  std::string state_digest;
};

ScaleRun run_scale(const citysim::CityConfig& cfg, int threads, int pass,
                   std::uint64_t epochs) {
  util::set_num_threads(threads);
  citysim::CitySim sim(cfg);
  DecodeSink sink;
  sim.set_sink(&sink);
  WallTimer t;
  sim.run_epochs(epochs);
  ScaleRun out;
  out.wall_seconds = t.seconds();
  out.threads = threads;
  out.pass = pass;
  out.stats = sim.stats();
  out.event_digest = sim.event_digest();
  out.state_digest = sim.state_digest();
  out.ue_epochs_per_sec = static_cast<double>(cfg.ues) *
                          static_cast<double>(epochs) / out.wall_seconds;
  out.indications_per_sec =
      static_cast<double>(out.stats.reports) / out.wall_seconds;
  OREV_CHECK(sink.bad == 0, "scale sink saw undecodable frames");
  OREV_CHECK(sink.frames == out.stats.frames_delivered,
             "sink frame count must match simulator accounting");
  std::printf(
      "[scale] threads=%d pass=%d wall=%.3fs  UEs/sec=%.3e  ind/sec=%.3e  "
      "events=%llu cross_handovers=%llu\n",
      threads, pass, out.wall_seconds, out.ue_epochs_per_sec,
      out.indications_per_sec,
      static_cast<unsigned long long>(out.stats.events),
      static_cast<unsigned long long>(out.stats.handovers_cross));
  std::printf("[digest] threads=%d pass=%d %s\n", threads, pass,
              out.event_digest.c_str());
  return out;
}

// ------------------------------------------------------------ codec phase

struct CodecSide {
  double wall_seconds = 0.0;
  double inds_per_sec = 0.0;  // best rep
  double worst_inds_per_sec = 0.0;
  double allocs_per_ind = 0.0;
};

struct RicFixture {
  oran::Rbac rbac;
  oran::Operator op{"op", "sec"};
  oran::OnboardingService svc{&op, &rbac};
  oran::NearRtRic ric{&rbac, &svc};
};

void fill_features(std::uint64_t i, std::span<float> f) {
  for (std::size_t j = 0; j < f.size(); ++j) {
    f[j] = static_cast<float>((i * 31 + j * 7) % 97) * 0.01f;
  }
}

enum class CodecMode { kTensor, kBinary };

/// One timed delivery loop at city shape: frames round-robin over `cells`
/// distinct cells, so per-message key/tensor churn is what it is in the
/// simulator, not what a single hot cell's allocator reuse makes it.
/// Folds the rep into `acc`, which keeps the best rep's wall, rate and
/// allocations plus the worst rep's rate.
void run_codec(CodecMode mode, std::uint64_t inds, std::uint16_t features,
               std::uint32_t cells, CodecSide& acc) {
  RicFixture fx;
  std::vector<float> feats(features);
  const nn::Shape shape{static_cast<int>(features)};
  oran::KpmFrameArena arena;
  auto one = [&](std::uint64_t i) {
    const std::uint32_t cell = static_cast<std::uint32_t>(i % cells);
    fill_features(i, feats);
    if (mode == CodecMode::kBinary) {
      const std::string_view frame =
          arena.encode(cell, i, oran::IndicationKind::kKpm,
                       std::span<const float>(feats));
      OREV_CHECK(fx.ric.deliver_kpm_frame(frame),
                 "binary delivery must succeed without faults");
      return;
    }
    oran::E2Indication ind;
    ind.ran_node_id = "cell-" + std::to_string(cell);
    ind.tti = i;
    ind.kind = oran::IndicationKind::kKpm;
    ind.payload = nn::Tensor(shape, feats);
    OREV_CHECK(fx.ric.deliver_indication(std::move(ind)),
               "tensor delivery must succeed without faults");
  };
  // Warm the SDL map and the arena with every cell written once, so the
  // timed loop measures steady-state deliveries, not first writes.
  const std::uint64_t warm = std::max<std::uint64_t>(1000, cells);
  for (std::uint64_t i = 0; i < warm; ++i) one(i);
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  WallTimer t;
  for (std::uint64_t i = 0; i < inds; ++i) one(i);
  const double wall = t.seconds();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  const double rate = static_cast<double>(inds) / wall;
  if (acc.inds_per_sec == 0.0 || rate > acc.inds_per_sec) {
    acc.wall_seconds = wall;
    acc.inds_per_sec = rate;
    acc.allocs_per_ind =
        static_cast<double>(a1 - a0) / static_cast<double>(inds);
  }
  if (acc.worst_inds_per_sec == 0.0 || rate < acc.worst_inds_per_sec)
    acc.worst_inds_per_sec = rate;
}

/// Three-way throughput verdict over the reps' spread (see the header).
const char* throughput_verdict(const CodecSide& tensor,
                               const CodecSide& binary) {
  if (binary.worst_inds_per_sec > tensor.inds_per_sec) return "faster";
  if (binary.inds_per_sec < tensor.worst_inds_per_sec) return "slower";
  return "inconclusive";
}

/// Malformed-frame probe: truncation, a payload bit flip, and a bad magic
/// must all be rejected (counted, never dispatched).
std::uint64_t run_codec_rejects() {
  RicFixture fx;
  std::vector<float> feats(8);
  fill_features(3, feats);
  oran::KpmFrameArena arena;
  const std::string good(arena.encode(1, 1, oran::IndicationKind::kKpm,
                                      std::span<const float>(feats)));
  OREV_CHECK(fx.ric.deliver_kpm_frame(good), "probe baseline must deliver");

  std::string truncated = good.substr(0, good.size() - 3);
  OREV_CHECK(!fx.ric.deliver_kpm_frame(truncated),
             "truncated frame must be rejected");
  std::string flipped = good;
  flipped[oran::kKpmFrameHeaderBytes + 2] ^= 0x40;  // payload bit flip
  OREV_CHECK(!fx.ric.deliver_kpm_frame(flipped),
             "bit-flipped frame must fail CRC");
  std::string bad_magic = good;
  bad_magic[0] ^= 0xff;
  OREV_CHECK(!fx.ric.deliver_kpm_frame(bad_magic),
             "bad magic must be rejected");
  return fx.ric.frames_rejected();
}

// -------------------------------------------------------------- SDL phase

struct SdlRun {
  std::size_t stripes = 0;
  double wall_seconds = 0.0;
  double writes_per_sec = 0.0;
  std::uint64_t contentions = 0;
};

SdlRun run_sdl_contention(std::size_t stripes, int threads, int workers,
                          std::uint64_t writes_per_worker) {
  util::set_num_threads(threads);
  oran::Rbac rbac;
  rbac.define_role("bench-writer",
                   {oran::Permission{"*", /*read=*/true, /*write=*/true}});
  rbac.assign_role("bench", "bench-writer");
  oran::Sdl sdl(&rbac, stripes);

  // Payloads big enough (4 KB) that the copy under the stripe lock is the
  // longest pipeline stage — the regime striping exists for. Tiny payloads
  // serialize on the (global) audit ring instead and no stripe ever
  // contends.
  constexpr int kPayloadFloats = 1024;
  const nn::Shape shape{kPayloadFloats};
  std::vector<std::string> keys;
  std::vector<std::vector<float>> bufs;
  for (int w = 0; w < workers; ++w) {
    keys.push_back("cell-" + std::to_string(w));
    bufs.emplace_back(kPayloadFloats, static_cast<float>(w));
    // Pre-create the entries so the timed loop is pure in-place traffic.
    OREV_CHECK(sdl.write_tensor("bench", "telemetry/kpm", keys.back(), shape,
                                std::span<const float>(bufs.back())) ==
                   oran::SdlStatus::kOk,
               "seed write must succeed");
  }

  WallTimer t;
  util::parallel_for(0, workers, 1, [&](std::int64_t w) {
    for (std::uint64_t i = 0; i < writes_per_worker; ++i) {
      bufs[w][0] = static_cast<float>(i);
      OREV_CHECK(sdl.write_tensor(
                     "bench", "telemetry/kpm", keys[w], shape,
                     std::span<const float>(bufs[w])) == oran::SdlStatus::kOk,
                 "bench write must succeed");
    }
  });
  SdlRun out;
  out.wall_seconds = t.seconds();
  out.stripes = stripes;
  out.contentions = sdl.total_contentions();
  out.writes_per_sec = static_cast<double>(workers) *
                       static_cast<double>(writes_per_worker) /
                       out.wall_seconds;
  std::printf("[sdl] stripes=%zu wall=%.3fs writes/sec=%.3e contentions=%llu\n",
              stripes, out.wall_seconds, out.writes_per_sec,
              static_cast<unsigned long long>(out.contentions));
  return out;
}

// ------------------------------------------------------------ JSON report

std::string report_json(const citysim::CityConfig& cfg, std::uint64_t epochs,
                        int passes, const std::vector<ScaleRun>& scale,
                        bool byte_identical, std::uint64_t codec_inds,
                        const CodecSide& tensor, const CodecSide& binary,
                        bool alloc_win, const char* throughput,
                        std::uint64_t rejects, const SdlRun& sdl_single,
                        const SdlRun& sdl_striped, bool pass) {
  json::Writer w;
  w.begin_object().field("schema", "orev-cityscale-bench-v1");
  w.key("config").begin_object().field("cells", cfg.cells);
  w.field("ues", cfg.ues).field("shards", cfg.shards).field("epochs", epochs);
  w.field("passes", passes).field("features", cfg.features);
  w.field("seed", cfg.seed).end_object().key("scale").begin_array();
  for (const ScaleRun& r : scale) {
    w.begin_object().field("threads", r.threads).field("pass", r.pass);
    w.field("wall_seconds", r.wall_seconds);
    w.field("ue_epochs_per_sec", r.ue_epochs_per_sec);
    w.field("indications_per_sec", r.indications_per_sec);
    w.field("events", r.stats.events).field("reports", r.stats.reports);
    w.field("handovers_cross", r.stats.handovers_cross);
    w.field("event_digest", r.event_digest).end_object();
  }
  const std::string none;
  w.end_array().key("determinism").begin_object();
  w.field("byte_identical", byte_identical);
  w.field("event_digest", scale.empty() ? none : scale.front().event_digest);
  w.field("state_digest", scale.empty() ? none : scale.front().state_digest);
  w.end_object().key("codec").begin_object();
  w.field("indications", codec_inds);
  for (const auto& [name, c] : {std::pair{"tensor", &tensor},
                                std::pair{"binary", &binary}}) {
    w.key(name).begin_object().field("wall_seconds", c->wall_seconds);
    w.field("inds_per_sec", c->inds_per_sec);
    w.field("worst_inds_per_sec", c->worst_inds_per_sec);
    w.field("allocs_per_ind", c->allocs_per_ind).end_object();
  }
  w.field("alloc_win", alloc_win);
  w.field("throughput_vs_tensor", binary.inds_per_sec / tensor.inds_per_sec);
  w.field("throughput", throughput).field("frames_rejected", rejects);
  w.end_object().key("sdl").begin_object();
  for (const auto& [name, r] : {std::pair{"single_stripe", &sdl_single},
                                std::pair{"striped", &sdl_striped}}) {
    w.key(name).begin_object().field("stripes", r->stripes);
    w.field("wall_seconds", r->wall_seconds);
    w.field("writes_per_sec", r->writes_per_sec);
    w.field("contentions", r->contentions).end_object();
  }
  w.end_object().field("pass", pass).end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  ObsGuard obs_guard(argc, argv);
  const int base_threads = parse_threads_flag(argc, argv);

  citysim::CityConfig cfg;
  std::uint64_t epochs = 10;
  std::uint64_t passes_flag = 2;
  std::uint64_t codec_inds = 20000;
  std::uint64_t sdl_writes = 20000;
  std::string report_out;
  scan_flags(argc, argv,
             {{"--cells", cfg.cells},
              {"--ues", cfg.ues},
              {"--shards", cfg.shards},
              {"--seed", cfg.seed},
              {"--epochs", epochs},
              {"--passes", passes_flag},
              {"--codec-inds", codec_inds},
              {"--sdl-writes", sdl_writes},
              {"--report-out", report_out}});
  const int passes = static_cast<int>(passes_flag);

  std::printf("=== City-scale emulation: %u cells, %u UEs, %u shards, "
              "%llu epochs, %d pass(es) ===\n",
              cfg.cells, cfg.ues, cfg.shards,
              static_cast<unsigned long long>(epochs), passes);

  // ----- scale + determinism ------------------------------------------------
  std::vector<ScaleRun> scale;
  for (int p = 0; p < passes; ++p) {
    for (const int threads : {1, 4}) {
      scale.push_back(run_scale(cfg, threads, p, epochs));
    }
  }
  bool byte_identical = true;
  for (const ScaleRun& r : scale) {
    byte_identical = byte_identical &&
                     r.event_digest == scale.front().event_digest &&
                     r.state_digest == scale.front().state_digest;
  }
  std::printf("[determinism] digests byte-identical across %zu runs: %s\n",
              scale.size(), byte_identical ? "yes" : "NO");

  // ----- codec comparison ---------------------------------------------------
  // The codec claim is a city-scale claim: at a handful of hot cells the
  // tensor path's allocator reuse flatters it. Rotate over at least the
  // 2000-cell acceptance floor even when the scale phase runs reduced.
  util::set_num_threads(base_threads > 0 ? base_threads : 1);
  const std::uint32_t codec_cells = std::max<std::uint32_t>(cfg.cells, 2000);
  // Three reps per arm, arms interleaved, so a scheduler hiccup lands in
  // one rep of one arm and widens its spread instead of flipping the
  // verdict.
  CodecSide tensor;
  CodecSide binary;
  for (int rep = 0; rep < 3; ++rep) {
    run_codec(CodecMode::kTensor, codec_inds, cfg.features, codec_cells,
              tensor);
    run_codec(CodecMode::kBinary, codec_inds, cfg.features, codec_cells,
              binary);
  }
  const std::uint64_t rejects = run_codec_rejects();
  const bool alloc_win = binary.allocs_per_ind < tensor.allocs_per_ind;
  const char* throughput = throughput_verdict(tensor, binary);
  std::printf("[codec] tensor: %.3e ind/sec (worst rep %.3e), "
              "%.2f allocs/ind\n",
              tensor.inds_per_sec, tensor.worst_inds_per_sec,
              tensor.allocs_per_ind);
  std::printf("[codec] binary: %.3e ind/sec (worst rep %.3e), "
              "%.2f allocs/ind  (alloc win %s, x%.2f vs tensor, "
              "throughput %s, rejected probes %llu/3)\n",
              binary.inds_per_sec, binary.worst_inds_per_sec,
              binary.allocs_per_ind, alloc_win ? "yes" : "NO",
              binary.inds_per_sec / tensor.inds_per_sec, throughput,
              static_cast<unsigned long long>(rejects));

  // ----- SDL stripe contention ---------------------------------------------
  const SdlRun sdl_single =
      run_sdl_contention(/*stripes=*/1, /*threads=*/4, /*workers=*/8,
                         sdl_writes);
  const SdlRun sdl_striped =
      run_sdl_contention(oran::Sdl::kDefaultStripes, /*threads=*/4,
                         /*workers=*/8, sdl_writes);
  util::set_num_threads(base_threads > 0 ? base_threads : 1);

  // ----- verdict ------------------------------------------------------------
  const bool pass = byte_identical && alloc_win &&
                    std::strcmp(throughput, "slower") != 0 && rejects == 3;
  print_rule();
  std::printf("cityscale bench: %s\n", pass ? "PASS" : "FAIL");
  if (!report_out.empty()) {
    write_report(report_out,
                 report_json(cfg, epochs, passes, scale, byte_identical,
                             codec_inds, tensor, binary, alloc_win,
                             throughput, rejects, sdl_single, sdl_striped,
                             pass));
  }
  return pass ? 0 : 1;
}
