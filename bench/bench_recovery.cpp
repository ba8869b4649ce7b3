// Crash-recovery harness (DESIGN.md §10): proves the checkpoint/resume
// layer end to end. For every kill-point in a seeded FaultPlan it runs the
// attack pipeline (MCA over two surrogate candidates, then a UAP fit on
// the winner) with checkpointing enabled, lets the injected crash abort
// the process state mid-run, resumes in a fresh pipeline invocation, and
// byte-compares the final surrogate weights, UAP perturbation and score
// table against a baseline run that never checkpointed and never crashed.
// SDL kill-points do the same over the snapshot+journal store. Equality
// proves two properties at once: a resumed run loses nothing, and the
// checkpoint machinery perturbs nothing.
//
// Timing fields (train_seconds and friends) are inherently non-
// deterministic and excluded from every comparison.
//
// Flags (parsed before ObsGuard):
//   --kill-plan FILE   kill-point schedule (default: the committed
//                      recovery plan, bench/fault_plans/
//                      recovery_default.plan)
//   --print-plan       print the active plan in FaultPlan text format and
//                      exit (CI diffs this against the committed file)
// plus the usual --metrics-out/--trace-out/--threads via ObsGuard.
#include "bench_common.hpp"

#include "nn/serialize.hpp"
#include "oran/sdl.hpp"
#include "util/persist/bytes.hpp"
#include "util/persist/persist.hpp"

using namespace orev;
using namespace orev::bench;

namespace {

// Pipeline scale: small enough that a scenario sweep stays in benchmark
// territory, large enough that every kill-point in the committed plan
// actually fires (3 trainer commits per candidate, 2 clone commits, 3 UAP
// pass commits).
constexpr int kPerClass = 24;
constexpr int kMaxEpochs = 6;
constexpr int kCheckpointEvery = 2;
constexpr int kUapPasses = 3;
constexpr int kUapSamples = 32;

/// Everything deterministic the pipeline produces, in byte form.
struct PipelineOutput {
  std::string model_bytes;  // winner's params + layer state
  std::string uap_bytes;    // fitted perturbation tensor
  std::string table_csv;    // scores + UAP stats, timing excluded
};

std::vector<attack::Candidate> recovery_candidates(const nn::Shape& shape,
                                                   int classes) {
  std::vector<attack::Candidate> out;
  for (const apps::Arch arch : {apps::Arch::kOneLayer, apps::Arch::kBase}) {
    out.push_back(attack::Candidate{
        apps::arch_name(arch),
        [arch, shape, classes](std::uint64_t seed) {
          return apps::make_arch(arch, shape, classes, seed);
        }});
  }
  return out;
}

/// One full pipeline run. With an empty `ckpt_dir` nothing is ever written
/// (the baseline); otherwise checkpoints land there and a previous run's
/// state is resumed transparently.
PipelineOutput run_pipeline(const data::Dataset& corpus,
                            const std::string& ckpt_dir) {
  attack::CloneConfig cfg;
  cfg.train.max_epochs = kMaxEpochs;
  cfg.train.learning_rate = 2e-3f;
  cfg.train.early_stop_patience = kMaxEpochs;  // never stop at this scale
  cfg.train.checkpoint_every = kCheckpointEvery;
  cfg.checkpoint_dir = ckpt_dir;
  attack::CloneReport rep = attack::clone_model(
      corpus, recovery_candidates(corpus.sample_shape(), corpus.num_classes),
      cfg);

  const int m = std::min(kUapSamples, corpus.x.dim(0));
  nn::Shape s = corpus.x.shape();
  s[0] = m;
  nn::Tensor samples(s);
  for (int i = 0; i < m; ++i)
    samples.set_batch(i, corpus.x.slice_batch(i));

  attack::UapConfig ucfg;
  ucfg.eps = 0.1f;
  ucfg.max_passes = kUapPasses;
  ucfg.target_fooling = 2.0;  // unreachable: always run every pass
  if (!ckpt_dir.empty()) ucfg.checkpoint_path = ckpt_dir + "/uap.ckpt";
  attack::Fgsm inner(0.05f);
  const attack::UapResult uap =
      attack::generate_uap(rep.model, samples, inner, ucfg);

  PipelineOutput out;
  persist::ByteWriter mw;
  rep.model.write_state(mw);
  out.model_bytes = mw.take();
  persist::ByteWriter uw;
  nn::write_tensor(uw, uap.perturbation);
  out.uap_bytes = uw.take();
  CsvWriter csv;
  csv.header({"arch", "cloning_accuracy", "epochs_run", "early_stopped"});
  for (const attack::ArchScore& sc : rep.scores)
    csv.row(sc.name, sc.cloning_accuracy, sc.epochs_run,
            sc.early_stopped ? 1 : 0);
  csv.row("uap", uap.achieved_fooling, uap.passes, 0);
  out.table_csv = csv.str();
  return out;
}

/// The scripted SDL write sequence (tensor + text traffic with
/// overwrites). Returns the number of successful writes applied starting
/// from `from`; throws FaultInjectedError through from the kill-point.
int apply_sdl_writes(oran::Sdl& sdl, int from, int count) {
  int applied = 0;
  for (int i = from; i < count; ++i) {
    const std::string ns = i % 3 == 2 ? "ns/b" : "ns/a";
    std::string key = "k";
    key += std::to_string(i % 4);
    if (i % 2 == 0) {
      nn::Tensor t({3}, {static_cast<float>(i), static_cast<float>(i) * 0.5f,
                         -static_cast<float>(i)});
      OREV_CHECK(sdl.write_tensor("app", ns, key, std::move(t)) ==
                     oran::SdlStatus::kOk,
                 "scripted SDL tensor write must succeed");
    } else {
      std::string value = "v";
      value += std::to_string(i);
      OREV_CHECK(sdl.write_text("app", ns, key, std::move(value)) ==
                     oran::SdlStatus::kOk,
                 "scripted SDL text write must succeed");
    }
    ++applied;
  }
  return applied;
}

constexpr int kSdlWrites = 10;

/// Canonical byte fingerprint of the visible store state: every key of the
/// scripted namespaces with version, last writer and payload.
std::string sdl_fingerprint(oran::Sdl& sdl) {
  persist::ByteWriter w;
  for (const std::string ns : {"ns/a", "ns/b"}) {
    for (const std::string& key : sdl.keys(ns)) {
      w.str(ns);
      w.str(key);
      w.u64(sdl.version(ns, key).value_or(0));
      w.str(sdl.last_writer(ns, key).value_or(""));
      nn::Tensor t;
      if (sdl.read_tensor("app", ns, key, t) == oran::SdlStatus::kOk) {
        w.u8(1);
        nn::write_tensor(w, t);
      } else {
        std::string text;
        OREV_CHECK(sdl.read_text("app", ns, key, text) == oran::SdlStatus::kOk,
                   "fingerprint read must succeed");
        w.u8(0);
        w.str(text);
      }
    }
  }
  return w.take();
}

void permissive_rbac(oran::Rbac& rbac) {
  rbac.define_role("rw", {oran::Permission{"ns/*", true, true}});
  rbac.assign_role("app", "rw");
}

struct ScenarioResult {
  std::string name;
  std::string site;
  std::uint64_t after = 0;
  bool crashed = false;
  bool match = false;
};

std::string scenario_dir(const std::string& name) {
  const std::string dir = "bench_results/recovery/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// A plan holding exactly one kill spec, so each scenario crashes exactly
/// once at its designated commit.
fault::FaultPlan single_kill(std::uint64_t seed, const std::string& site,
                             const fault::FaultSpec& spec) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.sites[site].push_back(spec);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_file;
  bool print_plan = false;
  scan_flags(argc, argv, {{"--kill-plan", plan_file}},
             {{"--print-plan", &print_plan}});
  const fault::FaultPlan plan =
      load_fault_plan(plan_file, "", fault::default_recovery_plan());
  if (print_plan) {
    std::fputs(plan.to_string().c_str(), stdout);
    return 0;
  }

  ObsGuard obs_guard(argc, argv);
  parse_threads_flag(argc, argv);

  std::printf("=== Crash recovery: kill-point sweep (plan seed %llu) ===\n",
              static_cast<unsigned long long>(plan.seed));
  const data::Dataset corpus = bench_spectrogram_corpus(kPerClass);

  std::printf("[recovery] baseline pipeline (no checkpointing)...\n");
  WallTimer baseline_timer;
  const PipelineOutput baseline = run_pipeline(corpus, /*ckpt_dir=*/"");
  std::printf("[recovery] baseline done in %.1fs\n", baseline_timer.seconds());

  std::vector<ScenarioResult> results;
  int scenario_idx = 0;
  for (const auto& [site, specs] : plan.sites) {
    for (const fault::FaultSpec& spec : specs) {
      ScenarioResult res;
      res.site = site;
      res.after = spec.after;
      res.name = site + "@" + std::to_string(spec.after);
      for (char& c : res.name)
        if (c == '.') c = '_';
      const std::string dir = scenario_dir(res.name);
      ++scenario_idx;

      if (site == fault::sites::kSdlJournal) {
        // Baseline fingerprint: the scripted writes on an in-memory SDL.
        oran::Rbac rbac;
        permissive_rbac(rbac);
        std::string want;
        {
          oran::Sdl mem(&rbac);
          apply_sdl_writes(mem, 0, kSdlWrites);
          want = sdl_fingerprint(mem);
        }
        // Crash run: persistent SDL dies at the designated journal append
        // (the record is already durable when the crash fires).
        int applied = 0;
        {
          fault::FaultInjector injector(single_kill(plan.seed, site, spec));
          oran::Sdl sdl(&rbac);
          sdl.set_fault_injector(&injector);
          OREV_CHECK(sdl.attach_storage(dir).ok(), "attach must succeed");
          try {
            for (int i = 0; i < kSdlWrites; ++i) {
              apply_sdl_writes(sdl, i, i + 1);
              ++applied;
            }
          } catch (const fault::FaultInjectedError&) {
            ++applied;  // the crashing write itself committed durably
            res.crashed = true;
          }
        }
        // Resume: fresh process state replays snapshot+journal, finishes
        // the scripted sequence, then compacts and reattaches once more.
        if (res.crashed) {
          oran::Sdl sdl(&rbac);
          OREV_CHECK(sdl.attach_storage(dir).ok(), "re-attach must succeed");
          apply_sdl_writes(sdl, applied, kSdlWrites);
          const bool live_match = sdl_fingerprint(sdl) == want;
          OREV_CHECK(sdl.snapshot().ok(), "snapshot must succeed");
          oran::Sdl sdl2(&rbac);
          OREV_CHECK(sdl2.attach_storage(dir).ok(),
                     "post-snapshot attach must succeed");
          OREV_CHECK(sdl2.journal_replayed() == 0,
                     "snapshot must have compacted the journal");
          res.match = live_match && sdl_fingerprint(sdl2) == want;
        }
      } else {
        // Crash run: the pipeline dies at the designated checkpoint
        // commit; the injected error unwinds out of the pipeline call the
        // way a process kill would end it.
        {
          fault::FaultInjector injector(single_kill(plan.seed, site, spec));
          fault::set_global_injector(&injector);
          try {
            (void)run_pipeline(corpus, dir);
          } catch (const fault::FaultInjectedError&) {
            res.crashed = true;
          }
          fault::set_global_injector(nullptr);
        }
        // Resume run: no injector, same checkpoint dir.
        if (res.crashed) {
          const PipelineOutput resumed = run_pipeline(corpus, dir);
          res.match = resumed.model_bytes == baseline.model_bytes &&
                      resumed.uap_bytes == baseline.uap_bytes &&
                      resumed.table_csv == baseline.table_csv;
        }
      }

      std::printf("[recovery] %-18s crashed=%d byte-identical=%d\n",
                  res.name.c_str(), res.crashed ? 1 : 0, res.match ? 1 : 0);
      results.push_back(res);
    }
  }

  CsvWriter csv;
  csv.header({"scenario", "site", "after", "crashed", "byte_identical"});
  bool all_ok = !results.empty();
  for (const ScenarioResult& r : results) {
    csv.row(r.name, r.site, r.after, r.crashed ? 1 : 0, r.match ? 1 : 0);
    all_ok = all_ok && r.crashed && r.match;
  }
  save_csv(csv, "recovery");

  print_rule();
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: a kill-point scenario did not crash or did not "
                 "resume byte-identically\n");
    return 1;
  }
  std::printf("all %zu kill-point scenarios resumed byte-identically to the "
              "uninterrupted baseline\n",
              results.size());
  return 0;
}
