// End-to-end benchmark entry point. One process runs one workload at the
// process-wide pool size N = min(4, nproc), prints a host block, every
// metric by name with its unit, the output checks and the deterministic
// counts, and ends with one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, measured from the benchmark's own spans around each
// call into a layer. Exits non-zero when an output check fails.
//
// Usage: e2ebench --workload city_kpm|spectro_attack|clone_campaign
//                 --seed N --seconds S --trace 0|1
//                 [--small] [--chunks K] [--out-dir DIR]
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "serve/kernels.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/obs/causal.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"

#ifndef OREV_BENCH_COMPILER
#define OREV_BENCH_COMPILER "unknown"
#endif
#ifndef OREV_BENCH_BUILD_TYPE
#define OREV_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2ebench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "city_kpm|spectro_attack|clone_campaign --seed N --seconds S "
               "--trace 0|1 [--small] [--chunks K] [--out-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--small") o.small = true;
    else if (a == "--chunks") o.chunks = std::atoi(value().c_str());
    else if (a == "--out-dir") o.out_dir = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0.0 && o.chunks <= 0) usage("--seconds must be positive");
  return o;
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' || s.back() == ' '))
    s.pop_back();
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 2));
    }
  }
  return "unknown";
}

/// Revision of the checkout the benchmark runs from, read from .git at
/// run time ("unknown" outside a git work tree).
std::string git_revision() {
  const std::string head = trim(read_file(".git/HEAD"));
  if (head.empty()) return "unknown";
  if (head.rfind("ref: ", 0) != 0) return head;
  const std::string ref = head.substr(5);
  std::string rev = trim(read_file(".git/" + ref));
  if (!rev.empty()) return rev;
  std::istringstream packed(read_file(".git/packed-refs"));
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0)
      return line.substr(0, 40);
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string host_json(int threads) {
  const char* isa[] = {"scalar", "avx2", "avx512"};
  const int level = orev::serve::kernels::isa_level();
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": \"" << json_escape(cpu_model())
    << "\", \"isa\": \"" << (level >= 0 && level <= 2 ? isa[level] : "?")
    << "\", \"compiler\": \"" << json_escape(OREV_BENCH_COMPILER)
    << "\", \"build_type\": \"" << OREV_BENCH_BUILD_TYPE
    << "\", \"git_revision\": \"" << json_escape(git_revision())
    << "\", \"pool_threads\": " << threads << "}";
  return o.str();
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream o;
  o.precision(17);
  o << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
      << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  o << "}";
  return o.str();
}

void print_metrics(const char* tag, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("[%s] %-26s %16.6g %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = static_cast<int>(std::min(4u, hw));
  orev::util::set_num_threads(opt.threads);
  start_host_probe(opt.threads);
  // The program's own tracing stays off: the benchmark's spans are its
  // own, and end-to-end figures are measured untraced.
  orev::obs::set_trace_enabled(false);
  orev::obs::set_causal_enabled(false);
  orev::set_log_level(orev::LogLevel::kWarn);
  if (opt.out_dir.empty()) opt.out_dir = ".bench_build/e2ebench-out";
  ::mkdir(".bench_build", 0755);
  ::mkdir(opt.out_dir.c_str(), 0755);

  const std::string host = host_json(opt.threads);
  std::printf("host %s\n", host.c_str());
  std::printf("workload %s seed %llu seconds %g trace %d shape %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.small ? "small" : "full");
  std::fflush(stdout);

  Result r;
  try {
    if (opt.workload == "city_kpm") r = run_city_kpm(opt);
    else if (opt.workload == "spectro_attack") r = run_spectro_attack(opt);
    else if (opt.workload == "clone_campaign") r = run_clone_campaign(opt);
    else usage(("unknown workload " + opt.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  print_metrics("metric", r.headline);
  print_metrics(opt.trace ? "layer" : "e2e", opt.trace ? r.layers : r.e2e);
  std::printf("[host] steal_pct %.3f over %zu untraced chunks\n", r.steal_pct,
              r.chunks);
  std::printf("[host] probe_ms %.4f median of %zu probes\n",
              1e3 * host_probe_s(), host_probes());
  for (const auto& [name, n] : r.counts)
    std::printf("[count] %-26s %llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  for (const std::string& f : r.check_failures)
    std::printf("[check] FAIL %s\n", f.c_str());
  const bool correct = r.check_failures.empty();
  std::printf("[check] %s\n", correct ? "all output checks passed"
                                      : "output checks FAILED");

  // Full report (host block, every metric, counts) beside the spans.
  const std::string report_path = opt.out_dir + "/report_" + opt.workload +
                                  (opt.trace ? "_trace" : "") + ".json";
  if (std::FILE* f = std::fopen(report_path.c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"steal_pct\": %.3f, \"probe_ms\": %.4f, "
                 "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                 "\"correct\": %s, \"headline\": %s, \"metrics\": %s}\n",
                 host.c_str(), r.steal_pct, 1e3 * host_probe_s(),
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                 correct ? "true" : "false", metrics_json(r.headline).c_str(),
                 metrics_json(opt.trace ? r.layers : r.e2e).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(opt.trace ? r.layers : r.e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
