// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload cell-hot|enc-nested|durable-kv --seed N
//             --seconds S --trace 0|1 [--clients N] [--workdir DIR]
//             [--git-sha SHA] [--source-digest HEX]
//
// Untraced runs (--trace 0) measure the end-to-end metrics: set-up is
// repeated and its median reported, then one closed-loop timed phase of
// S seconds in rounds, then the workload's audit, recovery and
// correctness gate. Traced runs (--trace 1) measure S/2 seconds
// untraced and S/2 seconds with the metrics registry and the benchmark's
// spans attached, and report the per-layer metrics plus the tracing
// overhead between the two halves. The last stdout line is the JSON result; perfbench/run.py
// checks it against BENCHMARK.json.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common.h"

using namespace perfbench;

namespace {

/// Untraced runs set up at least kMinSetups times, and keep setting up
/// (to at most kMaxSetups) until kSetupBudgetS seconds went into it,
/// each time on the next CPU; setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;

#ifdef __clang__
const std::string kCompiler = std::string("clang ") + __VERSION__;
#else
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#endif

std::unique_ptr<Workload> Make(const Config& config) {
  if (config.workload == "cell-hot") return MakeCellHot(config);
  if (config.workload == "enc-nested") return MakeEncNested(config);
  if (config.workload == "durable-kv") return MakeDurableKv(config);
  return nullptr;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double PeakRssBytes() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) * 1024.0;  // ru_maxrss is in KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The built workload's flush policy, for the provenance stamp.
std::string g_flush_policy = "unknown";

struct Setup {
  std::unique_ptr<Workload> workload;
  double seconds = 0;
};

/// Builds a fresh workload and times its set-up, on the `index`-th CPU
/// (see RunPinned); exits on failure.
Setup BuildWorkload(const Config& config, size_t index) {
  Setup s;
  s.workload = Make(config);
  Status st;
  RunPinned(index, [&] {
    const uint64_t t0 = NowNs();
    st = s.workload->Setup();
    s.seconds = double(NowNs() - t0) / 1e9;
  });
  g_flush_policy = s.workload->flush_policy();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return s;
}

/// Rounds a timed phase is split into. Throughput is the median over the
/// rounds, so one disturbed stretch of a run does not move it.
constexpr int kRounds = 10;

/// Transaction counts of every round, plus each round's throughput.
struct Timed {
  PhaseStats pooled;
  std::vector<double> round_tps;

  double tps() const { return Median(round_tps); }
};

/// With a `latency` log, every transaction of every round is timed into
/// it.
Timed TimedPhase(Workload* w, const Config& config, double seconds,
                 LatencyLog* latency, Report* report) {
  Timed t;
  w->Start();
  for (int r = 0; r < kRounds; ++r) {
    Status st = w->NextRound();
    if (!st.ok()) {
      report->Violation("before round " + std::to_string(r) + ": " +
                        st.ToString());
      break;
    }
    PhaseStats round = RunClients(config.clients, seconds / kRounds, 0,
                                  latency,
                                  [w](size_t c) { return w->Txn(c); });
    report->CountPhase(round);
    t.round_tps.push_back(double(round.committed) / round.wall_s);
    std::printf("round %d: %.0f txn/s\n", r, t.round_tps.back());
    PhaseStats& p = t.pooled;
    p.wall_s += round.wall_s;
    p.attempted += round.attempted;
    p.committed += round.committed;
    p.committed_writes += round.committed_writes;
  }
  w->Stop();
  return t;
}

void EndToEnd(const Config& config, Report* report) {
  std::vector<double> setups;
  double setup_total = 0;
  Setup built;
  while (setups.size() < size_t(kMinSetups) ||
         (setup_total < kSetupBudgetS && setups.size() < size_t(kMaxSetups))) {
    built = Setup{};  // the previous database goes before the next is built
    built = BuildWorkload(config, setups.size());
    setups.push_back(built.seconds);
    setup_total += built.seconds;
  }
  // No latency sample exists yet: this peak is the set-ups' alone.
  const double setup_peak = PeakRssBytes();
  Workload* w = built.workload.get();
  LatencyLog latency(config.clients);
  Timed timed = TimedPhase(w, config, config.seconds, &latency, report);
  const PhaseStats& p = timed.pooled;
  w->Finish(p, report);
  // The latency samples are the benchmark's and grow with throughput, so
  // their resident bytes are taken out of the peak, which is read before
  // they are copied for the percentiles. They only grow, so a peak of
  // the workload's own memory from before the timed phase ended reads
  // low here; the set-up peak bounds that case from below.
  const double peak = std::max(
      setup_peak, PeakRssBytes() - double(latency.ResidentBytes()));
  if (latency.dropped() > 0) {
    report->Violation(std::to_string(latency.dropped()) +
                      " latency samples did not fit the log");
  }
  // Latency percentiles pool every round: read latency is multimodal
  // under concurrent writers, and a per-round median jumps between the
  // modes where the pooled one does not.
  Samples all = latency.Merged(true, true);
  Samples reads = latency.Merged(true, false);
  Samples writes = latency.Merged(false, true);
  report->Set("txn_per_s", timed.tps(), "1/s");
  report->Set("txn_p50_us", all.Quantile(0.50) / 1e3, "us");
  report->Set("txn_p99_us", all.Quantile(0.99) / 1e3, "us");
  report->Set("read_p50_us", reads.Quantile(0.50) / 1e3, "us");
  report->Set("read_p99_us", reads.Quantile(0.99) / 1e3, "us");
  report->Set("write_p50_us", writes.Quantile(0.50) / 1e3, "us");
  report->Set("write_p99_us", writes.Quantile(0.99) / 1e3, "us");
  std::printf("timed: %.3f s, %llu attempted, %llu committed, %zu reads, "
              "failed_frac %.6f; latency samples %.1f MiB resident\n",
              p.wall_s, (unsigned long long)p.attempted,
              (unsigned long long)p.committed, reads.size(),
              Ratio(double(p.attempted - p.committed), double(p.attempted)),
              double(latency.ResidentBytes()) / (1 << 20));
  report->Set("setup_s", Median(setups), "s");
  report->Set("peak_rss_mb", peak / (1 << 20), "MB");
}

void PerLayer(const Config& config, Report* report) {
  const double half = config.seconds / 2;
  double plain_tps = 0;
  {
    Setup built = BuildWorkload(config, 0);
    plain_tps =
        TimedPhase(built.workload.get(), config, half, nullptr, report).tps();
  }
  oodb::MetricsRegistry registry;
  Setup built = BuildWorkload(config, 0);
  Workload* w = built.workload.get();
  w->Observe(&registry);
  Spans::Enable(true);
  Timed timed = TimedPhase(w, config, half, nullptr, report);
  w->LayerMetrics(timed.pooled, report);
  w->Finish(timed.pooled, report);
  Spans::Enable(false);
  report->Set("obs.trace_overhead_frac", 1.0 - Ratio(timed.tps(), plain_tps),
              "ratio");
  for (const auto& [name, agg] : Spans::Aggregate()) {
    std::string metric = name;
    for (char& c : metric) {
      if (c == '.') c = '_';
    }
    report->Set("span." + metric + ".self_ms", double(agg.self_ns) / 1e6,
                "ms");
    std::printf("span %-16s count %10llu total %12.3f ms self %12.3f ms\n",
                name.c_str(), (unsigned long long)agg.count,
                double(agg.total_ns) / 1e6, double(agg.self_ns) / 1e6);
  }
  const std::string path = config.workdir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".jsonl";
  Status wrote = Spans::WriteJsonLines(path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", wrote.ToString().c_str());
  } else {
    std::printf("spans written to %s\n", path.c_str());
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload cell-hot|enc-nested|durable-kv "
               "--seed N --seconds S --trace 0|1 [--clients N] "
               "[--workdir DIR] [--git-sha SHA] [--source-digest HEX]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.clients = std::thread::hardware_concurrency();
  if (config.clients == 0) config.clients = 1;
  std::string git_sha = "unknown", digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--clients") {
      config.clients = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      digest = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.clients == 0 || config.seconds <= 0 ||
      (config.workload != "cell-hot" && config.workload != "enc-nested" &&
       config.workload != "durable-kv")) {
    return Usage(argv[0]);
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to score a build with "
                       "assertions on (NDEBUG unset)\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to score a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Report report;
  if (config.trace) {
    PerLayer(config, &report);
  } else {
    EndToEnd(config, &report);
  }
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"clients\": %zu, \"nproc\": %u, \"cpu\": %s, "
      "\"compiler\": %s, \"build_type\": %s, \"git_sha\": %s, "
      "\"source_digest\": %s, \"flush_policy\": %s}\n",
      JsonString(config.workload).c_str(), (unsigned long long)config.seed,
      config.seconds, config.trace ? 1 : 0, config.clients,
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(kCompiler).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(git_sha).c_str(),
      JsonString(digest).c_str(),
      JsonString(g_flush_policy).c_str());
  std::fflush(stdout);
  report.Print();
  return report.correct() ? 0 : 1;
}
