// oodb top: the bottleneck inspector.
//
// Replays a sampler time-series from a file — or records one live from
// the built-in contended encyclopedia mix — and renders either the
// "top"-style screen (throughput sparkline, phase breakdown, hottest
// stripes and objects, cache ratio) or the machine-readable
// "oodb-top-report-v1" JSON whose dominant_phase field names the
// bottleneck.
//
// Examples:
//   oodb top series.jsonl                    # screen view of a recording
//   oodb top --report series.jsonl           # bottleneck report (JSON)
//   oodb top --live --threads=8 --txns=500   # record + watch a mix
//   oodb top --live --series-out=series.jsonl --report

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/top.h"
#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"
#include "workload/harness.h"
#include "workload/paper_worlds.h"

namespace oodb::tools {

namespace {

constexpr char kUsage[] =
    "usage: oodb top [options] [SERIES_FILE]\n"
    "  oodb top series.jsonl            replay a recorded series\n"
    "  oodb top --report series.jsonl   machine-readable bottleneck "
    "report\n"
    "  oodb top --live                  record + inspect a built-in mix\n"
    "options:\n"
    "  --report            JSON report instead of the screen view\n"
    "  --window=N          screen: fold only the last N ticks (0 = all)\n"
    "  --top-k=N           rows in the hot lists (default 8)\n"
    "  --scheduler=open|closed|flat2pl|exclusive  live mix (default "
    "open)\n"
    "  --threads=N         live: mix workers (default 8)\n"
    "  --txns=N            live: transactions per worker (default 500)\n"
    "  --interval=MS       live: sampler tick (default 10)\n"
    "  --refresh=MS        live: screen refresh when on a tty (default "
    "500)\n"
    "  --series-out=PATH   live: also write the recorded series\n";

struct Options {
  bool report = false;
  bool live = false;
  size_t window = 0;
  size_t top_k = 8;
  std::string scheduler = "open";
  size_t threads = 8;
  size_t txns = 500;
  size_t interval_ms = 10;
  size_t refresh_ms = 500;
  std::string series_out;
};

/// The live samples, read through the same JSON-lines substrate a
/// replay parses, so live and replayed reports agree by construction.
SeriesData LiveSeries(const MetricsSampler& sampler) {
  return ParseSeries(sampler.ToJsonLines()).ValueOr(SeriesData{});
}

/// Runs the mix with a sampler attached (repainting the screen while it
/// runs when stdout is a tty) and returns the recorded series.
Result<SeriesData> RecordLive(const Options& opts, SchedulerKind kind) {
  MetricsRegistry registry;
  DatabaseOptions db_options;
  db_options.scheduler = kind;
  Database db(db_options);
  db.AttachObservability(&registry, nullptr);
  const ObjectId enc = CreateMixWorld(&db);

  SamplerOptions soptions;
  soptions.interval = std::chrono::milliseconds(opts.interval_ms);
  soptions.tag = "live:mix:" + opts.scheduler;
  MetricsSampler sampler(&registry, soptions);
  db.InstallSamplerProbes(&sampler);
  sampler.Start();

  // The same contended mix `oodb trace --workload=mix` runs, on a worker
  // thread so the main thread can refresh the screen while it runs.
  HarnessResult result;
  std::thread worker([&] {
    HarnessConfig config;
    config.threads = opts.threads;
    config.txns_per_thread = opts.txns;
    config.metrics = &registry;
    result = Harness::Run(&db, config, EncyclopediaMix(enc));
  });

  TopOptions toptions;
  toptions.top_k = opts.top_k;
  const bool tty = isatty(STDOUT_FILENO) != 0 && !opts.report;
  if (tty) {
    // Refresh the screen until the mix drains; \x1b[H\x1b[J repaints in
    // place like top(1).
    std::mutex done_mu;
    bool done = false;
    std::thread waiter([&] {
      worker.join();
      std::lock_guard<std::mutex> lock(done_mu);
      done = true;
    });
    for (;;) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.refresh_ms));
      std::fputs("\x1b[H\x1b[J", stdout);
      std::fputs(
          RenderScreen(LiveSeries(sampler), toptions, opts.window).c_str(),
          stdout);
      std::fflush(stdout);
      std::lock_guard<std::mutex> lock(done_mu);
      if (done) break;
    }
    waiter.join();
  } else {
    worker.join();
  }
  sampler.Stop();
  std::fprintf(stderr, "mix: %s\n", result.Row().c_str());

  if (!opts.series_out.empty()) {
    OODB_RETURN_IF_ERROR(sampler.WriteJsonLines(opts.series_out));
  }
  if (tty) std::fputs("\x1b[H\x1b[J", stdout);
  return LiveSeries(sampler);
}

Result<SeriesData> ReadSeries(const std::string& path) {
  std::string text;
  OODB_RETURN_IF_ERROR(ReadFileOrStdin(path, &text));
  return ParseSeries(text);
}

}  // namespace

int TopMain(int argc, char** argv) {
  Options opts;
  std::vector<std::string> files;
  FlagSet flags("oodb top", kUsage);
  flags.Bool("report", &opts.report);
  flags.Bool("live", &opts.live);
  flags.Unsigned("window", &opts.window);
  flags.Unsigned("top-k", &opts.top_k);
  flags.String("scheduler", &opts.scheduler);
  flags.Unsigned("threads", &opts.threads);
  flags.Unsigned("txns", &opts.txns);
  flags.Unsigned("interval", &opts.interval_ms);
  flags.Unsigned("refresh", &opts.refresh_ms);
  flags.String("series-out", &opts.series_out);
  flags.Positionals(&files);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (files.size() > 1) {
    return flags.UsageError("extra argument '" + files[1] + "'");
  }
  if (opts.live != files.empty()) {
    return flags.UsageError(opts.live ? "--live takes no SERIES_FILE"
                                      : "need a SERIES_FILE or --live");
  }
  // The live mix runs under a locking scheduler: "none" (no concurrency
  // control, for producing anomalies) is not offered here.
  SchedulerKind kind = SchedulerKind::kOpenNested;
  if (opts.live && (!SchedulerKindFromName(opts.scheduler, &kind) ||
                    kind == SchedulerKind::kNone)) {
    return flags.UsageError("unknown scheduler '" + opts.scheduler + "'");
  }
  const Result<SeriesData> series =
      opts.live ? RecordLive(opts, kind) : ReadSeries(files[0]);
  if (!series.ok()) {
    std::fprintf(stderr, "oodb top: %s\n",
                 series.status().ToString().c_str());
    return 1;
  }
  TopOptions toptions;
  toptions.top_k = opts.top_k;
  std::fputs((opts.report ? RenderReport(*series, toptions)
                          : RenderScreen(*series, toptions, opts.window))
                 .c_str(),
             stdout);
  return 0;
}

}  // namespace oodb::tools
