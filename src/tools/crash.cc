// oodb crash: the crash-recovery harness.
//
// One run forks a child workload, SIGKILLs it after the Nth WAL append,
// recovers the store, and verifies the recovered state against a
// committed-only oracle (see workload/crash_harness.h). --sweep repeats
// the run for every crash point in [A, B] (step STEP, default 1), each
// in its own store directory under --dir. --json writes the
// machine-readable per-point report ("oodb-crash-report-v1", one entry
// per crash point in both single and sweep mode); --timeline writes the
// last run's recovery timeline ("oodb-recovery-timeline-v1"). Exit
// status: 0 when every point passed, 1 otherwise.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"
#include "workload/crash_harness.h"

namespace oodb::tools {

namespace {

struct Sweep {
  bool on = false;
  uint64_t from = 0, to = 0, step = 1;
};

/// "B" (= 1:B), "A:B" or "A:B:STEP"; a zero STEP means 1.
bool ParseSweep(const std::string& spec, Sweep* out) {
  std::vector<uint64_t> parts;
  size_t begin = 0;
  for (;;) {
    const size_t colon = spec.find(':', begin);
    uint64_t v = 0;
    if (!ParseUnsigned(spec.substr(begin, colon - begin), UINT64_MAX, &v)) {
      return false;
    }
    parts.push_back(v);
    if (colon == std::string::npos) break;
    begin = colon + 1;
  }
  if (parts.size() > 3) return false;
  out->on = true;
  out->from = parts.size() == 1 ? 1 : parts[0];
  out->to = parts.size() == 1 ? parts[0] : parts[1];
  out->step = parts.size() == 3 && parts[2] > 0 ? parts[2] : 1;
  return true;
}

/// Removes a store directory left over from an earlier run.
void RemoveDir(const std::string& dir) {
  const std::string cmd = "rm -rf " + dir;
  (void)std::system(cmd.c_str());
}

}  // namespace

int CrashMain(int argc, char** argv) {
  CrashHarnessConfig config;
  config.dir = "/tmp/oodb_crash";
  Sweep sweep;
  std::string json_path, timeline_path;
  FlagSet flags("oodb crash",
                "usage: oodb crash [--dir=PATH] [--seed=N] [--txns=N]\n"
                "                  [--threads=N] [--crash-after=N]\n"
                "                  [--checkpoint-every=N] [--post-txns=N]\n"
                "                  [--sweep=A:B[:STEP]] [--json=PATH]\n"
                "                  [--timeline=PATH] [--verbose]\n");
  flags.String("dir", &config.dir);
  flags.Unsigned("seed", &config.seed);
  flags.Unsigned("txns", &config.txns);
  flags.Unsigned("threads", &config.threads);
  flags.Custom("crash-after", [&config](const std::string& value) {
    return ParseSigned(value, INT64_MIN, INT64_MAX,
                       &config.crash_after_appends);
  });
  flags.Unsigned("checkpoint-every", &config.checkpoint_every_commits);
  flags.Unsigned("post-txns", &config.post_txns);
  flags.Custom("sweep", [&sweep](const std::string& value) {
    return ParseSweep(value, &sweep);
  });
  flags.String("json", &json_path);
  flags.String("timeline", &timeline_path);
  flags.Bool("verbose", &config.verbose);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;

  int failures = 0;
  std::vector<std::string> point_json;
  std::string last_timeline;
  if (!sweep.on) {
    RemoveDir(config.dir);
    CrashHarnessReport report = CrashHarness::Run(config);
    std::printf("crash-after=%lld %s\n",
                static_cast<long long>(config.crash_after_appends),
                report.Row().c_str());
    point_json.push_back(report.Json(config.crash_after_appends));
    last_timeline = report.recovery.timeline.Json();
    failures += report.ok() ? 0 : 1;
  } else {
    const std::string base = config.dir;
    ::mkdir(base.c_str(), 0755);
    for (uint64_t point = sweep.from; point <= sweep.to;
         point += sweep.step) {
      CrashHarnessConfig point_config = config;
      point_config.dir = base + "/p" + std::to_string(point);
      point_config.crash_after_appends = static_cast<int64_t>(point);
      RemoveDir(point_config.dir);
      CrashHarnessReport report = CrashHarness::Run(point_config);
      std::printf("crash-after=%llu %s\n",
                  static_cast<unsigned long long>(point),
                  report.Row().c_str());
      std::fflush(stdout);
      point_json.push_back(report.Json(static_cast<int64_t>(point)));
      last_timeline = report.recovery.timeline.Json();
      if (!report.ok()) ++failures;
    }
  }
  if (!json_path.empty()) {
    std::string doc = "{\"schema\": \"oodb-crash-report-v1\", \"points\": [";
    for (size_t i = 0; i < point_json.size(); ++i) {
      doc += (i == 0 ? "\n  " : ",\n  ") + point_json[i];
    }
    doc += "\n]}\n";
    Status st = WriteOut(json_path, doc);
    if (!st.ok()) {
      std::fprintf(stderr, "oodb crash: %s\n", st.message().c_str());
      return 2;
    }
  }
  if (!timeline_path.empty()) {
    Status st = WriteOut(timeline_path, last_timeline + "\n");
    if (!st.ok()) {
      std::fprintf(stderr, "oodb crash: %s\n", st.message().c_str());
      return 2;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "oodb crash: %d crash point(s) FAILED\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace oodb::tools
