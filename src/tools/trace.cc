// oodb trace: run an instrumented workload and export its trace.
//
// Runs either the paper's Fig 7 / Example 4 schedule (the deterministic
// golden workload) or a small concurrent encyclopedia mix through the
// real runtime with a Tracer and a MetricsRegistry attached, optionally
// validates the recorded history, and writes the trace as Chrome
// trace_event JSON (open in Perfetto or chrome://tracing) or as the
// JSON-lines schema that `oodb check-trace` enforces.
//
// Examples:
//   oodb trace --trace-out=fig7.json           # Chrome trace of Fig 7
//   oodb trace --golden --format=jsonl         # byte-stable JSONL
//   oodb trace --workload=mix --threads=8 --metrics-out=-

#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "schedule/validator.h"
#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"
#include "workload/harness.h"
#include "workload/paper_worlds.h"

namespace oodb::tools {

namespace {

constexpr char kUsage[] =
    "usage: oodb trace [options]\n"
    "  --workload=fig7|mix   fig7: the Example 4 schedule (default);\n"
    "                        mix: a concurrent encyclopedia mix\n"
    "  --scheduler=open|closed|flat2pl|exclusive|none  (default open)\n"
    "  --format=chrome|jsonl (default chrome)\n"
    "  --trace-out=PATH      trace destination, '-' = stdout (default)\n"
    "  --metrics-out=PATH    metrics JSON destination ('-' = stdout)\n"
    "  --threads=N           mix workers (default 4)\n"
    "  --txns=N              mix transactions per worker (default 50)\n"
    "  --golden              logical clock + tid 0: byte-stable traces\n"
    "  --no-validate         skip the oo-serializability validation\n";

}  // namespace

int TraceMain(int argc, char** argv) {
  std::string workload = "fig7";
  std::string scheduler = "open";
  std::string format = "chrome";
  std::string trace_out = "-";
  std::string metrics_out;
  size_t threads = 4;
  size_t txns = 50;
  bool golden = false;
  bool no_validate = false;
  FlagSet flags("oodb trace", kUsage);
  flags.String("workload", &workload);
  flags.String("scheduler", &scheduler);
  flags.String("format", &format);
  flags.String("trace-out", &trace_out);
  flags.String("metrics-out", &metrics_out);
  flags.Unsigned("threads", &threads);
  flags.Unsigned("txns", &txns);
  flags.Bool("golden", &golden);
  flags.Bool("no-validate", &no_validate);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  SchedulerKind kind;
  if (!SchedulerKindFromName(scheduler, &kind)) {
    return flags.UsageError("unknown scheduler '" + scheduler + "'");
  }
  if (format != "chrome" && format != "jsonl") {
    return flags.UsageError("unknown format '" + format + "'");
  }
  if (workload != "fig7" && workload != "mix") {
    return flags.UsageError("unknown workload '" + workload + "'");
  }

  MetricsRegistry registry;
  TracerOptions trace_options;
  trace_options.golden = golden;
  trace_options.tag = workload + ":" + scheduler;
  Tracer tracer(trace_options);

  DatabaseOptions db_options;
  db_options.scheduler = kind;
  Database db(db_options);
  db.AttachObservability(&registry, &tracer);

  if (workload == "fig7") {
    (void)RunExample4(&db);
  } else {
    HarnessConfig config;
    config.threads = threads;
    config.txns_per_thread = txns;
    config.metrics = &registry;
    HarnessResult result =
        Harness::Run(&db, config, EncyclopediaMix(CreateMixWorld(&db)));
    std::fprintf(stderr, "mix: %s\n", result.Row().c_str());
  }

  if (!no_validate) {
    ValidationOptions voptions;
    voptions.metrics = &registry;
    voptions.tracer = &tracer;
    ValidationReport report = Validator::Validate(&db.ts(), voptions);
    std::fprintf(stderr, "validate: %s\n", report.Summary().c_str());
  }

  Status st = WriteOut(trace_out, format == "chrome" ? tracer.ToChromeTrace()
                                                     : tracer.ToJsonLines());
  if (st.ok() && !metrics_out.empty()) {
    st = WriteOut(metrics_out, registry.JsonSnapshot() + "\n");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "oodb trace: %s\n", st.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "oodb trace: %zu spans (%s, %s)\n",
               tracer.SpanCount(), workload.c_str(), format.c_str());
  return 0;
}

}  // namespace oodb::tools
