// oodb explain: validate an execution and explain the verdict.
//
// Runs one of the built-in worlds — the paper's Fig 7 / Example 4
// schedule through the real runtime, or a Section-9 anomaly scenario —
// or loads a recorded history dump, validates it with provenance
// recording on, and renders the explanation (witness cycles expanded to
// their primitive conflicts, the Def 6/15 relations, the Def 16 union)
// as text, Graphviz DOT, or JSON.
//
// The validator is deterministic, so the explanation is byte-stable:
// that is what the golden tests and the CI explain gate diff against.
//
// Examples:
//   oodb explain                                   # Fig 7, text
//   oodb explain --workload=s9 --anomaly=lost-update --format=dot
//   oodb explain --history=run.hist --format=json --metrics-out=-

#include <cstdio>
#include <memory>
#include <string>

#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schedule/history_io.h"
#include "schedule/validator.h"
#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"
#include "workload/anomalies.h"
#include "workload/paper_worlds.h"

namespace oodb::tools {

namespace {

constexpr char kUsage[] =
    "usage: oodb explain [options]\n"
    "  --workload=fig7|s9    fig7: the Example 4 schedule (default);\n"
    "                        s9: a Section 9 anomaly scenario\n"
    "  --anomaly=NAME        s9 scenario: lost-update (default),\n"
    "                        inconsistent-read, phantom, write-skew\n"
    "  --variant=bad|good    s9 interleaving to explain (default bad)\n"
    "  --history=PATH        explain a recorded history dump instead\n"
    "  --format=text|dot|json  (default text)\n"
    "  --out=PATH            destination, '-' = stdout (default)\n"
    "  --metrics-out=PATH    metrics JSON destination ('-' = stdout)\n"
    "  --global              also run the strictly-global cycle check\n";

bool AnomalyFromName(const std::string& name, AnomalyKind* out) {
  for (AnomalyKind kind : AllAnomalyKinds()) {
    if (name == AnomalyKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

int ExplainMain(int argc, char** argv) {
  std::string workload = "fig7";
  std::string anomaly = "lost-update";
  std::string variant = "bad";
  std::string history;
  std::string format = "text";
  std::string out = "-";
  std::string metrics_out;
  bool include_global = false;
  FlagSet flags("oodb explain", kUsage);
  flags.String("workload", &workload);
  flags.String("anomaly", &anomaly);
  flags.String("variant", &variant);
  flags.String("history", &history);
  flags.String("format", &format);
  flags.String("out", &out);
  flags.String("metrics-out", &metrics_out);
  flags.Bool("global", &include_global);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (format != "text" && format != "dot" && format != "json") {
    return flags.UsageError("unknown format '" + format + "'");
  }
  if (variant != "bad" && variant != "good") {
    return flags.UsageError("unknown variant '" + variant + "'");
  }

  MetricsRegistry registry;
  TracerOptions trace_options;
  trace_options.golden = true;  // logical clock: byte-stable output
  trace_options.tag = "explain";
  Tracer tracer(trace_options);
  const Tracer* span_source = nullptr;

  // The system to explain. Either owned by a Database (fig7), loaded
  // from a dump, or built directly (s9 anomalies).
  std::unique_ptr<Database> db;
  std::unique_ptr<TransactionSystem> owned;
  TransactionSystem* ts = nullptr;

  if (!history.empty()) {
    std::string dump;
    Status read = ReadFileOrStdin(history, &dump);
    if (!read.ok()) {
      std::fprintf(stderr, "oodb explain: %s\n", read.message().c_str());
      return 1;
    }
    // Types resolve by name through the global registry; register every
    // schema's types even though no workload ran in this process.
    for (const char* schema :
         {"bank", "containers", "document", "encyclopedia"}) {
      Database scratch;
      RegisterSchema(schema, &scratch);
    }
    auto loaded = HistoryIo::LoadWithGlobalTypes(dump);
    if (!loaded.ok()) {
      std::fprintf(stderr, "oodb explain: load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    owned = std::move(*loaded);
    ts = owned.get();
  } else if (workload == "fig7") {
    db = std::make_unique<Database>();
    db->AttachObservability(&registry, &tracer);
    (void)RunExample4(db.get());
    ts = &db->ts();
    span_source = &tracer;  // span ids are action ids: cross-reference
  } else if (workload == "s9") {
    AnomalyKind kind;
    if (!AnomalyFromName(anomaly, &kind)) {
      return flags.UsageError("unknown anomaly '" + anomaly + "'");
    }
    owned = MakeAnomaly(kind, variant == "bad");
    ts = owned.get();
  } else {
    return flags.UsageError("unknown workload '" + workload + "'");
  }

  ValidationOptions voptions;
  voptions.record_provenance = true;
  voptions.check_global = include_global;
  voptions.metrics = &registry;
  ValidationReport report = Validator::Validate(ts, voptions);

  Explainer explainer(*ts, report, ExplainOptions{}, span_source);
  std::string rendered;
  if (format == "text") {
    rendered = explainer.Text();
  } else if (format == "dot") {
    rendered = explainer.Dot();
  } else {
    rendered = explainer.Json();
  }
  Status st = WriteOut(out, rendered);
  if (st.ok() && !metrics_out.empty()) {
    st = WriteOut(metrics_out, registry.JsonSnapshot() + "\n");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "oodb explain: %s\n", st.message().c_str());
    return 1;
  }
  std::fprintf(stderr, "oodb explain: %s, %zu witnesses (%s)\n",
               report.oo_serializable ? "oo-serializable" : "NOT serializable",
               report.witnesses.size(), format.c_str());
  return 0;
}

}  // namespace oodb::tools
