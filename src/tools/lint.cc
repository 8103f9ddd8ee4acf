// oodb lint: static spec-and-schema analyzer.
//
// Schemas: bank, document, encyclopedia (default: all three). Each is
// registered into a fresh Database and audited without running any
// workload. Exit status: 0 clean, 1 warnings, 2 errors.
// --metrics-json writes aggregate lint.errors / lint.warnings /
// lint.notes counters (summed over the audited schemas) as a
// MetricsRegistry snapshot.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "obs/metrics.h"
#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"

namespace oodb::tools {

int LintMain(int argc, char** argv) {
  bool json = false;
  bool notes = false;
  std::string metrics_path;
  std::vector<std::string> schemas;
  FlagSet flags("oodb lint",
                "usage: oodb lint [--json] [--notes] "
                "[--metrics-json=PATH] [schema ...]\n"
                "schemas: bank document encyclopedia (default: all)\n");
  flags.Bool("json", &json);
  flags.Bool("notes", &notes);
  flags.String("metrics-json", &metrics_path);
  flags.Positionals(&schemas);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (schemas.empty()) schemas = {"bank", "document", "encyclopedia"};

  MetricsRegistry metrics;
  std::string json_out = "[";
  for (size_t i = 0; i < schemas.size(); ++i) {
    Database db;
    // "containers" is the inference-only bundle of library types, not
    // an app schema.
    if (schemas[i] == "containers" || !RegisterSchema(schemas[i], &db)) {
      std::fprintf(stderr, "oodb lint: unknown schema '%s'\n",
                   schemas[i].c_str());
      return 2;
    }
    const analysis::AnalysisReport report =
        analysis::AnalyzeSchema(schemas[i], db);
    metrics.GetCounter("lint.errors")->Increment(report.errors());
    metrics.GetCounter("lint.warnings")->Increment(report.warnings());
    metrics.GetCounter("lint.notes")->Increment(report.notes());
    metrics.GetCounter("lint.schemas")->Increment();
    metrics.GetCounter("infer.pairs_probed")
        ->Increment(report.inference.pairs_probed);
    metrics.GetCounter("infer.probe_runs")
        ->Increment(report.inference.probe_runs);
    metrics.GetCounter("infer.entries_tightened")
        ->Increment(report.inference.entries_tightened);
    metrics.GetCounter("infer.entries_unsound")
        ->Increment(report.inference.entries_unsound);
    metrics.GetCounter("infer.probe_ns")
        ->Increment(report.inference.probe_ns);
    if (json) {
      if (i > 0) json_out += ",";
      json_out += analysis::RenderJson(report);
    } else {
      std::fputs(analysis::RenderText(report, notes).c_str(), stdout);
    }
    if (report.errors() > 0) {
      exit_code = 2;
    } else if (report.warnings() > 0 && exit_code == 0) {
      exit_code = 1;
    }
  }
  if (json) {
    json_out += "]\n";
    std::fputs(json_out.c_str(), stdout);
  }
  if (!metrics_path.empty()) {
    Status st = WriteOut(metrics_path, metrics.JsonSnapshot());
    if (!st.ok()) {
      std::fprintf(stderr, "oodb lint: %s\n", st.message().c_str());
      return 2;
    }
  }
  return exit_code;
}

}  // namespace oodb::tools
