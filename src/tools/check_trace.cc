// oodb check-trace: validate a JSON-lines trace against the span
// schema, or (with --series) a sampler time-series against the series
// schema (both documented in docs/OBSERVABILITY.md). The CI gates
// behind `oodb trace --format=jsonl | oodb check-trace -` and
// `oodb top --live --series-out=F && oodb check-trace --series F`.
//
// Exit codes: 0 = valid, 1 = schema violation, 2 = usage/IO error.

#include <cstdio>
#include <string>
#include <vector>

#include "obs/trace_check.h"
#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"

namespace oodb::tools {

int CheckTraceMain(int argc, char** argv) {
  bool series = false;
  std::vector<std::string> paths;
  FlagSet flags("oodb check-trace",
                "usage: oodb check-trace [--series] FILE  ('-' = stdin)\n");
  flags.Bool("series", &series);
  flags.Positionals(&paths);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (paths.size() != 1) return flags.UsageError("need exactly one FILE");
  std::string content;
  Status read = ReadFileOrStdin(paths[0], &content);
  if (!read.ok()) {
    std::fprintf(stderr, "oodb check-trace: %s\n", read.message().c_str());
    return 2;
  }
  Status st = series ? ValidateSeriesLines(content)
                     : ValidateTraceLines(content);
  if (!st.ok()) {
    std::fprintf(stderr, "oodb check-trace: %s\n", st.ToString().c_str());
    return 1;
  }
  // The "trace_schema_check" prefix is the line CI logs have always
  // carried.
  std::printf("trace_schema_check: OK (%s)\n", series ? "series" : "trace");
  return 0;
}

}  // namespace oodb::tools
