// oodb walinspect: decode wal.<N> epoch files (see storage/walinspect.h).
//
// Default output is the text record listing; --json renders the machine
// report (records + torn tail + per-kind stats); --stats renders the
// pg_waldump-style per-kind table. Filters compose. --label overrides
// the file name printed in the output (goldens use a stable label so
// the report does not depend on the checkout path).
//
// Output is byte-deterministic for fixed file bytes. Exit status:
// 0 = every file decoded (a torn tail is a report, not an error),
// 2 = usage error or a file that is not a WAL.

#include <cstdio>
#include <string>
#include <vector>

#include "storage/walinspect.h"
#include "tools/tools.h"
#include "util/flags.h"

namespace oodb::tools {

int WalInspectMain(int argc, char** argv) {
  WalInspectOptions options;
  bool json = false, stats = false;
  std::string label;
  std::vector<std::string> files;
  FlagSet flags("oodb walinspect",
                "usage: oodb walinspect [--json] [--stats] [--txn=N]\n"
                "                       [--object=NAME]\n"
                "                       [--kind=begin|op|commit|abort|clr]\n"
                "                       [--from=LSN] [--to=LSN] "
                "[--label=NAME]\n"
                "                       <wal-file>...\n");
  flags.Bool("json", &json);
  flags.Bool("stats", &stats);
  flags.Custom("txn", [&options](const std::string& value) {
    options.has_txn = ParseUnsigned(value, UINT64_MAX, &options.txn);
    return options.has_txn;
  });
  flags.String("object", &options.object);
  flags.String("kind", &options.kind);
  flags.Unsigned("from", &options.from_lsn);
  flags.Unsigned("to", &options.to_lsn);
  flags.String("label", &label);
  flags.Positionals(&files);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (files.empty()) return flags.UsageError("no wal files given");
  for (const std::string& file : files) {
    WalScanResult scan;
    Status st = Wal::ScanDetailed(file, &scan);
    if (!st.ok()) {
      std::fprintf(stderr, "oodb walinspect: %s\n", st.ToString().c_str());
      return 2;
    }
    const std::string& name = label.empty() ? file : label;
    std::string out;
    if (json) {
      out = RenderWalJson(name, scan, options);
    } else if (stats) {
      out = RenderWalStats(name, scan, options);
    } else {
      out = RenderWalText(name, scan, options);
    }
    std::fwrite(out.data(), 1, out.size(), stdout);
  }
  return 0;
}

}  // namespace oodb::tools
