// oodb: the operator tool.
//
//   oodb <subcommand> [flags...]
//
// Every subcommand takes `--help`; usage errors exit 2.

#include <cstdio>
#include <cstring>

#include "tools/tools.h"

namespace {

struct Subcommand {
  const char* name;
  int (*main)(int argc, char** argv);
  const char* summary;
};

using namespace oodb::tools;

constexpr Subcommand kSubcommands[] = {
    {"lint", LintMain, "static spec-and-schema analyzer"},
    {"infer", InferMain, "commutativity inference per schema"},
    {"explain", ExplainMain, "validate an execution, explain the verdict"},
    {"trace", TraceMain, "run an instrumented workload, export its trace"},
    {"top", TopMain, "bottleneck inspector over a sampler series"},
    {"walinspect", WalInspectMain, "decode WAL epoch files"},
    {"crash", CrashMain, "crash-recovery harness"},
    {"check-trace", CheckTraceMain, "validate a trace or series schema"},
};

void PrintUsage(std::FILE* out) {
  std::fputs("usage: oodb <subcommand> [flags...]   (oodb <subcommand> "
             "--help for its flags)\n",
             out);
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(out, "  %-12s %s\n", sub.name, sub.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  if (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    PrintUsage(stdout);
    return 0;
  }
  for (const Subcommand& sub : kSubcommands) {
    if (std::strcmp(argv[1], sub.name) == 0) {
      return sub.main(argc - 1, argv + 1);
    }
  }
  std::fprintf(stderr, "oodb: unknown subcommand '%s'\n", argv[1]);
  PrintUsage(stderr);
  return 2;
}
