// The `oodb` operator tool: one binary, one subcommand per file here.
// Each entry point takes the subcommand's own argv (argv[0] is the
// subcommand name) and returns the process exit status.

#pragma once

#include <string>

#include "cc/database.h"

namespace oodb::tools {

int LintMain(int argc, char** argv);
int InferMain(int argc, char** argv);
int ExplainMain(int argc, char** argv);
int TraceMain(int argc, char** argv);
int TopMain(int argc, char** argv);
int WalInspectMain(int argc, char** argv);
int CrashMain(int argc, char** argv);
int CheckTraceMain(int argc, char** argv);

/// Registers the types of schema `name` — "bank", "document",
/// "encyclopedia", or "containers" (queue, directory, escrow accounts,
/// page, B+-tree, hash index) — into `db`. False for an unknown name.
bool RegisterSchema(const std::string& name, Database* db);

}  // namespace oodb::tools
