// Whole-file reads and writes for the command-line tools, with '-'
// standing for stdin / stdout.

#pragma once

#include <string>

#include "util/status.h"

namespace oodb {

/// Reads all of `path` ('-' = stdin) into *out.
Status ReadFileOrStdin(const std::string& path, std::string* out);

/// Writes `content` to `path` ('-' = stdout), replacing the file.
Status WriteOut(const std::string& path, const std::string& content);

}  // namespace oodb
