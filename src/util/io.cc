#include "util/io.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace oodb {

Status ReadFileOrStdin(const std::string& path, std::string* out) {
  std::ostringstream buf;
  if (path == "-") {
    buf << std::cin.rdbuf();
  } else {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot open '" + path + "'");
    buf << in.rdbuf();
  }
  *out = buf.str();
  return Status::OK();
}

Status WriteOut(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::fwrite(content.data(), 1, content.size(), stdout);
    return Status::OK();
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot open '" + path + "'");
  out << content;
  out.close();
  if (!out) return Status::Internal("cannot write '" + path + "'");
  return Status::OK();
}

}  // namespace oodb
