#include "util/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace oodb {

bool ParseUnsigned(std::string_view text, uint64_t max, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = uint64_t(c - '0');
    if (v > max / 10 || digit > max - v * 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool ParseSigned(std::string_view text, int64_t min, int64_t max,
                 int64_t* out) {
  const bool negative = !text.empty() && text[0] == '-';
  if (negative && min >= 0) return false;
  if (negative) text.remove_prefix(1);
  // The magnitude bound of the side the sign picks.
  const uint64_t limit =
      negative ? uint64_t(0) - uint64_t(min) : uint64_t(max);
  uint64_t magnitude = 0;
  if (!ParseUnsigned(text, limit, &magnitude)) return false;
  *out = negative ? int64_t(uint64_t(0) - magnitude) : int64_t(magnitude);
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

FlagSet::FlagSet(std::string program, std::string usage)
    : program_(std::move(program)), usage_(std::move(usage)) {}

void FlagSet::Bool(const char* name, bool* out) {
  flags_.push_back(Flag{name, true, [out](const std::string&) {
                          *out = true;
                          return true;
                        }});
}

void FlagSet::String(const char* name, std::string* out) {
  Custom(name, [out](const std::string& value) {
    *out = value;
    return true;
  });
}

void FlagSet::Double(const char* name, double* out) {
  Custom(name,
         [out](const std::string& value) { return ParseDouble(value, out); });
}

void FlagSet::Custom(const char* name,
                     std::function<bool(const std::string&)> parse) {
  flags_.push_back(Flag{name, false, std::move(parse)});
}

void FlagSet::Positionals(std::vector<std::string>* out) {
  positionals_ = out;
}

void FlagSet::PassUnknown(std::vector<char*>* out) { pass_unknown_ = out; }

const FlagSet::Flag* FlagSet::Lookup(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

bool FlagSet::Parse(int argc, char** argv, int* exit_code) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage_.c_str(), stdout);
      *exit_code = 0;
      return false;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (positionals_ == nullptr) {
        *exit_code = UsageError("unexpected argument '" + arg + "'");
        return false;
      }
      positionals_->push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name =
        arg.rfind("--", 0) == 0
            ? std::string_view(arg).substr(2, eq == std::string::npos
                                                  ? std::string::npos
                                                  : eq - 2)
            : std::string_view();
    const Flag* flag = name.empty() ? nullptr : Lookup(name);
    if (flag == nullptr) {
      if (pass_unknown_ != nullptr) {
        pass_unknown_->push_back(argv[i]);
        continue;
      }
      *exit_code = UsageError("unknown flag '" + arg + "'");
      return false;
    }
    if (flag->is_bool != (eq == std::string::npos)) {
      *exit_code = UsageError(
          flag->is_bool ? "--" + flag->name + " takes no value"
                        : "--" + flag->name + " needs a value (--" +
                              flag->name + "=...)");
      return false;
    }
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (!flag->parse(value)) {
      *exit_code = UsageError("invalid value '" + value + "' for --" +
                              flag->name);
      return false;
    }
  }
  return true;
}

int FlagSet::UsageError(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
               usage_.c_str());
  return 2;
}

}  // namespace oodb
