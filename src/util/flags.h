// Command-line flags for the `oodb` tool and the bench mains:
// `--name=value` options, boolean `--name` switches, and positionals.
//
//   FlagSet flags("oodb trace", "usage: oodb trace [options]\n...");
//   flags.String("workload", &opts.workload);
//   flags.Unsigned("threads", &opts.threads);
//   flags.Bool("golden", &opts.golden);
//   int exit_code = 0;
//   if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
//
// `--help` / `-h` prints the usage to stdout (exit 0). An unknown flag,
// a positional nobody collects, a switch given a value, an option given
// none, and a number that is malformed or does not fit its target are
// usage errors: the message and the usage go to stderr (exit 2).

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace oodb {

/// Parses a whole decimal unsigned number no larger than `max`. Rejects
/// empty strings, signs, stray characters and overflow.
bool ParseUnsigned(std::string_view text, uint64_t max, uint64_t* out);

/// Parses a whole decimal signed number inside [min, max].
bool ParseSigned(std::string_view text, int64_t min, int64_t max,
                 int64_t* out);

/// Parses a whole finite floating-point number.
bool ParseDouble(std::string_view text, double* out);

class FlagSet {
 public:
  /// `program` prefixes error messages ("oodb trace: ..."); `usage` is
  /// the full help text, newline-terminated.
  FlagSet(std::string program, std::string usage);

  /// `--name` sets *out to true.
  void Bool(const char* name, bool* out);
  /// `--name=VALUE`, any value (empty included).
  void String(const char* name, std::string* out);
  /// `--name=N`, N >= 0, into an integer of any width it fits.
  template <typename T>
  void Unsigned(const char* name, T* out) {
    static_assert(std::numeric_limits<T>::is_integer);
    Custom(name, [out](const std::string& value) {
      uint64_t v = 0;
      if (!ParseUnsigned(value, uint64_t(std::numeric_limits<T>::max()),
                         &v)) {
        return false;
      }
      *out = static_cast<T>(v);
      return true;
    });
  }
  /// `--name=F`.
  void Double(const char* name, double* out);
  /// `--name=VALUE` handed to `parse`, which returns false when the
  /// value is malformed.
  void Custom(const char* name,
              std::function<bool(const std::string&)> parse);

  /// Collects positionals ('-' included) instead of rejecting them.
  void Positionals(std::vector<std::string>* out);
  /// Passes unknown flags through instead of rejecting them (for mains
  /// that hand the rest of argv to another parser).
  void PassUnknown(std::vector<char*>* out);

  /// Parses argv[1..argc). Returns true to carry on; false means the
  /// caller returns *exit_code (0 after --help, 2 after a usage error).
  bool Parse(int argc, char** argv, int* exit_code);

  /// Reports a usage error found after parsing (message and usage on
  /// stderr) and returns the exit code, 2.
  int UsageError(const std::string& message) const;

 private:
  struct Flag {
    std::string name;
    bool is_bool = false;
    std::function<bool(const std::string&)> parse;
  };

  const Flag* Lookup(std::string_view name) const;

  std::string program_;
  std::string usage_;
  std::vector<Flag> flags_;
  std::vector<std::string>* positionals_ = nullptr;
  std::vector<char*>* pass_unknown_ = nullptr;
};

}  // namespace oodb
