// The one JSON string escaper and a minimal JSON reader, shared by every
// emitter (trace, sampler, explain, lint, walinspect, crash reports) and
// every consumer (oodb top, the trace/series schema checks) of the
// repository's JSON formats.

#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace oodb {

/// JSON string-body escaping: quote, backslash, \n, \t, and every other
/// control character as \u00XX. Other bytes (UTF-8 included) pass
/// through.
std::string JsonEscape(std::string_view s);

/// A parsed JSON value. Object members keep their file order, which the
/// renderers that consume parsed documents rely on for deterministic
/// output. Numbers keep their integer part only: the formats read here
/// (traces, sampler series) carry integers.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };
  Type type = Type::kNull;
  bool b = false;
  long long i = 0;           ///< a number, signed
  unsigned long long u = 0;  ///< the same token read as unsigned
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> obj;
  std::vector<JsonValue> arr;

  /// The first member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(std::string_view key) const;
};

/// Parses one JSON document (surrounding whitespace allowed). Returns
/// false on malformed input or trailing bytes.
bool ParseJson(std::string_view text, JsonValue* out);

}  // namespace oodb
