#include "analysis/diagnostics.h"

#include <algorithm>
#include <tuple>

namespace oodb::analysis {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out = SeverityName(severity);
  out += "[" + pass + "] " + type_name;
  if (!method_a.empty()) {
    out += "." + method_a;
    if (!method_b.empty()) out += "/" + method_b;
  }
  out += ": " + message;
  return out;
}

void SortDiagnostics(std::vector<Diagnostic>* diagnostics) {
  std::stable_sort(
      diagnostics->begin(), diagnostics->end(),
      [](const Diagnostic& a, const Diagnostic& b) {
        return std::tie(a.type_name, a.method_a, a.method_b, a.pass,
                        b.severity, a.message) <
               std::tie(b.type_name, b.method_a, b.method_b, b.pass,
                        a.severity, b.message);
      });
}

}  // namespace oodb::analysis
