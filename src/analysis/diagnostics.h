// Diagnostics: the findings a lint pass emits.
//
// Every pass reports through this one vocabulary so the analyzer can
// merge, sort, and render findings uniformly. Severity decides gating:
// errors and warnings fail the lint (nonzero exit, CI red); notes are
// informational — Def 5 virtual-object sites and semantic commutativity
// beyond read/write classification are properties, not defects.

#pragma once

#include <string>
#include <vector>

namespace oodb::analysis {

enum class Severity {
  kNote,     ///< informational; never gates
  kWarning,  ///< likely defect or lost concurrency; gates
  kError,    ///< soundness violation (asymmetry, unsound entry, ...)
};

/// Stable lowercase name ("note", "warning", "error").
const char* SeverityName(Severity severity);

/// One finding, anchored to a type and (up to) a method pair.
struct Diagnostic {
  Severity severity = Severity::kNote;
  std::string pass;       ///< "spec-soundness", "undo-completeness", ...
  std::string type_name;  ///< the audited object type
  std::string method_a;   ///< first method of the pair ("" if n/a)
  std::string method_b;   ///< second method of the pair ("" if n/a)
  std::string message;

  /// "error[spec-soundness] Page.read/write: ...".
  std::string ToString() const;
};

/// Deterministic report order: (type, method_a, method_b, pass,
/// severity descending, message). Independent of discovery order.
void SortDiagnostics(std::vector<Diagnostic>* diagnostics);

}  // namespace oodb::analysis
