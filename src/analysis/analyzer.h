// The analyzer: runs every lint pass over one schema (a Database's
// registered types, traits, and specs) and folds the findings into a
// single severity-ranked report with text and JSON renderings.
//
// The report is deterministic: types in name order, diagnostics sorted
// by (type, method pair), so two runs over the same schema produce
// byte-identical output — a requirement for CI gating and golden
// output.

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "analysis/diagnostics.h"
#include "analysis/lock_conformance.h"
#include "analysis/spec_synthesis.h"
#include "cc/database.h"

namespace oodb::analysis {

struct AnalyzerOptions {
  /// Per-type reference specs for the lock-conformance pass, keyed by
  /// type name (tests seed divergence here; empty in production).
  std::map<std::string, const CommutativitySpec*> lock_references;
  /// Skip the lock-conformance pass (it spins up a LockManager per
  /// type; value-level-only callers can opt out).
  bool lock_conformance = true;
  /// Run the commutativity-inference pass (pass 6): probe primitive
  /// types with declared TypeProbeTraits, classify the rest over
  /// declared evidence, and compare each inferred matrix against the
  /// shipped spec (see spec_synthesis.h).
  bool inference = true;
  InferenceOptions inference_options;
};

/// Per-type summary: the potential-conflict footprint of the corpus.
struct TypeSummary {
  std::string type_name;
  size_t methods = 0;
  size_t invocations = 0;
  size_t pairs = 0;             ///< unordered invocation pairs probed
  size_t conflicting_pairs = 0;
  size_t commuting_pairs = 0;
};

struct AnalysisReport {
  std::string schema;
  std::vector<TypeSummary> types;        ///< name order
  std::vector<Diagnostic> diagnostics;   ///< sorted, all severities
  CallGraphResult call_graph;
  InferenceStats inference;              ///< aggregated over all types

  size_t CountBySeverity(Severity severity) const;
  size_t errors() const { return CountBySeverity(Severity::kError); }
  size_t warnings() const { return CountBySeverity(Severity::kWarning); }
  size_t notes() const { return CountBySeverity(Severity::kNote); }
  /// Errors and warnings gate; notes do not.
  bool Clean() const { return errors() == 0 && warnings() == 0; }
};

/// Runs all passes over every type registered in `db`.
AnalysisReport AnalyzeSchema(const std::string& schema_name,
                             const Database& db,
                             const AnalyzerOptions& options = {});

/// Human-readable report. Notes are included only when `include_notes`.
std::string RenderText(const AnalysisReport& report, bool include_notes);

/// Machine-readable report (always includes notes).
std::string RenderJson(const AnalysisReport& report);

}  // namespace oodb::analysis
