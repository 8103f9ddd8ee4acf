#include "analysis/analyzer.h"

#include <utility>

#include "analysis/spec_soundness.h"
#include "analysis/undo_completeness.h"
#include "util/json.h"

namespace oodb::analysis {

size_t AnalysisReport::CountBySeverity(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == severity) ++n;
  }
  return n;
}

AnalysisReport AnalyzeSchema(const std::string& schema_name,
                             const Database& db,
                             const AnalyzerOptions& options) {
  AnalysisReport report;
  report.schema = schema_name;
  const MethodRegistry& registry = db.registry();

  for (const ObjectType* type : registry.Types()) {
    const TypeCorpus corpus = BuildTypeCorpus(type, registry);

    TypeSummary summary;
    summary.type_name = type->name();
    summary.methods = corpus.methods.size();
    const std::vector<Invocation> invs = corpus.Invocations();
    summary.invocations = invs.size();
    for (size_t i = 0; i < invs.size(); ++i) {
      for (size_t j = i; j < invs.size(); ++j) {
        ++summary.pairs;
        if (type->Commutes(invs[i], invs[j])) {
          ++summary.commuting_pairs;
        } else {
          ++summary.conflicting_pairs;
        }
      }
    }
    report.types.push_back(std::move(summary));

    auto Take = [&report](std::vector<Diagnostic> found) {
      for (Diagnostic& d : found) {
        report.diagnostics.push_back(std::move(d));
      }
    };
    Take(CheckSpecSoundness(corpus));
    Take(CheckUndoCompleteness(corpus));
    if (options.inference) {
      const InferredMatrix matrix =
          InferType(type, registry, options.inference_options);
      report.inference.Add(matrix);
      Take(CompareWithHand(matrix));
    }
    if (options.lock_conformance) {
      LockConformanceOptions lock_options;
      auto it = options.lock_references.find(type->name());
      if (it != options.lock_references.end()) {
        lock_options.reference = it->second;
      }
      Take(CheckLockConformance(corpus, lock_options));
    }
  }

  report.call_graph = AnalyzeCallGraph(registry);
  for (const Diagnostic& d : report.call_graph.diagnostics) {
    report.diagnostics.push_back(d);
  }
  SortDiagnostics(&report.diagnostics);
  return report;
}

std::string RenderText(const AnalysisReport& report, bool include_notes) {
  std::string out = "== oodb_lint: schema '" + report.schema + "' ==\n";
  for (const TypeSummary& t : report.types) {
    out += "  type " + t.type_name + ": " +
           std::to_string(t.methods) + " methods, " +
           std::to_string(t.invocations) + " probe invocations, " +
           std::to_string(t.conflicting_pairs) + "/" +
           std::to_string(t.pairs) + " pairs conflict\n";
  }
  size_t shown = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Severity::kNote && !include_notes) continue;
    out += "  " + d.ToString() + "\n";
    ++shown;
  }
  out += "  " + std::to_string(report.errors()) + " error(s), " +
         std::to_string(report.warnings()) + " warning(s), " +
         std::to_string(report.notes()) + " note(s)";
  if (!include_notes && shown < report.diagnostics.size()) {
    out += " (notes hidden; --notes shows them)";
  }
  out += "\n";
  return out;
}

std::string RenderJson(const AnalysisReport& report) {
  std::string out = "{\"schema\":\"" + JsonEscape(report.schema) + "\",";
  out += "\"types\":[";
  for (size_t i = 0; i < report.types.size(); ++i) {
    const TypeSummary& t = report.types[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + JsonEscape(t.type_name) + "\"," +
           "\"methods\":" + std::to_string(t.methods) + "," +
           "\"invocations\":" + std::to_string(t.invocations) + "," +
           "\"pairs\":" + std::to_string(t.pairs) + "," +
           "\"conflicting_pairs\":" + std::to_string(t.conflicting_pairs) +
           "," +
           "\"commuting_pairs\":" + std::to_string(t.commuting_pairs) + "}";
  }
  out += "],\"call_graph\":[";
  for (size_t i = 0; i < report.call_graph.nodes.size(); ++i) {
    const CallGraphNode& n = report.call_graph.nodes[i];
    if (i > 0) out += ",";
    out += "{\"type\":\"" + JsonEscape(n.type_name) + "\"," +
           "\"method\":\"" + JsonEscape(n.method) + "\",\"calls\":[";
    for (size_t j = 0; j < n.calls.size(); ++j) {
      if (j > 0) out += ",";
      out += "{\"type\":\"" + JsonEscape(n.calls[j].type) +
             "\",\"method\":\"" + JsonEscape(n.calls[j].method) + "\"}";
    }
    out += "],\"def5_site\":";
    out += n.def5_site ? "true" : "false";
    if (n.def5_site) {
      out += ",\"def5_path\":\"" + JsonEscape(n.def5_path) + "\"";
    }
    out += "}";
  }
  out += "],\"diagnostics\":[";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    if (i > 0) out += ",";
    out += std::string("{\"severity\":\"") + SeverityName(d.severity) +
           "\",\"pass\":\"" + JsonEscape(d.pass) + "\"," +
           "\"type\":\"" + JsonEscape(d.type_name) + "\"," +
           "\"method_a\":\"" + JsonEscape(d.method_a) + "\"," +
           "\"method_b\":\"" + JsonEscape(d.method_b) + "\"," +
           "\"message\":\"" + JsonEscape(d.message) + "\"}";
  }
  out += "],\"errors\":" + std::to_string(report.errors()) +
         ",\"warnings\":" + std::to_string(report.warnings()) +
         ",\"notes\":" + std::to_string(report.notes()) + "}";
  return out;
}

}  // namespace oodb::analysis
