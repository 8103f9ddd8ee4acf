#include "analysis/spec_synthesis.h"

#include <utility>

#include "util/json.h"

namespace oodb::analysis {

namespace {

/// "different-param(0)" / "same-param(1)" / bare kind name.
std::string KindLabel(const MethodPairEntry& e) {
  std::string label = EntryKindName(e.kind);
  switch (e.kind) {
    case EntryKind::kDifferentParam:
    case EntryKind::kSameParam:
    case EntryKind::kDifferentParamOrIdentical:
      label += "(" + std::to_string(e.param_index) + ")";
      break;
    default:
      break;
  }
  return label;
}

/// Type name reduced to a C++ identifier fragment ("EscrowAccount").
std::string Identifier(const std::string& name) {
  std::string out;
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      out += c;
    }
  }
  return out.empty() ? "Type" : out;
}

}  // namespace

SynthesizedSpec::SynthesizedSpec(InferredMatrix matrix)
    : matrix_(std::move(matrix)) {}

bool SynthesizedSpec::Commutes(const Invocation& a,
                               const Invocation& b) const {
  return matrix_.Commutes(a, b);
}

void InferenceStats::Add(const InferredMatrix& matrix) {
  ++types;
  if (matrix.probed) ++types_probed;
  pairs_probed += matrix.pairs_probed;
  probe_runs += matrix.probe_runs;
  vacuous_runs += matrix.vacuous_runs;
  entries_tightened += matrix.gained_pairs();
  entries_unsound += matrix.unsound_pairs();
  probe_ns += matrix.probe_ns;
}

std::vector<Diagnostic> CompareWithHand(const InferredMatrix& matrix) {
  std::vector<Diagnostic> out;
  auto make = [&matrix](Severity severity, const std::string& a,
                        const std::string& b, std::string message) {
    Diagnostic d;
    d.severity = severity;
    d.pass = "inference";
    d.type_name = matrix.type_name;
    d.method_a = a;
    d.method_b = b;
    d.message = std::move(message);
    return d;
  };

  for (const ObserverViolation& v : matrix.observer_violations) {
    out.push_back(make(
        Severity::kError, v.method, "",
        "declared observer mutated probe state '" + v.state_class + "'"));
  }
  for (const MethodPairEntry& e : matrix.entries) {
    if (e.unsound > 0) {
      out.push_back(make(
          Severity::kError, e.method_a, e.method_b,
          "hand spec commutes but both-orders probing diverged on " +
              std::to_string(e.unsound) + " combination(s); " +
              e.unsound_witness));
    }
    if (e.gained > 0) {
      out.push_back(make(
          Severity::kNote, e.method_a, e.method_b,
          "hand spec conflicts on " + std::to_string(e.gained) +
              " combination(s) the inference proves commute (" +
              KindLabel(e) + ") — lost concurrency"));
    }
  }
  if (!matrix.probed && matrix.type != nullptr && matrix.type->primitive()) {
    out.push_back(make(
        Severity::kNote, "", "",
        "primitive type declares no probe traits; inference fell back to "
        "declared evidence"));
  }
  return out;
}

std::string RenderInferredText(const InferredMatrix& matrix) {
  std::string out = "type " + matrix.type_name;
  if (matrix.probed) {
    out += " [probed]: " + std::to_string(matrix.pairs_probed) +
           " invocation pairs, " + std::to_string(matrix.probe_runs) +
           " runs, " + std::to_string(matrix.vacuous_runs) + " vacuous";
  } else {
    out += " [declared]";
  }
  out += "\n";
  for (const MethodPairEntry& e : matrix.entries) {
    out += "  " + e.method_a + "/" + e.method_b + ": " + KindLabel(e);
    if (e.source == EntrySource::kObserver) out += " [deep-observer]";
    if (e.gained > 0) {
      out += " (gained " + std::to_string(e.gained) + ")";
    }
    if (e.unsound > 0) {
      out += " !! unsound on " + std::to_string(e.unsound) +
             " combination(s): " + e.unsound_witness;
    }
    out += "\n";
  }
  for (const ObserverViolation& v : matrix.observer_violations) {
    out += "  !! observer '" + v.method + "' mutated state '" +
           v.state_class + "'\n";
  }
  return out;
}

std::string RenderInferredJson(const InferredMatrix& matrix) {
  std::string out = "{\"type\":\"" + JsonEscape(matrix.type_name) + "\",";
  out += "\"probed\":";
  out += matrix.probed ? "true" : "false";
  out += ",\"entries\":[";
  for (size_t i = 0; i < matrix.entries.size(); ++i) {
    const MethodPairEntry& e = matrix.entries[i];
    if (i > 0) out += ",";
    out += "{\"method_a\":\"" + JsonEscape(e.method_a) + "\"," +
           "\"method_b\":\"" + JsonEscape(e.method_b) + "\"," +
           "\"kind\":\"" + EntryKindName(e.kind) + "\",";
    switch (e.kind) {
      case EntryKind::kDifferentParam:
      case EntryKind::kSameParam:
      case EntryKind::kDifferentParamOrIdentical:
        out += "\"param_index\":" + std::to_string(e.param_index) + ",";
        break;
      default:
        break;
    }
    out += std::string("\"source\":\"") +
           (e.source == EntrySource::kProbed
                ? "probed"
                : e.source == EntrySource::kObserver ? "observer"
                                                     : "declared") +
           "\",";
    out += "\"gained\":" + std::to_string(e.gained) + ",";
    out += "\"unsound\":" + std::to_string(e.unsound);
    if (e.unsound > 0) {
      out += ",\"witness\":\"" + JsonEscape(e.unsound_witness) + "\"";
    }
    out += "}";
  }
  out += "],\"observer_violations\":[";
  for (size_t i = 0; i < matrix.observer_violations.size(); ++i) {
    const ObserverViolation& v = matrix.observer_violations[i];
    if (i > 0) out += ",";
    out += "{\"method\":\"" + JsonEscape(v.method) + "\"," +
           "\"state\":\"" + JsonEscape(v.state_class) + "\"}";
  }
  out += "],\"pairs_probed\":" + std::to_string(matrix.pairs_probed) +
         ",\"probe_runs\":" + std::to_string(matrix.probe_runs) +
         ",\"vacuous_runs\":" + std::to_string(matrix.vacuous_runs) +
         ",\"probe_ns\":" + std::to_string(matrix.probe_ns) + "}";
  return out;
}

std::string RenderInferredCpp(const InferredMatrix& matrix) {
  const std::string ident = Identifier(matrix.type_name);
  std::string out =
      "// Inferred commutativity for " + matrix.type_name +
      " — generated by oodb_infer.\n"
      "std::unique_ptr<oodb::CommutativitySpec> MakeInferred" + ident +
      "Spec() {\n"
      "  auto spec = std::make_unique<oodb::PredicateCommutativity>();\n";
  for (const MethodPairEntry& e : matrix.entries) {
    const std::string pair =
        "\"" + e.method_a + "\", \"" + e.method_b + "\"";
    switch (e.kind) {
      case EntryKind::kCommutes:
        out += "  spec->SetCommutes(" + pair + ");\n";
        break;
      case EntryKind::kConflicts:
        out += "  spec->SetConflicts(" + pair + ");\n";
        break;
      case EntryKind::kDifferentParam:
        out += "  spec->SetPredicate(" + pair +
               ", oodb::PredicateCommutativity::DifferentParam(" +
               std::to_string(e.param_index) + "));\n";
        break;
      case EntryKind::kSameParam:
        out += "  spec->SetPredicate(" + pair +
               ", oodb::PredicateCommutativity::SameParam(" +
               std::to_string(e.param_index) + "));\n";
        break;
      case EntryKind::kDifferentParamOrIdentical:
        out += "  spec->SetPredicate(" + pair +
               ", oodb::PredicateCommutativity::DifferentParamOrIdentical(" +
               std::to_string(e.param_index) + "));\n";
        break;
      case EntryKind::kEvidence:
        out += "  // " + e.method_a + "/" + e.method_b +
               ": no closed shape fits the evidence; conservative here "
               "(see oodb_infer --json for the witnessed table).\n";
        out += "  spec->SetConflicts(" + pair + ");\n";
        break;
      case EntryKind::kDelegate:
        out += "  // " + e.method_a + "/" + e.method_b +
               ": not probed — keep the audited hand-spec entry.\n";
        break;
    }
  }
  out += "  return spec;\n}\n";
  return out;
}

}  // namespace oodb::analysis
