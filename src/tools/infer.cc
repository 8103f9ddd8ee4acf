// oodb infer: commutativity-inference driver.
//
// Schemas: bank, document, encyclopedia, containers (default: all
// four; "containers" registers the queue, directory, escrow-account,
// page, B+-tree, and hash-index modules into one database). For each
// registered type the inference engine synthesizes the tightest matrix
// its evidence supports (see commutativity_inference.h) and renders it
// as text (byte-stable, CI-diffable against tests/golden/infer_*.txt),
// JSON (--json, with probe counters and timings), or a compilable C++
// table (--cpp). --diff restricts the text to entries that disagree
// with the shipped spec. Exit status: 0 sound, 2 when probing refuted a
// hand entry or an observer mutated a probe state.

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/commutativity_inference.h"
#include "analysis/spec_synthesis.h"
#include "obs/metrics.h"
#include "tools/tools.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/json.h"

namespace oodb::tools {

namespace {

using analysis::InferredMatrix;
using analysis::MethodPairEntry;

/// --diff: only the entries that disagree with the shipped spec.
std::string RenderDiff(const InferredMatrix& matrix) {
  std::string out;
  for (const MethodPairEntry& e : matrix.entries) {
    if (e.gained == 0 && e.unsound == 0) continue;
    if (out.empty()) out = "type " + matrix.type_name + "\n";
    out += "  " + e.method_a + "/" + e.method_b + ": ";
    if (e.unsound > 0) {
      out += "UNSOUND hand entry (" + std::to_string(e.unsound) +
             " refuted combination(s)): " + e.unsound_witness + "\n";
    } else {
      out += "hand spec loses " + std::to_string(e.gained) +
             " commuting combination(s)\n";
    }
  }
  for (const auto& v : matrix.observer_violations) {
    if (out.empty()) out = "type " + matrix.type_name + "\n";
    out += "  observer '" + v.method + "' mutated state '" + v.state_class +
           "'\n";
  }
  return out;
}

}  // namespace

int InferMain(int argc, char** argv) {
  bool json = false;
  bool cpp = false;
  bool diff = false;
  std::string metrics_path;
  std::vector<std::string> schemas;
  FlagSet flags("oodb infer",
                "usage: oodb infer [--json|--cpp] [--diff] "
                "[--metrics-json=PATH] [schema ...]\n"
                "schemas: bank document encyclopedia containers "
                "(default: all)\n");
  flags.Bool("json", &json);
  flags.Bool("cpp", &cpp);
  flags.Bool("diff", &diff);
  flags.String("metrics-json", &metrics_path);
  flags.Positionals(&schemas);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (schemas.empty()) {
    schemas = {"bank", "containers", "document", "encyclopedia"};
  }

  analysis::InferenceStats stats;
  std::string json_out = "[";
  for (size_t s = 0; s < schemas.size(); ++s) {
    Database db;
    if (!RegisterSchema(schemas[s], &db)) {
      std::fprintf(stderr, "oodb infer: unknown schema '%s'\n",
                   schemas[s].c_str());
      return 2;
    }
    if (json) {
      if (s > 0) json_out += ",";
      json_out += "{\"schema\":\"" + JsonEscape(schemas[s]) +
                  "\",\"types\":[";
    } else {
      // The "oodb_infer" banner is part of the checked-in goldens.
      std::printf("== oodb_infer: schema '%s' ==\n", schemas[s].c_str());
    }
    bool first_type = true;
    for (const ObjectType* type : db.registry().Types()) {
      const InferredMatrix matrix = analysis::InferType(type, db.registry());
      stats.Add(matrix);
      if (matrix.unsound_pairs() > 0 ||
          !matrix.observer_violations.empty()) {
        exit_code = 2;
      }
      if (json) {
        if (!first_type) json_out += ",";
        json_out += analysis::RenderInferredJson(matrix);
      } else if (cpp) {
        std::fputs(analysis::RenderInferredCpp(matrix).c_str(), stdout);
      } else if (diff) {
        std::fputs(RenderDiff(matrix).c_str(), stdout);
      } else {
        std::fputs(analysis::RenderInferredText(matrix).c_str(), stdout);
      }
      first_type = false;
    }
    if (json) json_out += "]}";
  }
  if (json) {
    json_out += "]\n";
    std::fputs(json_out.c_str(), stdout);
  }
  if (!metrics_path.empty()) {
    MetricsRegistry metrics;
    metrics.GetCounter("infer.types")->Increment(stats.types);
    metrics.GetCounter("infer.types_probed")->Increment(stats.types_probed);
    metrics.GetCounter("infer.pairs_probed")->Increment(stats.pairs_probed);
    metrics.GetCounter("infer.probe_runs")->Increment(stats.probe_runs);
    metrics.GetCounter("infer.vacuous_runs")->Increment(stats.vacuous_runs);
    metrics.GetCounter("infer.entries_tightened")
        ->Increment(stats.entries_tightened);
    metrics.GetCounter("infer.entries_unsound")
        ->Increment(stats.entries_unsound);
    metrics.GetCounter("infer.probe_ns")->Increment(stats.probe_ns);
    Status st = WriteOut(metrics_path, metrics.JsonSnapshot());
    if (!st.ok()) {
      std::fprintf(stderr, "oodb infer: %s\n", st.message().c_str());
      return 2;
    }
  }
  return exit_code;
}

}  // namespace oodb::tools
