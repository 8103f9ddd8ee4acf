// Explainer: renders a validation verdict as an explanation.
//
// A ValidationReport says *whether* an execution is oo-serializable; the
// explainer says *why not* (or why), in three deterministic formats:
//   * Text — the witness cycles with every edge expanded down its
//     provenance chain to the Axiom 1 primitive conflict, then the
//     Def 6 relations per object, the Def 15 added relations, the
//     Def 16 union graph, and the serialization order;
//   * DOT  — the same graphs for Graphviz, witness edges highlighted
//     (red, thick), virtual Def 5 nodes double-bordered, transaction
//     dependencies bold and added dependencies dashed;
//   * JSON — the machine-readable form (schema in
//     docs/OBSERVABILITY.md): an action table plus witnesses,
//     relations, and the union as id pairs.
//
// Determinism contract: identical (system, report, tracer) inputs
// produce byte-identical output. Objects render in id order, nodes in
// relation insertion order, successors sorted ascending — no hash-map
// iteration anywhere. The validator itself records provenance
// deterministically, so its reports are safe to golden-test.
//
// The relations and union sections need ValidationOptions::
// record_provenance (which keeps the schedules on the report); without
// it the explainer still renders the verdict and every witness, just
// with bare cycles instead of derivation chains.
//
// A Tracer whose span ids line up with action ids (obs/trace.h records
// exactly that) lets the explainer cross-reference witnesses to trace
// spans: actions that have a span are marked, so a cycle can be chased
// into the timeline view.

#pragma once

#include <string>
#include <unordered_set>

#include "model/transaction_system.h"
#include "schedule/validator.h"

namespace oodb {

class Tracer;

struct ExplainOptions {
  /// Render the per-object Def 6 relations (and Def 15 added
  /// relations). Needs report.schedules.
  bool include_relations = true;
  /// Render the Def 16 union graph (action ∪ added dependencies across
  /// all objects). Needs report.schedules.
  bool include_union = true;
};

class Explainer {
 public:
  /// `ts` must be the system the report was computed from, after the
  /// Def 5 extension (Validate extends in place, so passing the same
  /// system is the natural call). All referenced objects must outlive
  /// the explainer.
  Explainer(const TransactionSystem& ts, const ValidationReport& report,
            ExplainOptions options = {}, const Tracer* tracer = nullptr);

  std::string Text() const;
  std::string Dot() const;
  std::string Json() const;

 private:
  /// Object name, with "(virtual of X, Def 5)" appended for Def 5
  /// duplicates; "(global)" for the invalid id of global witnesses.
  std::string ObjName(ObjectId o) const;
  /// Human label of an action ("Object.method(params) [T1.2]").
  std::string Label(ActionId a) const;
  bool HasSpan(ActionId a) const { return span_ids_.count(a.value) != 0; }

  void TextWitness(const Witness& w, size_t index, std::string* out) const;
  void TextStep(const ProvenanceStep& step, std::string* out) const;

  const TransactionSystem& ts_;
  const ValidationReport& report_;
  ExplainOptions options_;
  std::unordered_set<uint64_t> span_ids_;
};

}  // namespace oodb
