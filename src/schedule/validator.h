// Validator: the end-to-end oo-serializability check for a recorded
// execution (Defs 13 and 16), with the conventional baseline and the
// Def 7 conformance check alongside.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/extension.h"
#include "model/transaction_system.h"
#include "schedule/conventional.h"
#include "schedule/dependency_engine.h"

namespace oodb {

/// Options controlling a validation run.
struct ValidationOptions {
  /// Apply the Def 5 extension before computing dependencies. Required
  /// whenever a transaction and a called action access the same object
  /// (e.g. B-link rearrangement). Leave on unless the caller extended
  /// the system already.
  bool apply_extension = true;

  /// Check Def 7 conformance: the execution order of primitive actions
  /// must respect the (inherited) intra-transaction precedence relation.
  bool check_conformance = true;

  /// Additionally require global acyclicity of the union of all
  /// dependency relations across objects. This is strictly stronger than
  /// the paper's distributed condition (Def 16 checks each object's
  /// relation separately, which cannot see cycles threading through
  /// three or more objects); see EXPERIMENTS.md for the discussion.
  bool check_global = false;

  /// When set, the run publishes into the registry: the engine's dep.*
  /// family (stage timings, final stats), the ext.* extension gauges,
  /// the validate.* verdict gauges (1 = holds), and the explain.*
  /// witness family (witness count and lengths, provenance edges,
  /// extraction time).
  MetricsRegistry* metrics = nullptr;
  /// When set, the Def 5 extension records its "extension.split"
  /// instants here.
  Tracer* tracer = nullptr;

  /// Record edge provenance during the dependency computation and keep
  /// the computed schedules on the report, so every witness edge can be
  /// expanded down to its primitive conflict (obs/explain.h renders
  /// them). Off by default: the hot path then pays one null test per
  /// derived edge and the report carries no relations.
  bool record_provenance = false;
};

/// Everything a validation run learned about one execution.
struct ValidationReport {
  /// Def 16 verdict (per-object Def 13 + added-dependency acyclicity).
  bool oo_serializable = false;
  /// Conventional conflict serializability of the primitive layer.
  bool conventionally_serializable = false;
  /// Def 7 conformance.
  bool conform = true;
  /// Verdict of the optional strictly-global acyclicity check.
  bool globally_acyclic = true;

  DependencyStats stats;
  ConventionalResult conventional;
  ExtensionStats extension;

  /// Object names that failed Def 13 (i) / (ii) or Def 16 (ii), with the
  /// offending cycle rendered, plus conformance violations. Cycles are
  /// minimal (BFS shortest) and byte-stable across runs.
  std::vector<std::string> diagnostics;

  /// One witness per failed Def 13 / Def 16 / Def 7 verdict: the
  /// shortest offending cycle (or violating pair), with each edge's
  /// derivation chain attached when `record_provenance` was on.
  std::vector<Witness> witnesses;

  /// The recorded edge provenance; null unless
  /// ValidationOptions::record_provenance was set.
  std::shared_ptr<const ProvenanceStore> provenance;

  /// The computed object schedules (Def 6 relations, Def 15 added
  /// relations); kept only when `record_provenance` was set, so the
  /// explainer can render and cross-reference them.
  std::vector<ObjectSchedule> schedules;

  /// One serial order of the top-level transactions equivalent to the
  /// execution (empty when not oo-serializable).
  std::vector<ActionId> serialization_order;

  std::string Summary() const;
};

/// Runs the full pipeline: extension (Def 5) -> dependency fixpoint
/// (Defs 10/11/15) -> per-object checks (Def 13) -> system check
/// (Def 16) -> baseline and conformance.
class Validator {
 public:
  /// Validates in place; `ts` is mutated by the extension step.
  static ValidationReport Validate(TransactionSystem* ts,
                                   const ValidationOptions& options = {});
};

}  // namespace oodb
