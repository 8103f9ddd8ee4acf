// Automatic commutativity inference: synthesize the tightest sound
// conflict matrix per type (ROADMAP item 4).
//
// The paper assumes "a commutativity matrix for every object for all
// their actions" but leaves writing it to an expert. Malta & Martinez
// ("Automating Fine Concurrency Control in Object-Oriented Databases",
// "Limits of Commutativity on Abstract Data Types") show the relation
// can be derived from method semantics. This engine does so from three
// evidence sources:
//
//   1. State probing (primitive types with declared TypeProbeTraits):
//      for every unordered invocation pair, execute the two method
//      bodies in both orders from every declared state class and
//      compare per-invocation return values, status codes, and the
//      final abstract-state fingerprint — Def 9's "effect and results
//      independent of execution order", decided experimentally.
//   2. Return-value / argument classification: the per-pair outcomes
//      are fitted to closed predicate shapes (always, never, parameter
//      i differs, parameter i equal, differs-or-identical), so keyed
//      and escrow-style entries come out as conditional predicates
//      rather than flat booleans. An order flip that fails with
//      StatusCode::kConflict is the escrow admissibility test refusing
//      the action: the action never enters a history from that state,
//      so the probe is vacuous rather than a divergence (the paper's
//      escrow method "includes parameter values and the status of
//      accessed objects in the commutativity definition").
//   3. Declared evidence (composite types, which cannot be probed
//      against a bare state because their methods call other objects):
//      the audited hand spec, tightened by the deep-observer rule —
//      two methods that transitively only observe always commute.
//
// Soundness is relative to the probe corpus and the declared state
// classes (exact commutativity is undecidable in general — "Limits of
// Commutativity"); a predicate shape is only accepted when it
// reproduces every probed outcome and is exercised on both sides, and
// pairs no shape explains fall back to the exact evidence table
// (commute only for combinations witnessed equivalent in every state).

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/corpus.h"

namespace oodb::analysis {

struct InferenceOptions {
  /// Treat an order flip that fails with StatusCode::kConflict as "not
  /// admitted" (escrow semantics): the probe yields no evidence instead
  /// of a divergence. Disable to demand strict forward commutativity.
  bool conflict_means_unadmitted = true;

  /// When nonzero, at most this many parameter lists per method enter
  /// the probe corpus (monotonicity tests shrink the corpus this way).
  size_t max_params_per_method = 0;
};

/// Aggregated probe outcomes of one unordered invocation pair.
struct PairEvidence {
  Invocation a, b;
  size_t equivalent = 0;  ///< states where both orders agreed
  size_t divergent = 0;   ///< states where order was observable
  size_t vacuous = 0;     ///< states where an order was not admitted
  std::string witness;    ///< first divergence, for diagnostics

  /// Sound to commute: never diverged, and at least one state produced
  /// real (non-vacuous) agreement.
  bool Commutes() const { return divergent == 0 && equivalent > 0; }
};

/// The closed shape fitted to one method pair's evidence.
enum class EntryKind {
  kCommutes,                  ///< every combination equivalent
  kConflicts,                 ///< no combination equivalent
  kDifferentParam,            ///< commute iff params[i] differ
  kSameParam,                 ///< commute iff params[i] equal
  kDifferentParamOrIdentical, ///< differ at i, or identical invocations
  kEvidence,                  ///< no shape fits: exact witnessed table
  kDelegate,                  ///< not probed: the audited hand spec
};

const char* EntryKindName(EntryKind kind);

/// Where an entry's verdict came from.
enum class EntrySource {
  kProbed,    ///< state probing
  kObserver,  ///< deep-observer rule
  kDeclared,  ///< the hand spec (composite types)
};

/// One inferred matrix entry (unordered method pair, method_a <=
/// method_b). `Commutes` answers for the synthesized spec.
struct MethodPairEntry {
  std::string method_a, method_b;
  EntryKind kind = EntryKind::kConflicts;
  size_t param_index = 0;  ///< for the parameter-shaped kinds
  EntrySource source = EntrySource::kDeclared;
  std::vector<PairEvidence> evidence;  ///< deterministic order

  /// Invocation pairs the hand spec conflicts but the inference
  /// commutes (lost concurrency), and pairs the hand spec commutes but
  /// probing refutes (unsoundness).
  size_t gained = 0;
  size_t unsound = 0;
  std::string unsound_witness;

  /// The entry's answer for (x, y); symmetric. kDelegate entries answer
  /// via the hand spec (the caller passes it down from the type).
  bool Commutes(const Invocation& x, const Invocation& y) const;
};

/// An observer-flagged method whose probe run mutated the state.
struct ObserverViolation {
  std::string method;
  std::string state_class;
};

/// The complete inference result for one type.
struct InferredMatrix {
  const ObjectType* type = nullptr;
  std::string type_name;
  bool probed = false;  ///< probe traits were declared and usable
  std::vector<MethodPairEntry> entries;  ///< (method_a, method_b) order
  std::vector<ObserverViolation> observer_violations;

  size_t pairs_probed = 0;   ///< unordered invocation pairs probed
  size_t probe_runs = 0;     ///< method-sequence executions
  size_t vacuous_runs = 0;   ///< state/pair probes with no evidence
  uint64_t probe_ns = 0;     ///< wall time spent probing

  size_t gained_pairs() const;   ///< entries with gained > 0
  size_t unsound_pairs() const;  ///< entries with unsound > 0

  const MethodPairEntry* Entry(const std::string& a,
                               const std::string& b) const;

  /// The inferred answer for (x, y): the entry's answer, or the hand
  /// spec for kDelegate entries, or conflict when no entry exists.
  bool Commutes(const Invocation& x, const Invocation& y) const;
};

/// (type name, method) -> transitively-observing, computed over the
/// registry's declared traits: observer methods all of whose declared
/// call targets are themselves deep observers.
std::map<std::pair<std::string, std::string>, bool> DeepObservers(
    const MethodRegistry& registry);

/// Infers the matrix for one type. Probes when the registry declares
/// TypeProbeTraits and the type is primitive; otherwise classifies the
/// declared spec over the corpus and applies the deep-observer rule.
InferredMatrix InferType(const ObjectType* type,
                         const MethodRegistry& registry,
                         const InferenceOptions& options = {});

}  // namespace oodb::analysis
