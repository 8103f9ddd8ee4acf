// Spec synthesis: everything that turns an InferredMatrix (see
// commutativity_inference.h) into usable artifacts —
//
//   * SynthesizedSpec: a loadable CommutativitySpec, installed next to
//     the hand spec via TransactionSystem::SetSpecOverride so the s2/s6
//     benches and the equivalence tests can validate one recorded run
//     under both matrices;
//   * CompareWithHand: lint pass 6 ("inference") — a hand entry looser
//     than probing supports is an unsoundness error, a hand entry
//     tighter than the inference proves necessary is a lost-concurrency
//     note;
//   * renderers: deterministic text (golden-diffable: no timings), JSON
//     (with probe counters and timings), and a compilable C++ table for
//     pasting back into a schema.

#pragma once

#include <string>
#include <vector>

#include "analysis/commutativity_inference.h"
#include "analysis/diagnostics.h"
#include "model/commutativity.h"

namespace oodb::analysis {

/// The inferred matrix as a CommutativitySpec. Probed entries answer
/// from their fitted shape (or the exact evidence table); kDelegate
/// entries answer from the type's hand spec; unknown methods conflict.
class SynthesizedSpec : public CommutativitySpec {
 public:
  explicit SynthesizedSpec(InferredMatrix matrix);

  bool Commutes(const Invocation& a, const Invocation& b) const override;

  const InferredMatrix& matrix() const { return matrix_; }

 private:
  InferredMatrix matrix_;
};

/// Aggregated inference counters, published as infer.* metrics by
/// `oodb lint` and `oodb infer` (--metrics-json).
struct InferenceStats {
  size_t types = 0;
  size_t types_probed = 0;
  size_t pairs_probed = 0;
  size_t probe_runs = 0;
  size_t vacuous_runs = 0;
  size_t entries_tightened = 0;  ///< entries with gained combinations
  size_t entries_unsound = 0;    ///< entries probing refuted
  uint64_t probe_ns = 0;

  void Add(const InferredMatrix& matrix);
};

/// Lint pass 6: the inferred matrix against the shipped spec.
///   error  — hand spec commutes where probing witnessed divergence, or
///            an observer-flagged method mutated a probe state;
///   note   — hand spec conflicts where inference proves commutativity
///            (lost concurrency), or a primitive type declares no probe
///            traits (inference fell back to declared evidence).
std::vector<Diagnostic> CompareWithHand(const InferredMatrix& matrix);

/// One type's matrix, human-readable and byte-stable across runs (probe
/// timings are deliberately excluded — CI diffs this against goldens).
std::string RenderInferredText(const InferredMatrix& matrix);

/// One type's matrix as a JSON object (includes probe counters and
/// probe_ns; not golden-diffed).
std::string RenderInferredJson(const InferredMatrix& matrix);

/// A compilable C++ fragment building a PredicateCommutativity with the
/// inferred entries. Evidence-table and delegate entries cannot be
/// expressed as closed predicates; they are emitted conservatively
/// (conflict / the hand spec's job) with a comment saying so.
std::string RenderInferredCpp(const InferredMatrix& matrix);

}  // namespace oodb::analysis
