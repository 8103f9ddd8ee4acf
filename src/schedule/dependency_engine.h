// DependencyEngine: computes every object schedule of a transaction
// system from the recorded execution (Defs 10, 11, 15).
//
// The computation follows the paper's information-flow story:
//   1. Primitive actions in conflict are ordered by their execution
//      timestamps (Axiom 1) — the bootstrap.
//   2. At each object O, a dependent *and conflicting* action pair
//      (a, a') inherits its direction to the calling actions: a
//      transaction dependency parent(a) -> parent(a') is recorded at O
//      (Def 10). Commuting pairs stop the inheritance — the paper's
//      source of extra concurrency.
//   3. A transaction dependency (t, t') recorded at O becomes an action
//      dependency at the object where t and t' are both actions
//      (Def 11), feeding step 2 one call level higher; when t and t'
//      live on different objects it is recorded redundantly at both as
//      an *added* action dependency (Def 15).
// Steps 2-3 iterate to a fixpoint (call trees are finite; edges only
// grow).
//
// The engine is the paper's formulation executed directly: all-pairs
// Commute calls per object, then full rescans of every conflict pair and
// every transaction dependency per fixpoint round.
//
// Precondition: the system must already be extended per Def 5
// (SystemExtender); the engine refuses otherwise, because mixed
// action/transaction roles on one object would make the recursion
// ill-founded.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/transaction_system.h"
#include "schedule/object_schedule.h"
#include "schedule/provenance.h"
#include "util/result.h"

namespace oodb {

class MetricsRegistry;

/// Aggregate statistics of one dependency computation. These are the
/// quantities behind the paper's Fig 4 discussion: how many conflicting
/// dependencies existed at the bottom, and how many were *not* inherited
/// upward because the callers commute.
struct DependencyStats {
  size_t primitive_conflicts = 0;   ///< Axiom 1 ordered pairs
  size_t inherited_txn_deps = 0;    ///< Def 10 transaction dependencies
  size_t stopped_inheritance = 0;   ///< dependent pairs whose callers commute
  size_t added_deps = 0;            ///< Def 15 cross-object records
  size_t fixpoint_rounds = 0;
  /// Conflicting cross-transaction pairs for which no dependency could
  /// be derived in either direction (their subtrees never met on a
  /// common object). A serial schedule would order them; the analysis
  /// treats them as freely orderable and reports the count so callers
  /// can see how much of the conflict relation is actually grounded.
  size_t unordered_conflicts = 0;

  /// Sets the dep.* gauges in `registry` to these values (idempotent;
  /// null registry is a no-op).
  void PublishTo(MetricsRegistry* registry) const;
};

/// Configures the engine's observability.
struct DependencyOptions {
  /// When set, Compute() records per-stage wall timings into the
  /// dep.stage.*_ns histograms and publishes the final DependencyStats
  /// as dep.* gauges.
  MetricsRegistry* metrics = nullptr;
  /// Record the derivation of every edge (schedule/provenance.h) so a
  /// failed verdict can be expanded to its primitive conflicts. Off by
  /// default; when off, the engine pays one predictable null test per
  /// derived edge and allocates nothing.
  bool record_provenance = false;
};

/// Computes and stores all object schedules for one transaction system.
class DependencyEngine {
 public:
  /// `ts` must outlive the engine and be quiescent (no concurrent
  /// mutation) during Compute and afterwards.
  explicit DependencyEngine(const TransactionSystem& ts,
                            DependencyOptions options = {})
      : ts_(ts), options_(options) {}

  /// Runs the fixpoint. Fails with InvalidArgument when the system still
  /// needs the Def 5 extension.
  Status Compute();

  /// The schedule of `o`. Compute() must have succeeded.
  const ObjectSchedule& ForObject(ObjectId o) const;

  /// All object schedules (index aligned with object ids; the system
  /// object S is included at index 0).
  const std::vector<ObjectSchedule>& schedules() const { return schedules_; }

  const DependencyStats& stats() const { return stats_; }

  /// The transaction dependencies at the system object S: the inherited
  /// serialization order of top-level transactions.
  const Digraph& TopLevelOrder() const;

  /// The recorded edge provenance, or null when
  /// DependencyOptions::record_provenance was off.
  const ProvenanceStore* provenance() const { return provenance_.get(); }

  /// Releases the provenance store to the caller (the validator moves
  /// it into the report so explanations outlive the engine).
  std::shared_ptr<const ProvenanceStore> TakeProvenance() {
    return std::shared_ptr<const ProvenanceStore>(std::move(provenance_));
  }

  /// Moves the computed schedules out (for reports that must outlive
  /// the engine). The engine is spent afterwards.
  std::vector<ObjectSchedule> TakeSchedules() {
    return std::move(schedules_);
  }

 private:
  void ComputeConflictPairs();
  void SeedAxiom1();
  bool PropagateOnce();

  /// Post-fixpoint derived counters: unordered_conflicts and
  /// stopped_inheritance, probing the action relation per pair.
  void FinalizeDerivedStats();

  const TransactionSystem& ts_;
  DependencyOptions options_;
  std::vector<ObjectSchedule> schedules_;
  DependencyStats stats_;
  std::unique_ptr<ProvenanceStore> provenance_;
  bool computed_ = false;
};

}  // namespace oodb
