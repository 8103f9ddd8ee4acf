// ConventionalChecker: the baseline the paper argues against.
//
// Conventional conflict-order-preserving serializability ignores the
// semantics of higher levels: it looks only at the primitive (zero-layer,
// i.e. page) operations, treats every non-read/read pair on the same
// object as a conflict, and requires the conflict graph over *top-level*
// transactions to be acyclic. Under this definition the two leaf inserts
// of Example 1 conflict (they touch Page4712), although they commute at
// the leaf level — the over-restriction oo-serializability removes.

#pragma once

#include <vector>

#include "model/transaction_system.h"
#include "util/digraph.h"

namespace oodb {

/// Result of the conventional (flat, conflict-based) analysis.
struct ConventionalResult {
  /// Conflict graph over top-level transactions (nodes: ActionId values
  /// of the top-level actions).
  Digraph conflict_graph;
  /// Number of primitive conflicting pairs across different top-level
  /// transactions.
  size_t conflicting_pairs = 0;
  bool serializable = false;
};

/// Analyzes the primitive layer of a recorded execution.
class ConventionalChecker {
 public:
  /// Computes the classical conflict graph: for every pair of primitive
  /// actions on the same object that do not commute *by the object
  /// type's specification alone* (no higher-level semantics), ordered by
  /// execution timestamps, an edge between their top-level transactions
  /// is added. Virtual duplicates (Def 5 bookkeeping) are skipped so the
  /// analysis sees exactly the physical history.
  static ConventionalResult Check(const TransactionSystem& ts);
};

}  // namespace oodb
