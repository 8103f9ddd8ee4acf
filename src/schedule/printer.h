// Printers rendering executions and dependency relations the way the
// paper draws them: the call trees of Figs 4/5/7 and the per-object
// dependency table of Fig 8.

#pragma once

#include <string>

#include "model/transaction_system.h"
#include "schedule/dependency_engine.h"

namespace oodb {

/// Escapes quotes and backslashes for a Graphviz double-quoted string.
std::string DotEscape(const std::string& s);

class SchedulePrinter {
 public:
  /// ASCII rendering of one oo-transaction's call tree (Fig 5 style):
  ///   T1
  ///   +- BpTree.insert(DBS)
  ///   |  +- Leaf11.insert(DBS)
  ///   |  |  +- Page4712.read()
  ///   ...
  static std::string TransactionTree(const TransactionSystem& ts,
                                     ActionId root);

  /// All top-level transactions' trees.
  static std::string AllTrees(const TransactionSystem& ts);

  /// The Fig 8 table: one row per object, listing the dependency
  /// relations of its object schedule. Virtual objects are included with
  /// their primed names.
  static std::string DependencyTable(const TransactionSystem& ts,
                                     const DependencyEngine& engine);

  /// Graphviz rendering of the call trees: one cluster per top-level
  /// transaction, solid arcs for calls.
  static std::string CallForestDot(const TransactionSystem& ts);

  /// Graphviz rendering of the computed dependencies: solid edges for
  /// action dependencies, dashed for transaction dependencies, dotted
  /// for added (Def 15) dependencies.
  static std::string DependencyDot(const TransactionSystem& ts,
                                   const DependencyEngine& engine);
};

}  // namespace oodb
