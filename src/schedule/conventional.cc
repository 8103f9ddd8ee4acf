#include "schedule/conventional.h"

namespace oodb {

ConventionalResult ConventionalChecker::Check(const TransactionSystem& ts) {
  ConventionalResult result;
  for (ActionId t : ts.TopLevel()) {
    result.conflict_graph.AddNode(t.value);
  }
  for (ObjectId o : ts.Objects()) {
    if (ts.object(o).is_virtual) continue;
    std::vector<ActionId> prims;
    for (ActionId a : ts.ActionsOn(o)) {
      if (ts.action(a).is_virtual) continue;
      if (!ts.IsPrimitive(a)) continue;
      if (ts.action(a).timestamp == 0) continue;  // never executed
      prims.push_back(a);
    }
    const ObjectType* type = ts.object(o).type;
    for (size_t i = 0; i < prims.size(); ++i) {
      const ActionRecord& ra = ts.action(prims[i]);
      for (size_t j = i + 1; j < prims.size(); ++j) {
        const ActionRecord& rb = ts.action(prims[j]);
        if (ra.top_level == rb.top_level) continue;
        if (type->Commutes(ra.invocation, rb.invocation)) continue;
        ++result.conflicting_pairs;
        if (ra.timestamp < rb.timestamp) {
          result.conflict_graph.AddEdge(ra.top_level.value,
                                        rb.top_level.value);
        } else {
          result.conflict_graph.AddEdge(rb.top_level.value,
                                        ra.top_level.value);
        }
      }
    }
  }
  result.serializable = !result.conflict_graph.HasCycle();
  return result;
}

}  // namespace oodb
