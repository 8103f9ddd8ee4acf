#include "schedule/printer.h"

#include <functional>
#include <unordered_set>
#include <vector>

namespace oodb {

namespace {

void RenderSubtree(const TransactionSystem& ts, ActionId a,
                   const std::string& prefix, bool last, std::string* out) {
  const ActionRecord& rec = ts.action(a);
  *out += prefix;
  *out += last ? "`- " : "+- ";
  *out += ts.object(rec.object).name;
  *out += '.';
  *out += rec.invocation.ToString();
  if (rec.is_virtual) *out += " (virtual)";
  if (ts.IsPrimitive(a) && rec.timestamp != 0) {
    *out += " @" + std::to_string(rec.timestamp);
  }
  *out += "\n";
  std::string child_prefix = prefix + (last ? "   " : "|  ");
  for (size_t i = 0; i < rec.children.size(); ++i) {
    RenderSubtree(ts, rec.children[i], child_prefix,
                  i + 1 == rec.children.size(), out);
  }
}

}  // namespace

std::string SchedulePrinter::TransactionTree(const TransactionSystem& ts,
                                             ActionId root) {
  const ActionRecord& rec = ts.action(root);
  std::string out = rec.label + "\n";
  for (size_t i = 0; i < rec.children.size(); ++i) {
    RenderSubtree(ts, rec.children[i], "", i + 1 == rec.children.size(),
                  &out);
  }
  return out;
}

std::string SchedulePrinter::AllTrees(const TransactionSystem& ts) {
  std::string out;
  for (ActionId t : ts.TopLevel()) {
    out += TransactionTree(ts, t);
  }
  return out;
}

std::string SchedulePrinter::DependencyTable(const TransactionSystem& ts,
                                             const DependencyEngine& engine) {
  auto fmt = [&ts](Digraph::NodeId n) {
    const ActionRecord& rec = ts.action(ActionId(n));
    if (!rec.parent.valid()) return rec.label;  // top-level transaction
    return ts.object(rec.object).name + "." + rec.invocation.ToString() +
           "[" + rec.label + "]";
  };
  std::string out;
  out += "Object                   | schedule dependencies\n";
  out += "-------------------------+----------------------\n";
  for (const ObjectSchedule& sch : engine.schedules()) {
    if (sch.object.IsSystem()) continue;
    std::string deps = sch.action_deps.ToString(fmt);
    std::string tdeps = sch.txn_deps.ToString(fmt);
    std::string name = ts.object(sch.object).name;
    name.resize(24, ' ');
    out += name + " | actions: " + (deps.empty() ? "-" : deps) + "\n";
    out += "                         |    txns: " + (tdeps.empty() ? "-" : tdeps) +
           "\n";
  }
  // The system object's action dependencies are the inherited order of
  // top-level transactions.
  std::string top = engine.TopLevelOrder().ToString(fmt);
  out += "(top-level)              | " + (top.empty() ? std::string("-") : top) + "\n";
  return out;
}

std::string DotEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

namespace {

std::string DotNode(const TransactionSystem& ts, ActionId a) {
  std::string out = "a";
  out += std::to_string(a.value);
  out += " [label=\"";
  out += DotEscape(ts.object(ts.action(a).object).name + "." +
                   ts.action(a).invocation.ToString());
  out += "\"];\n";
  return out;
}

void EmitEdges(const TransactionSystem& ts, const Digraph& graph,
               const char* style, std::string* out,
               std::unordered_set<uint64_t>* declared) {
  for (Digraph::NodeId n : graph.Nodes()) {
    for (Digraph::NodeId s : graph.Successors(n)) {
      if (declared->insert(n).second) *out += DotNode(ts, ActionId(n));
      if (declared->insert(s).second) *out += DotNode(ts, ActionId(s));
      *out += "a";
      *out += std::to_string(n);
      *out += " -> a";
      *out += std::to_string(s);
      *out += " [style=";
      *out += style;
      *out += "];\n";
    }
  }
}

}  // namespace

std::string SchedulePrinter::CallForestDot(const TransactionSystem& ts) {
  std::string out = "digraph calls {\nrankdir=TB;\nnode [shape=box];\n";
  for (ActionId top : ts.TopLevel()) {
    out += "subgraph cluster_" + std::to_string(top.value) + " {\n";
    out += "label=\"" + DotEscape(ts.action(top).label) + "\";\n";
    // Walk the subtree iteratively.
    std::vector<ActionId> stack{top};
    while (!stack.empty()) {
      ActionId a = stack.back();
      stack.pop_back();
      if (a != top) out += DotNode(ts, a);
      for (ActionId c : ts.action(a).children) {
        if (a != top) {
          out += "a";
          out += std::to_string(a.value);
          out += " -> a";
          out += std::to_string(c.value);
          out += ";\n";
        }
        stack.push_back(c);
      }
    }
    out += "}\n";
  }
  out += "}\n";
  return out;
}

std::string SchedulePrinter::DependencyDot(const TransactionSystem& ts,
                                           const DependencyEngine& engine) {
  std::string out = "digraph deps {\nrankdir=LR;\nnode [shape=box];\n";
  std::unordered_set<uint64_t> declared;
  for (const ObjectSchedule& sch : engine.schedules()) {
    EmitEdges(ts, sch.action_deps, "solid", &out, &declared);
    EmitEdges(ts, sch.txn_deps, "dashed", &out, &declared);
    EmitEdges(ts, sch.added_deps, "dotted", &out, &declared);
  }
  out += "}\n";
  return out;
}

}  // namespace oodb
