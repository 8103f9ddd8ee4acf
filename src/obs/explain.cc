#include "obs/explain.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "schedule/printer.h"
#include "util/json.h"

namespace oodb {

namespace {

/// Edges of `g` in deterministic order: nodes in insertion order,
/// successors sorted ascending (the order Digraph::ToString renders).
std::vector<std::pair<uint64_t, uint64_t>> OrderedEdges(const Digraph& g) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  edges.reserve(g.EdgeCount());
  for (Digraph::NodeId n : g.Nodes()) {
    std::vector<Digraph::NodeId> succ(g.Successors(n).begin(),
                                      g.Successors(n).end());
    std::sort(succ.begin(), succ.end());
    for (Digraph::NodeId s : succ) edges.emplace_back(n, s);
  }
  return edges;
}

/// One "[[f, t], ...]" JSON array of id pairs.
void JsonEdgeArray(const std::vector<std::pair<uint64_t, uint64_t>>& edges,
                   std::ostringstream* os) {
  *os << "[";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) *os << ",";
    *os << "[" << edges[i].first << "," << edges[i].second << "]";
  }
  *os << "]";
}

bool HasAnyEdge(const ObjectSchedule& sch) {
  return sch.txn_deps.EdgeCount() != 0 || sch.action_deps.EdgeCount() != 0 ||
         sch.added_deps.EdgeCount() != 0;
}

/// The Def 16 union: action and added dependencies of every object, in
/// schedule order — exactly the graph the optional global check walks.
Digraph UnionGraph(const std::vector<ObjectSchedule>& schedules) {
  Digraph global;
  for (const ObjectSchedule& sch : schedules) {
    global.UnionWith(sch.action_deps);
    global.UnionWith(sch.added_deps);
  }
  return global;
}

}  // namespace

Explainer::Explainer(const TransactionSystem& ts,
                     const ValidationReport& report, ExplainOptions options,
                     const Tracer* tracer)
    : ts_(ts), report_(report), options_(options) {
  if (tracer != nullptr) {
    for (const TraceSpan& span : tracer->Spans()) span_ids_.insert(span.id);
  }
}

std::string Explainer::ObjName(ObjectId o) const {
  if (!o.valid()) return "(global)";
  const ObjectRecord& rec = ts_.object(o);
  if (!rec.is_virtual) return rec.name;
  return rec.name + " (virtual of " + ts_.object(rec.original).name +
         ", Def 5)";
}

std::string Explainer::Label(ActionId a) const {
  std::string label = ts_.Describe(a);
  if (ts_.action(a).is_virtual) label += " (Def 5)";
  return label;
}

void Explainer::TextStep(const ProvenanceStep& step, std::string* out) const {
  *out += "    ";
  *out += DepRuleName(step.rule);
  *out += " @ " + ObjName(step.object) + ": ";
  switch (step.rule) {
    case DepRule::kAxiom1:
      *out += Label(step.from) + " (t=" +
              std::to_string(ts_.action(step.from).timestamp) +
              ") executed before " + Label(step.to) + " (t=" +
              std::to_string(ts_.action(step.to).timestamp) + ")";
      break;
    case DepRule::kDef10:
      *out += "txn dep " + Label(step.from) + " -> " + Label(step.to) +
              " inherited from conflicting pair " + Label(step.cause_from) +
              " -> " + Label(step.cause_to);
      break;
    case DepRule::kDef11:
      *out += "action dep " + Label(step.from) + " -> " + Label(step.to) +
              " placed from txn dep at " + ObjName(step.cause_object);
      break;
    case DepRule::kDef15:
      *out += "added dep " + Label(step.from) + " -> " + Label(step.to) +
              " recorded from txn dep at " + ObjName(step.cause_object);
      break;
  }
  *out += "\n";
}

void Explainer::TextWitness(const Witness& w, size_t index,
                            std::string* out) const {
  *out += "witness " + std::to_string(index) + ": ";
  *out += WitnessKindName(w.kind);
  if (w.kind == Witness::Kind::kConformance) {
    *out += " (Def 7)\n";
    if (w.cycle.size() == 2) {
      ActionId a = w.cycle[0], b = w.cycle[1];
      *out += "  executed out of order: " + Label(a) + " (t=" +
              std::to_string(ts_.action(a).timestamp) + ") ran after " +
              Label(b) + " (t=" + std::to_string(ts_.action(b).timestamp) +
              ")\n";
    }
    if (!w.precedence_path.empty()) {
      *out += "  required precedence path:";
      for (size_t i = 0; i < w.precedence_path.size(); ++i) {
        *out += i == 0 ? " " : " -> ";
        *out += Label(w.precedence_path[i]);
      }
      *out += "\n";
    }
    return;
  }
  if (w.object.valid()) *out += " at " + ObjName(w.object);
  *out += "\n";
  *out += "  cycle (" + std::to_string(w.edges.size()) + " edges):";
  for (size_t i = 0; i < w.cycle.size(); ++i) {
    *out += i == 0 ? " " : " -> ";
    *out += Label(w.cycle[i]);
  }
  *out += "\n";
  std::vector<uint64_t> spans;
  for (size_t i = 0; i + 1 < w.cycle.size(); ++i) {
    if (HasSpan(w.cycle[i])) spans.push_back(w.cycle[i].value);
  }
  if (!spans.empty()) {
    *out += "  trace spans:";
    for (uint64_t s : spans) *out += " " + std::to_string(s);
    *out += "\n";
  }
  for (size_t i = 0; i < w.edges.size(); ++i) {
    const Witness::Edge& e = w.edges[i];
    *out += "  edge " + std::to_string(i + 1) + " [" +
            DepRelationName(e.relation) + "]: " + Label(e.from) + " -> " +
            Label(e.to) + "\n";
    if (e.chain.empty()) {
      *out += "    (no provenance recorded)\n";
    } else {
      for (const ProvenanceStep& step : e.chain) TextStep(step, out);
    }
  }
}

std::string Explainer::Text() const {
  std::string out = "oodb-explain v1\n";
  out += "verdict: oo-serializable=";
  out += report_.oo_serializable ? "yes" : "no";
  out += " conventional=";
  out += report_.conventionally_serializable ? "yes" : "no";
  out += " conform=";
  out += report_.conform ? "yes" : "no";
  out += " globally-acyclic=";
  out += report_.globally_acyclic ? "yes" : "no";
  out += "\n";
  const DependencyStats& st = report_.stats;
  out += "stats: prim-conflicts=" + std::to_string(st.primitive_conflicts) +
         " inherited=" + std::to_string(st.inherited_txn_deps) +
         " stopped=" + std::to_string(st.stopped_inheritance) + " added=" +
         std::to_string(st.added_deps) + " unordered=" +
         std::to_string(st.unordered_conflicts) + " rounds=" +
         std::to_string(st.fixpoint_rounds) + "\n";
  const ExtensionStats& ext = report_.extension;
  out += "extension: cycles-broken=" + std::to_string(ext.cycles_broken) +
         " virtual-objects=" + std::to_string(ext.virtual_objects) +
         " virtual-actions=" + std::to_string(ext.virtual_actions) + "\n";
  out += "provenance: ";
  out += report_.provenance != nullptr
             ? std::to_string(report_.provenance->EdgeCount()) +
                   " edges recorded"
             : "not recorded";
  out += "\n";
  out += "witnesses: " + std::to_string(report_.witnesses.size()) + "\n";
  for (size_t i = 0; i < report_.witnesses.size(); ++i) {
    out += "\n";
    TextWitness(report_.witnesses[i], i + 1, &out);
  }

  auto fmt = [this](Digraph::NodeId n) { return Label(ActionId(n)); };
  if (options_.include_relations) {
    out += "\nrelations:\n";
    if (report_.schedules.empty()) {
      out += "  (not kept; validate with record_provenance)\n";
    } else {
      for (const ObjectSchedule& sch : report_.schedules) {
        if (!HasAnyEdge(sch)) continue;
        out += "  object " + ObjName(sch.object) + ":\n";
        if (sch.txn_deps.EdgeCount() != 0) {
          out += "    txn deps (Def 10): " + sch.txn_deps.ToString(fmt) + "\n";
        }
        if (sch.action_deps.EdgeCount() != 0) {
          out += "    action deps (Def 11): " + sch.action_deps.ToString(fmt) +
                 "\n";
        }
        if (sch.added_deps.EdgeCount() != 0) {
          out += "    added deps (Def 15): " + sch.added_deps.ToString(fmt) +
                 "\n";
        }
      }
    }
  }
  if (options_.include_union && !report_.schedules.empty()) {
    Digraph global = UnionGraph(report_.schedules);
    out += "\nunion (Def 16): ";
    out += global.EdgeCount() == 0 ? "(empty)" : global.ToString(fmt);
    out += "\n";
  }
  out += "\nserialization order:";
  if (report_.serialization_order.empty()) {
    out += " (none)";
  } else {
    for (size_t i = 0; i < report_.serialization_order.size(); ++i) {
      out += i == 0 ? " " : " -> ";
      out += Label(report_.serialization_order[i]);
    }
  }
  out += "\n";
  return out;
}

std::string Explainer::Dot() const {
  // Witness edges to highlight, keyed (relation, from, to).
  std::set<std::tuple<int, uint64_t, uint64_t>> hot;
  for (const Witness& w : report_.witnesses) {
    for (const Witness::Edge& e : w.edges) {
      hot.emplace(int(e.relation), e.from.value, e.to.value);
    }
  }
  struct DotEdge {
    uint64_t from, to;
    DepRelation relation;
    ObjectId object;
  };
  std::vector<DotEdge> edges;
  std::set<std::tuple<uint64_t, uint64_t, int, uint64_t>> seen;
  auto add = [&](uint64_t f, uint64_t t, DepRelation rel, ObjectId o) {
    if (seen.emplace(f, t, int(rel), o.value).second) {
      edges.push_back({f, t, rel, o});
    }
  };
  for (const ObjectSchedule& sch : report_.schedules) {
    for (auto [f, t] : OrderedEdges(sch.txn_deps)) {
      add(f, t, DepRelation::kTxn, sch.object);
    }
    for (auto [f, t] : OrderedEdges(sch.action_deps)) {
      add(f, t, DepRelation::kAction, sch.object);
    }
    for (auto [f, t] : OrderedEdges(sch.added_deps)) {
      add(f, t, DepRelation::kAdded, sch.object);
    }
  }
  // Witness edges not covered by the (possibly absent) schedules still
  // render, so a provenance-off report yields a usable graph.
  for (const Witness& w : report_.witnesses) {
    for (const Witness::Edge& e : w.edges) {
      add(e.from.value, e.to.value, e.relation, w.object);
    }
  }

  std::set<uint64_t> nodes;
  for (const DotEdge& e : edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }

  std::ostringstream os;
  os << "digraph oodb_explain {\n";
  os << "  rankdir=LR;\n";
  os << "  node [shape=box, fontsize=10];\n";
  for (uint64_t n : nodes) {
    ActionId a(n);
    os << "  a" << n << " [label=\"" << DotEscape(Label(a));
    if (HasSpan(a)) os << "\\n(span " << n << ")";
    os << "\"";
    if (ts_.action(a).is_virtual) os << ", peripheries=2";
    os << "];\n";
  }
  for (const DotEdge& e : edges) {
    os << "  a" << e.from << " -> a" << e.to << " [label=\""
       << DepRelationName(e.relation) << " @ "
       << DotEscape(e.object.valid() ? ts_.object(e.object).name : "*")
       << "\"";
    if (e.relation == DepRelation::kTxn) os << ", style=bold";
    if (e.relation == DepRelation::kAdded) os << ", style=dashed";
    if (hot.count({int(e.relation), e.from, e.to})) {
      os << ", color=red, penwidth=2.0";
    }
    os << "];\n";
  }
  os << "}\n";
  return os.str();
}

std::string Explainer::Json() const {
  std::ostringstream os;
  os << "{\n";
  os << "\"format\":\"oodb-explain-v1\",\n";
  os << "\"verdict\":{\"oo_serializable\":"
     << (report_.oo_serializable ? "true" : "false") << ",\"conventional\":"
     << (report_.conventionally_serializable ? "true" : "false")
     << ",\"conform\":" << (report_.conform ? "true" : "false")
     << ",\"globally_acyclic\":"
     << (report_.globally_acyclic ? "true" : "false") << "},\n";
  const DependencyStats& st = report_.stats;
  os << "\"stats\":{\"primitive_conflicts\":" << st.primitive_conflicts
     << ",\"inherited_txn_deps\":" << st.inherited_txn_deps
     << ",\"stopped_inheritance\":" << st.stopped_inheritance
     << ",\"added_deps\":" << st.added_deps << ",\"unordered_conflicts\":"
     << st.unordered_conflicts << ",\"fixpoint_rounds\":"
     << st.fixpoint_rounds << "},\n";
  const ExtensionStats& ext = report_.extension;
  os << "\"extension\":{\"cycles_broken\":" << ext.cycles_broken
     << ",\"virtual_objects\":" << ext.virtual_objects
     << ",\"virtual_actions\":" << ext.virtual_actions << "},\n";
  os << "\"provenance_edges\":"
     << (report_.provenance != nullptr ? report_.provenance->EdgeCount() : 0)
     << ",\n";

  // Everything below references actions by id; the action table at the
  // end resolves ids to labels, so the graph sections stay compact.
  std::set<uint64_t> referenced;
  auto note = [&referenced](ActionId a) {
    if (a.valid()) referenced.insert(a.value);
  };

  os << "\"witnesses\":[";
  for (size_t wi = 0; wi < report_.witnesses.size(); ++wi) {
    const Witness& w = report_.witnesses[wi];
    if (wi > 0) os << ",";
    os << "\n{\"kind\":\"" << WitnessKindName(w.kind) << "\",";
    if (w.object.valid()) {
      os << "\"object_id\":" << w.object.value << ",\"object\":\""
         << JsonEscape(ts_.object(w.object).name) << "\",";
    } else {
      os << "\"object_id\":null,\"object\":null,";
    }
    os << "\"cycle\":[";
    for (size_t i = 0; i < w.cycle.size(); ++i) {
      if (i > 0) os << ",";
      os << w.cycle[i].value;
      note(w.cycle[i]);
    }
    os << "],\"edges\":[";
    for (size_t ei = 0; ei < w.edges.size(); ++ei) {
      const Witness::Edge& e = w.edges[ei];
      if (ei > 0) os << ",";
      os << "{\"from\":" << e.from.value << ",\"to\":" << e.to.value
         << ",\"relation\":\"" << DepRelationName(e.relation)
         << "\",\"chain\":[";
      note(e.from);
      note(e.to);
      for (size_t si = 0; si < e.chain.size(); ++si) {
        const ProvenanceStep& s = e.chain[si];
        if (si > 0) os << ",";
        os << "{\"rule\":\"" << DepRuleName(s.rule) << "\",\"relation\":\""
           << DepRelationName(s.relation) << "\",\"object_id\":"
           << s.object.value << ",\"from\":" << s.from.value << ",\"to\":"
           << s.to.value << ",\"cause_object_id\":";
        if (s.cause_object.valid()) {
          os << s.cause_object.value;
        } else {
          os << "null";
        }
        os << ",\"cause_from\":" << s.cause_from.value << ",\"cause_to\":"
           << s.cause_to.value << "}";
        note(s.from);
        note(s.to);
        note(s.cause_from);
        note(s.cause_to);
      }
      os << "]}";
    }
    os << "],\"precedence_path\":[";
    for (size_t i = 0; i < w.precedence_path.size(); ++i) {
      if (i > 0) os << ",";
      os << w.precedence_path[i].value;
      note(w.precedence_path[i]);
    }
    os << "]}";
  }
  os << "],\n";

  os << "\"relations\":[";
  bool first_rel = true;
  if (options_.include_relations) {
    for (const ObjectSchedule& sch : report_.schedules) {
      if (!HasAnyEdge(sch)) continue;
      if (!first_rel) os << ",";
      first_rel = false;
      os << "\n{\"object_id\":" << sch.object.value << ",\"object\":\""
         << JsonEscape(ts_.object(sch.object).name) << "\",\"virtual\":"
         << (ts_.object(sch.object).is_virtual ? "true" : "false")
         << ",\"txn_deps\":";
      auto txn = OrderedEdges(sch.txn_deps);
      auto act = OrderedEdges(sch.action_deps);
      auto added = OrderedEdges(sch.added_deps);
      for (const auto& edge_list : {txn, act, added}) {
        for (const auto& [f, t] : edge_list) {
          note(ActionId(f));
          note(ActionId(t));
        }
      }
      JsonEdgeArray(txn, &os);
      os << ",\"action_deps\":";
      JsonEdgeArray(act, &os);
      os << ",\"added_deps\":";
      JsonEdgeArray(added, &os);
      os << "}";
    }
  }
  os << "],\n";

  os << "\"union\":";
  if (options_.include_union && !report_.schedules.empty()) {
    auto edges = OrderedEdges(UnionGraph(report_.schedules));
    for (const auto& [f, t] : edges) {
      note(ActionId(f));
      note(ActionId(t));
    }
    JsonEdgeArray(edges, &os);
  } else {
    os << "[]";
  }
  os << ",\n";

  os << "\"serialization_order\":[";
  for (size_t i = 0; i < report_.serialization_order.size(); ++i) {
    if (i > 0) os << ",";
    os << report_.serialization_order[i].value;
    note(report_.serialization_order[i]);
  }
  os << "],\n";

  os << "\"actions\":[";
  bool first_action = true;
  for (uint64_t id : referenced) {
    if (!first_action) os << ",";
    first_action = false;
    const ActionRecord& rec = ts_.action(ActionId(id));
    os << "\n{\"id\":" << id << ",\"label\":\""
       << JsonEscape(ts_.Describe(ActionId(id))) << "\",\"object_id\":"
       << rec.object.value << ",\"virtual\":"
       << (rec.is_virtual ? "true" : "false") << ",\"timestamp\":"
       << rec.timestamp << ",\"span\":"
       << (HasSpan(ActionId(id)) ? "true" : "false") << "}";
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

}  // namespace oodb
