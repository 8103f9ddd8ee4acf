#include "schedule/validator.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "model/extension.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace oodb {

namespace {

std::string RenderCycle(const TransactionSystem& ts,
                        const std::vector<Digraph::NodeId>& cycle) {
  std::string out;
  for (size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) out += " -> ";
    out += ts.Describe(ActionId(cycle[i]));
  }
  return out;
}

/// Builds the witness for one offending cycle: one edge per hop, each
/// classified into the relation it lives in (`relation_of`) and — when
/// provenance was recorded — expanded down to its primitive conflict.
Witness MakeCycleWitness(
    Witness::Kind kind, ObjectId object,
    const std::vector<Digraph::NodeId>& cycle,
    const std::function<std::pair<DepRelation, ObjectId>(
        ActionId, ActionId)>& relation_of,
    const ProvenanceStore* prov) {
  Witness w;
  w.kind = kind;
  w.object = object;
  w.cycle.reserve(cycle.size());
  for (Digraph::NodeId n : cycle) w.cycle.push_back(ActionId(n));
  for (size_t i = 0; i + 1 < cycle.size(); ++i) {
    Witness::Edge edge;
    edge.from = ActionId(cycle[i]);
    edge.to = ActionId(cycle[i + 1]);
    auto [relation, at] = relation_of(edge.from, edge.to);
    edge.relation = relation;
    if (prov != nullptr) {
      edge.chain = prov->Chain(relation, at, edge.from, edge.to);
    }
    w.edges.push_back(std::move(edge));
  }
  return w;
}

/// The precedence path behind one MustPrecede(a, b) == true verdict:
/// the chain of ordered siblings (branch of a -> ... -> branch of b) in
/// the lowest common action set. Mirrors
/// TransactionSystem::MustPrecede, with BFS parent tracking.
std::vector<ActionId> MustPrecedeTrace(const TransactionSystem& ts,
                                       ActionId a, ActionId b) {
  auto chain = [&ts](ActionId x) {
    std::vector<ActionId> c;
    for (ActionId cur = x; cur.valid(); cur = ts.action(cur).parent) {
      c.push_back(cur);
    }
    return c;
  };
  std::vector<ActionId> ca = chain(a), cb = chain(b);
  if (ca.back() != cb.back()) return {};
  size_t ia = ca.size(), ib = cb.size();
  while (ia > 0 && ib > 0 && ca[ia - 1] == cb[ib - 1]) {
    --ia;
    --ib;
  }
  if (ia == 0 || ib == 0) return {};
  ActionId branch_a = ca[ia - 1];
  ActionId branch_b = cb[ib - 1];
  ActionId common_parent = ts.action(branch_a).parent;
  const auto& edges = ts.action(common_parent).child_precedence;
  std::deque<ActionId> frontier{branch_a};
  std::unordered_map<uint64_t, uint64_t> parent{{branch_a.value, branch_a.value}};
  while (!frontier.empty()) {
    ActionId cur = frontier.front();
    frontier.pop_front();
    for (const auto& [from, to] : edges) {
      if (from != cur || parent.count(to.value)) continue;
      parent[to.value] = cur.value;
      if (to == branch_b) {
        std::vector<ActionId> path{to};
        ActionId p = cur;
        for (;;) {
          path.push_back(p);
          if (p == branch_a) break;
          p = ActionId(parent[p.value]);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(to);
    }
  }
  return {};
}

void CheckConformance(const TransactionSystem& ts, ValidationReport* report) {
  // Def 7: the execution must respect the (inherited) precedence
  // relation. For every pair of executed primitive actions of one
  // top-level transaction: MustPrecede(a, b) => timestamp(a) < t(b).
  // Tops iterate in sorted id order so diagnostics (and witnesses) are
  // byte-stable.
  std::map<uint64_t, std::vector<ActionId>> prims_by_top;
  for (ObjectId o : ts.Objects()) {
    for (ActionId a : ts.ActionsOn(o)) {
      if (ts.action(a).is_virtual) continue;
      if (!ts.IsPrimitive(a) || ts.action(a).timestamp == 0) continue;
      prims_by_top[ts.action(a).top_level.value].push_back(a);
    }
  }
  for (const auto& [top, prims] : prims_by_top) {
    (void)top;
    for (size_t i = 0; i < prims.size(); ++i) {
      for (size_t j = 0; j < prims.size(); ++j) {
        if (i == j) continue;
        if (ts.MustPrecede(prims[i], prims[j]) &&
            ts.action(prims[i]).timestamp > ts.action(prims[j]).timestamp) {
          report->conform = false;
          report->diagnostics.push_back(
              "conformance violation: " + ts.Describe(prims[i]) +
              " must precede " + ts.Describe(prims[j]) +
              " but executed after it");
          Witness w;
          w.kind = Witness::Kind::kConformance;
          w.cycle = {prims[i], prims[j]};
          w.precedence_path = MustPrecedeTrace(ts, prims[i], prims[j]);
          report->witnesses.push_back(std::move(w));
        }
      }
    }
  }
}

/// Linear-time Def 7 screen. MustPrecede pairs are exactly the
/// primitive pairs whose branches at some common action set are
/// connected by the precedence relation, so conformance holds
/// iff no precedence chain c1 ->* c2 has a primitive under c1 executing
/// after a primitive under c2. Aggregating each subtree's executed
/// timestamps reduces that to one min/max comparison per reachable
/// branch pair — no quadratic MustPrecede probing. Exact for the
/// verdict; when it trips, the caller reruns CheckConformance for the
/// identical per-pair diagnostics.
bool ConformanceHolds(const TransactionSystem& ts) {
  const size_t n = ts.action_count();
  // Min/max timestamp of the executed, non-virtual primitives in each
  // action's subtree; 0 = none. Children are created after their parent
  // (Call requires the parent to exist), so one descending pass folds
  // bottom-up.
  std::vector<uint64_t> lo(n, 0), hi(n, 0);
  for (size_t i = n; i-- > 0;) {
    const ActionRecord& rec = ts.action(ActionId(i));
    uint64_t l = 0, h = 0;
    if (!rec.is_virtual && rec.timestamp != 0 && ts.IsPrimitive(ActionId(i))) {
      l = h = rec.timestamp;
    }
    for (ActionId c : rec.children) {
      if (lo[c.value] == 0) continue;
      if (l == 0 || lo[c.value] < l) l = lo[c.value];
      if (hi[c.value] > h) h = hi[c.value];
    }
    lo[i] = l;
    hi[i] = h;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& edges = ts.action(ActionId(i)).child_precedence;
    if (edges.empty()) continue;
    std::unordered_map<uint64_t, std::vector<uint64_t>> succ;
    for (const auto& [from, to] : edges) {
      succ[from.value].push_back(to.value);
    }
    for (const auto& [from, direct] : succ) {
      if (hi[from] == 0) continue;
      // DFS over the action set's precedence DAG from `from`.
      std::unordered_set<uint64_t> visited{from};
      std::vector<uint64_t> stack(direct.begin(), direct.end());
      while (!stack.empty()) {
        uint64_t cur = stack.back();
        stack.pop_back();
        if (!visited.insert(cur).second) continue;
        if (lo[cur] != 0 && hi[from] > lo[cur]) return false;
        auto it = succ.find(cur);
        if (it != succ.end()) {
          stack.insert(stack.end(), it->second.begin(), it->second.end());
        }
      }
    }
  }
  return true;
}

}  // namespace

std::string ValidationReport::Summary() const {
  std::ostringstream os;
  os << "oo-serializable=" << (oo_serializable ? "yes" : "no")
     << " conventional=" << (conventionally_serializable ? "yes" : "no")
     << " conform=" << (conform ? "yes" : "no")
     << " | prim-conflicts=" << stats.primitive_conflicts
     << " inherited=" << stats.inherited_txn_deps
     << " stopped=" << stats.stopped_inheritance
     << " added=" << stats.added_deps
     << " unordered=" << stats.unordered_conflicts;
  if (!diagnostics.empty()) {
    os << "\n";
    for (const std::string& d : diagnostics) os << "  ! " << d << "\n";
  }
  return os.str();
}

ValidationReport Validator::Validate(TransactionSystem* ts,
                                     const ValidationOptions& options) {
  ValidationReport report;

  if (options.apply_extension) {
    report.extension = SystemExtender::Extend(ts, options.tracer);
  }
  report.extension.PublishTo(options.metrics);

  DependencyOptions dep_options;
  dep_options.metrics = options.metrics;
  dep_options.record_provenance = options.record_provenance;

  DependencyEngine engine(*ts, dep_options);
  Status st = engine.Compute();
  if (!st.ok()) {
    report.oo_serializable = false;
    report.diagnostics.push_back(st.ToString());
    return report;
  }
  report.stats = engine.stats();

  // Per-object Def 13 and Def 16(ii), in object order so the report is
  // deterministic. Failed verdicts render the BFS *shortest* cycle —
  // the minimal explanation, and byte-stable unlike whichever back edge
  // a DFS happens to close first. Those searches run only on rejection:
  // the combined Def 16(ii) traversal (HasCycleWith, no graph copy)
  // also answers Def 13(ii) when acyclic, so an accepted object costs a
  // single traversal of its action relation.
  const ProvenanceStore* prov = engine.provenance();
  bool all_ok = true;
  uint64_t extract_ns = 0;
  // Records one failed verdict. An added-dependency cycle mixes both
  // relations, so each of its edges is classified separately.
  auto reject = [&](Witness::Kind kind, DepRelation relation,
                    const ObjectSchedule& sch, const char* what,
                    const std::vector<Digraph::NodeId>& cycle) {
    all_ok = false;
    report.diagnostics.push_back("object " + ts->object(sch.object).name +
                                 ": " + what + ": " +
                                 RenderCycle(*ts, cycle));
    report.witnesses.push_back(MakeCycleWitness(
        kind, sch.object, cycle,
        [&](ActionId from, ActionId to) {
          if (kind == Witness::Kind::kAddedCycle &&
              !sch.action_deps.HasEdge(from.value, to.value)) {
            return std::make_pair(DepRelation::kAdded, sch.object);
          }
          return std::make_pair(relation, sch.object);
        },
        prov));
  };
  for (const ObjectSchedule& sch : engine.schedules()) {
    if (sch.txn_deps.HasCycle()) {
      Stopwatch sw;
      reject(Witness::Kind::kTxnCycle, DepRelation::kTxn, sch,
             "transaction dependency cycle (Def 13 i)",
             *sch.txn_deps.FindShortestCycle());
      extract_ns += sw.ElapsedNanos();
    }
    bool combined_cyclic =
        sch.added_deps.EdgeCount() == 0
            ? sch.action_deps.HasCycle()
            : sch.action_deps.HasCycleWith(sch.added_deps);
    if (!combined_cyclic) continue;
    Stopwatch sw;
    if (auto cycle = sch.action_deps.FindShortestCycle()) {
      reject(Witness::Kind::kActionCycle, DepRelation::kAction, sch,
             "contradicting action dependencies (Def 13 ii)", *cycle);
    }
    if (sch.added_deps.EdgeCount() != 0) {
      reject(Witness::Kind::kAddedCycle, DepRelation::kAction, sch,
             "added-dependency contradiction (Def 16 ii)",
             *sch.action_deps.FindShortestCycleWith(sch.added_deps));
    }
    extract_ns += sw.ElapsedNanos();
  }
  report.oo_serializable = all_ok;

  if (options.check_global) {
    Digraph global;
    for (const ObjectSchedule& sch : engine.schedules()) {
      global.UnionWith(sch.action_deps);
      global.UnionWith(sch.added_deps);
    }
    if (global.HasCycle()) {
      report.globally_acyclic = false;
      auto cycle = global.FindShortestCycle();
      if (all_ok) {
        report.diagnostics.push_back(
            "global dependency cycle spanning 3+ objects (stronger-than-"
            "Def-16 check): " +
            RenderCycle(*ts, *cycle));
      }
      // A global edge can live in several objects' relations; resolve
      // to the first object (in id order) that holds it, preferring the
      // action relation — deterministic, and exactly where provenance
      // was recorded.
      report.witnesses.push_back(MakeCycleWitness(
          Witness::Kind::kGlobalCycle, ObjectId(), *cycle,
          [&](ActionId from, ActionId to) {
            for (const ObjectSchedule& sch : engine.schedules()) {
              if (sch.action_deps.HasEdge(from.value, to.value)) {
                return std::make_pair(DepRelation::kAction, sch.object);
              }
            }
            for (const ObjectSchedule& sch : engine.schedules()) {
              if (sch.added_deps.HasEdge(from.value, to.value)) {
                return std::make_pair(DepRelation::kAdded, sch.object);
              }
            }
            return std::make_pair(DepRelation::kAction, ObjectId());
          },
          prov));
    }
  }

  if (options.check_conformance) {
    // The screen is exact for the verdict, so the quadratic per-pair
    // scan only runs when there are diagnostics to produce.
    if (!ConformanceHolds(*ts)) CheckConformance(*ts, &report);
  }

  // The conventional (flat page-level) check, for comparison.
  report.conventional = ConventionalChecker::Check(*ts);
  report.conventionally_serializable = report.conventional.serializable;

  if (options.metrics != nullptr) {
    options.metrics->SetGauge("validate.oo_serializable",
                              report.oo_serializable ? 1 : 0);
    options.metrics->SetGauge("validate.conventional",
                              report.conventionally_serializable ? 1 : 0);
    options.metrics->SetGauge("validate.conform", report.conform ? 1 : 0);
  }

  if (report.oo_serializable) {
    Digraph order;
    for (ActionId t : ts->TopLevel()) order.AddNode(t.value);
    order.UnionWith(engine.TopLevelOrder());
    if (auto topo = order.TopologicalOrder()) {
      report.serialization_order.reserve(topo->size());
      for (Digraph::NodeId n : *topo) {
        report.serialization_order.push_back(ActionId(n));
      }
    }
  }

  if (options.metrics != nullptr) {
    MetricsRegistry* m = options.metrics;
    m->SetGauge("explain.witnesses",
                static_cast<int64_t>(report.witnesses.size()));
    for (const Witness& w : report.witnesses) {
      // Cycle witnesses: edge count; conformance: the violating pair
      // counts as one edge.
      uint64_t length = w.cycle.empty() ? 0 : w.cycle.size() - 1;
      m->GetHistogram("explain.witness_length")->Observe(length);
    }
    m->SetGauge("explain.provenance_edges",
                prov != nullptr ? static_cast<int64_t>(prov->EdgeCount())
                                : 0);
    m->GetHistogram("explain.extract_ns")->Observe(extract_ns);
  }

  if (options.record_provenance) {
    // Hand the evidence to the report so explanations (obs/explain.h)
    // outlive this engine.
    report.provenance = engine.TakeProvenance();
    report.schedules = engine.TakeSchedules();
  }
  return report;
}

}  // namespace oodb
