#include "schedule/dependency_engine.h"

#include <memory>

#include "model/extension.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace oodb {

namespace {

/// Observes the elapsed time of one engine stage and restarts the
/// clock. No-op without a registry.
void ObserveStage(MetricsRegistry* metrics, Stopwatch* sw,
                  const char* name) {
  if (metrics != nullptr) {
    metrics->GetHistogram(name)->Observe(sw->ElapsedNanos());
  }
  sw->Restart();
}

}  // namespace

void DependencyStats::PublishTo(MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->SetGauge("dep.primitive_conflicts",
                     static_cast<int64_t>(primitive_conflicts));
  registry->SetGauge("dep.inherited_txn_deps",
                     static_cast<int64_t>(inherited_txn_deps));
  registry->SetGauge("dep.stopped_inheritance",
                     static_cast<int64_t>(stopped_inheritance));
  registry->SetGauge("dep.added_deps", static_cast<int64_t>(added_deps));
  registry->SetGauge("dep.fixpoint_rounds",
                     static_cast<int64_t>(fixpoint_rounds));
  registry->SetGauge("dep.unordered_conflicts",
                     static_cast<int64_t>(unordered_conflicts));
}

Status DependencyEngine::Compute() {
  if (SystemExtender::NeedsExtension(ts_)) {
    return Status::InvalidArgument(
        "transaction system must be extended (Def 5) before dependency "
        "computation; run SystemExtender::Extend first");
  }
  schedules_.clear();
  schedules_.resize(ts_.object_count());
  for (size_t i = 0; i < schedules_.size(); ++i) {
    schedules_[i].object = ObjectId(i);
  }
  stats_ = DependencyStats();
  provenance_.reset();
  if (options_.record_provenance) {
    provenance_ = std::make_unique<ProvenanceStore>(ts_.object_count(),
                                                    ts_.action_count());
  }

  Stopwatch sw;
  ComputeConflictPairs();
  ObserveStage(options_.metrics, &sw, "dep.stage.conflict_pairs_ns");
  SeedAxiom1();
  ObserveStage(options_.metrics, &sw, "dep.stage.seed_ns");
  while (PropagateOnce()) {
    ++stats_.fixpoint_rounds;
  }
  ObserveStage(options_.metrics, &sw, "dep.stage.fixpoint_ns");
  FinalizeDerivedStats();
  ObserveStage(options_.metrics, &sw, "dep.stage.derived_stats_ns");
  computed_ = true;
  stats_.PublishTo(options_.metrics);
  return Status::OK();
}

const ObjectSchedule& DependencyEngine::ForObject(ObjectId o) const {
  return schedules_[o.value];
}

const Digraph& DependencyEngine::TopLevelOrder() const {
  return schedules_[ObjectId::kSystem].action_deps;
}

void DependencyEngine::FinalizeDerivedStats() {
  for (const ObjectSchedule& sch : schedules_) {
    for (const auto& [a, b] : sch.conflict_pairs) {
      bool dep = sch.action_deps.HasEdge(a.value, b.value) ||
                 sch.action_deps.HasEdge(b.value, a.value);
      if (dep) {
        // Inheritance that stopped because callers commute: dependent,
        // conflicting pairs whose callers are distinct and commute at
        // the callers' object. This is the paper's "the dependency can
        // be neglected at the higher level" count.
        ActionId t = ts_.action(a).parent;
        ActionId u = ts_.action(b).parent;
        if (!t.valid() || !u.valid() || t == u) continue;
        if (ts_.action(t).object == ts_.action(u).object &&
            ts_.Commute(t, u)) {
          ++stats_.stopped_inheritance;
        }
        continue;
      }
      // Conflicting cross-transaction pairs that never acquired a
      // direction (both actions executed, but their subtrees share no
      // object).
      if (ts_.action(a).top_level == ts_.action(b).top_level) continue;
      bool a_ran = ts_.IsPrimitive(a) ? ts_.action(a).timestamp != 0
                                      : !ts_.action(a).children.empty();
      bool b_ran = ts_.IsPrimitive(b) ? ts_.action(b).timestamp != 0
                                      : !ts_.action(b).children.empty();
      if (a_ran && b_ran) ++stats_.unordered_conflicts;
    }
  }
}

void DependencyEngine::ComputeConflictPairs() {
  for (ObjectSchedule& sch : schedules_) {
    const auto& acts = ts_.ActionsOn(sch.object);
    for (size_t i = 0; i < acts.size(); ++i) {
      for (size_t j = i + 1; j < acts.size(); ++j) {
        if (!ts_.Commute(acts[i], acts[j])) {
          sch.conflict_pairs.emplace_back(acts[i], acts[j]);
        }
      }
    }
  }
}

void DependencyEngine::SeedAxiom1() {
  // Axiom 1: conflicting primitive actions are totally ordered — here by
  // their execution timestamps. Pairs where a timestamp is missing (an
  // action never executed) contribute nothing.
  for (ObjectSchedule& sch : schedules_) {
    for (const auto& [a, b] : sch.conflict_pairs) {
      if (!ts_.IsPrimitive(a) || !ts_.IsPrimitive(b)) continue;
      uint64_t ta = ts_.action(a).timestamp;
      uint64_t tb = ts_.action(b).timestamp;
      if (ta == 0 || tb == 0 || ta == tb) continue;
      ActionId first = ta < tb ? a : b;
      ActionId second = ta < tb ? b : a;
      sch.action_deps.AddEdge(first.value, second.value);
      if (provenance_) {
        provenance_->Record(
            DepRelation::kAction, sch.object, first, second,
            {DepRule::kAxiom1, sch.object, first, second});
      }
      ++stats_.primitive_conflicts;
    }
  }
}

bool DependencyEngine::PropagateOnce() {
  bool changed = false;

  // Def 10: conflicting, dependent action pairs inherit their direction
  // to the calling actions as a transaction dependency at this object.
  for (ObjectSchedule& sch : schedules_) {
    for (const auto& [a, b] : sch.conflict_pairs) {
      ActionId t = ts_.action(a).parent;
      ActionId u = ts_.action(b).parent;
      if (!t.valid() || !u.valid() || t == u) continue;
      if (sch.action_deps.HasEdge(a.value, b.value) &&
          !sch.txn_deps.HasEdge(t.value, u.value)) {
        sch.txn_deps.AddEdge(t.value, u.value);
        if (provenance_) {
          provenance_->Record(DepRelation::kTxn, sch.object, t, u,
                              {DepRule::kDef10, sch.object, a, b});
        }
        ++stats_.inherited_txn_deps;
        changed = true;
      }
      if (sch.action_deps.HasEdge(b.value, a.value) &&
          !sch.txn_deps.HasEdge(u.value, t.value)) {
        sch.txn_deps.AddEdge(u.value, t.value);
        if (provenance_) {
          provenance_->Record(DepRelation::kTxn, sch.object, u, t,
                              {DepRule::kDef10, sch.object, b, a});
        }
        ++stats_.inherited_txn_deps;
        changed = true;
      }
    }
  }

  // Def 11 / Def 15: a transaction dependency (t, u) recorded at any
  // object becomes an action dependency at the object where both t and u
  // are actions, or an added action dependency at each endpoint's object
  // when they differ.
  for (ObjectSchedule& sch : schedules_) {
    for (Digraph::NodeId tn : sch.txn_deps.Nodes()) {
      for (Digraph::NodeId un : sch.txn_deps.Successors(tn)) {
        ObjectId ot = ts_.action(ActionId(tn)).object;
        ObjectId ou = ts_.action(ActionId(un)).object;
        if (ot == ou) {
          ObjectSchedule& target = schedules_[ot.value];
          if (!target.action_deps.HasEdge(tn, un)) {
            target.action_deps.AddEdge(tn, un);
            if (provenance_) {
              provenance_->Record(
                  DepRelation::kAction, ot, ActionId(tn), ActionId(un),
                  {DepRule::kDef11, sch.object, ActionId(tn),
                   ActionId(un)});
            }
            changed = true;
          }
        } else {
          ObjectSchedule& st = schedules_[ot.value];
          ObjectSchedule& su = schedules_[ou.value];
          if (!st.added_deps.HasEdge(tn, un)) {
            st.added_deps.AddEdge(tn, un);
            if (provenance_) {
              provenance_->Record(
                  DepRelation::kAdded, ot, ActionId(tn), ActionId(un),
                  {DepRule::kDef15, sch.object, ActionId(tn),
                   ActionId(un)});
            }
            ++stats_.added_deps;
            changed = true;
          }
          if (!su.added_deps.HasEdge(tn, un)) {
            su.added_deps.AddEdge(tn, un);
            if (provenance_) {
              provenance_->Record(
                  DepRelation::kAdded, ou, ActionId(tn), ActionId(un),
                  {DepRule::kDef15, sch.object, ActionId(tn),
                   ActionId(un)});
            }
            ++stats_.added_deps;
            changed = true;
          }
        }
      }
    }
  }
  return changed;
}

}  // namespace oodb
