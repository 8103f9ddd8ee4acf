// Edge provenance and witness extraction:
//
//   * record_provenance off (the default) keeps the report free of
//     provenance, schedules, and chains — and changes nothing else;
//   * every failed Def 13 / Def 16 / Def 7 verdict carries a witness,
//     and accepted executions carry none;
//   * with recording on, every witness edge expands to a well-formed
//     derivation chain ending in an Axiom 1 primitive conflict, each
//     step induced by the next (Def 10 up the call trees, Def 11/15
//     across objects);
//   * reports are byte-stable across repeated runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "schedule/validator.h"
#include "workload/anomalies.h"

namespace oodb {
namespace {

ValidationReport RunAnomaly(AnomalyKind kind, bool bad, bool provenance) {
  std::unique_ptr<TransactionSystem> ts = MakeAnomaly(kind, bad);
  ValidationOptions options;
  options.record_provenance = provenance;
  return Validator::Validate(ts.get(), options);
}

/// A chain is well-formed when each step explains the previous step's
/// inducing fact and the walk bottoms out in an Axiom 1 record whose
/// timestamps agree with the edge direction.
void ExpectChainWellFormed(const TransactionSystem& ts,
                           const Witness::Edge& edge) {
  ASSERT_FALSE(edge.chain.empty());
  EXPECT_EQ(edge.chain.front().from, edge.from);
  EXPECT_EQ(edge.chain.front().to, edge.to);
  EXPECT_EQ(edge.chain.front().relation, edge.relation);
  for (size_t i = 0; i + 1 < edge.chain.size(); ++i) {
    const ProvenanceStep& cur = edge.chain[i];
    const ProvenanceStep& next = edge.chain[i + 1];
    ASSERT_NE(cur.rule, DepRule::kAxiom1) << "axiom1 must be terminal";
    if (cur.rule == DepRule::kDef10) {
      // Inherited from a conflicting action pair at the same object.
      EXPECT_EQ(next.from, cur.cause_from);
      EXPECT_EQ(next.to, cur.cause_to);
      EXPECT_EQ(next.object, cur.object);
    } else {
      // Def 11/15 place the same transaction dependency; the next step
      // explains it at the object where it was recorded.
      EXPECT_EQ(next.from, cur.from);
      EXPECT_EQ(next.to, cur.to);
      EXPECT_EQ(next.object, cur.cause_object);
      EXPECT_EQ(next.relation, DepRelation::kTxn);
    }
  }
  const ProvenanceStep& last = edge.chain.back();
  EXPECT_EQ(last.rule, DepRule::kAxiom1);
  EXPECT_GT(ts.action(last.from).timestamp, 0u);
  EXPECT_LT(ts.action(last.from).timestamp, ts.action(last.to).timestamp);
}

TEST(ProvenanceTest, OffByDefaultAndReportUnchanged) {
  ValidationReport off = RunAnomaly(AnomalyKind::kLostUpdate, true, false);
  ValidationReport on = RunAnomaly(AnomalyKind::kLostUpdate, true, true);

  EXPECT_EQ(off.provenance, nullptr);
  EXPECT_TRUE(off.schedules.empty());
  ASSERT_NE(on.provenance, nullptr);
  EXPECT_GT(on.provenance->EdgeCount(), 0u);
  EXPECT_FALSE(on.schedules.empty());

  // Recording changes nothing about the verdict, the statistics, the
  // diagnostics, or the witness cycles — only the attached evidence.
  EXPECT_EQ(off.oo_serializable, on.oo_serializable);
  EXPECT_EQ(off.conventionally_serializable, on.conventionally_serializable);
  EXPECT_EQ(off.conform, on.conform);
  EXPECT_EQ(off.diagnostics, on.diagnostics);
  ASSERT_EQ(off.witnesses.size(), on.witnesses.size());
  for (size_t i = 0; i < off.witnesses.size(); ++i) {
    EXPECT_EQ(off.witnesses[i].kind, on.witnesses[i].kind);
    EXPECT_EQ(off.witnesses[i].cycle, on.witnesses[i].cycle);
    for (const Witness::Edge& e : off.witnesses[i].edges) {
      EXPECT_TRUE(e.chain.empty());
    }
  }
}

TEST(ProvenanceTest, EveryFailedVerdictCarriesWitness) {
  for (AnomalyKind kind : AllAnomalyKinds()) {
    ValidationReport bad = RunAnomaly(kind, /*bad=*/true, /*provenance=*/false);
    EXPECT_FALSE(bad.oo_serializable) << AnomalyKindName(kind);
    EXPECT_FALSE(bad.witnesses.empty()) << AnomalyKindName(kind);
    for (const Witness& w : bad.witnesses) {
      if (w.kind == Witness::Kind::kConformance) {
        EXPECT_EQ(w.cycle.size(), 2u);
        continue;
      }
      ASSERT_GE(w.cycle.size(), 2u) << AnomalyKindName(kind);
      EXPECT_EQ(w.cycle.front(), w.cycle.back());
      EXPECT_EQ(w.edges.size(), w.cycle.size() - 1);
      EXPECT_TRUE(w.object.valid());
    }

    ValidationReport good = RunAnomaly(kind, /*bad=*/false, /*provenance=*/false);
    EXPECT_TRUE(good.oo_serializable) << AnomalyKindName(kind);
    EXPECT_TRUE(good.witnesses.empty()) << AnomalyKindName(kind);
  }
}

TEST(ProvenanceTest, ChainsExpandToAxiom1) {
  for (AnomalyKind kind : AllAnomalyKinds()) {
    std::unique_ptr<TransactionSystem> ts = MakeAnomaly(kind, /*bad=*/true);
    ValidationOptions options;
    options.record_provenance = true;
    ValidationReport report = Validator::Validate(ts.get(), options);
    ASSERT_FALSE(report.witnesses.empty()) << AnomalyKindName(kind);
    for (const Witness& w : report.witnesses) {
      if (w.kind == Witness::Kind::kConformance) continue;
      for (const Witness::Edge& e : w.edges) {
        ExpectChainWellFormed(*ts, e);
      }
    }
  }
}

TEST(ProvenanceTest, DiagnosticsAndWitnessesAreByteStable) {
  ValidationReport a = RunAnomaly(AnomalyKind::kInconsistentRead, true, true);
  ValidationReport b = RunAnomaly(AnomalyKind::kInconsistentRead, true, true);
  EXPECT_EQ(a.diagnostics, b.diagnostics);
  ASSERT_EQ(a.witnesses.size(), b.witnesses.size());
  for (size_t i = 0; i < a.witnesses.size(); ++i) {
    EXPECT_EQ(a.witnesses[i].cycle, b.witnesses[i].cycle);
    ASSERT_EQ(a.witnesses[i].edges.size(), b.witnesses[i].edges.size());
    for (size_t j = 0; j < a.witnesses[i].edges.size(); ++j) {
      const Witness::Edge& ea = a.witnesses[i].edges[j];
      const Witness::Edge& eb = b.witnesses[i].edges[j];
      EXPECT_EQ(ea.from, eb.from);
      EXPECT_EQ(ea.to, eb.to);
      ASSERT_EQ(ea.chain.size(), eb.chain.size());
      for (size_t k = 0; k < ea.chain.size(); ++k) {
        EXPECT_EQ(ea.chain[k].rule, eb.chain[k].rule);
        EXPECT_EQ(ea.chain[k].from, eb.chain[k].from);
        EXPECT_EQ(ea.chain[k].to, eb.chain[k].to);
        EXPECT_EQ(ea.chain[k].cause_from, eb.chain[k].cause_from);
        EXPECT_EQ(ea.chain[k].cause_to, eb.chain[k].cause_to);
      }
    }
  }
}

}  // namespace
}  // namespace oodb
