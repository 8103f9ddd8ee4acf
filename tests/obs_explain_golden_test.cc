// Byte-stable explanations, pinned against checked-in goldens:
//
//   * the Fig 7 / Example 4 schedule through the real runtime (the
//     accepting case: relations + serialization order, no witnesses);
//   * every Section 9 anomaly scenario (bad variant) — witness cycles
//     with full provenance chains down to the Axiom 1 conflicts;
//   * the paper's B-link rearrangement world, where the witness chain
//     hops through the Def 5 virtual object Node6'.
//
// The goldens live in tests/golden/ and double as the reference for
// the `oodb explain` golden gates (ctest and CI), which diff the CLI's
// output against the same files. Regenerate after an intentional
// format change with:
//   OODB_REGEN_GOLDENS=1 ./build/tests/obs_explain_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cc/database.h"
#include "obs/explain.h"
#include "schedule/validator.h"
#include "workload/anomalies.h"
#include "workload/paper_worlds.h"

namespace oodb {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(OODB_GOLDEN_DIR) + "/" + name;
}

/// Compares `actual` against the golden file, or rewrites the file when
/// OODB_REGEN_GOLDENS is set.
void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = GoldenPath(name);
  if (std::getenv("OODB_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (regenerate with OODB_REGEN_GOLDENS=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual) << name;
}

/// Provenance-recording validation — the pipeline `oodb explain` runs,
/// so these goldens also pin the CLI's output.
ValidationReport Validate(TransactionSystem* ts) {
  ValidationOptions options;
  options.record_provenance = true;
  return Validator::Validate(ts, options);
}

TEST(ExplainGoldenTest, S9AnomalyExplanations) {
  for (AnomalyKind kind : AllAnomalyKinds()) {
    std::unique_ptr<TransactionSystem> ts = MakeAnomaly(kind, /*bad=*/true);
    ValidationReport report = Validate(ts.get());
    EXPECT_FALSE(report.oo_serializable) << AnomalyKindName(kind);
    Explainer explainer(*ts, report);
    ExpectMatchesGolden(explainer.Text(), std::string("explain_s9_") +
                                              AnomalyKindName(kind) + ".txt");
  }
}

TEST(ExplainGoldenTest, S9LostUpdateDotAndJson) {
  std::unique_ptr<TransactionSystem> ts =
      MakeAnomaly(AnomalyKind::kLostUpdate, /*bad=*/true);
  ValidationReport report = Validate(ts.get());
  Explainer explainer(*ts, report);
  ExpectMatchesGolden(explainer.Dot(), "explain_s9_lost-update.dot");
  ExpectMatchesGolden(explainer.Json(), "explain_s9_lost-update.json");
}

TEST(ExplainGoldenTest, Fig7Explanation) {
  // The Example 4 schedule through the real runtime, exactly as
  // `oodb explain --workload=fig7` runs it.
  Database db;
  (void)RunExample4(&db);

  ValidationReport report = Validate(&db.ts());
  EXPECT_TRUE(report.oo_serializable);
  EXPECT_TRUE(report.witnesses.empty());
  Explainer explainer(db.ts(), report);
  ExpectMatchesGolden(explainer.Text(), "explain_fig7.txt");
}

// --- the B-link world: a Def 5 virtual-object witness ----------------

/// B-link node pages: insert and rearrange are primitive page-level
/// operations; inserts on the same key conflict, rearrangement
/// conflicts with everything.
const ObjectType* NodeType() {
  static const ObjectType* type = [] {
    auto spec = std::make_unique<PredicateCommutativity>();
    spec->SetPredicate("insert", "insert",
                       PredicateCommutativity::DifferentParam(0));
    spec->SetConflicts("insert", "rearrange");
    spec->SetConflicts("rearrange", "rearrange");
    return new ObjectType("Node", std::move(spec), /*primitive=*/true);
  }();
  return type;
}

/// The paper's section 2 shape: T1's insert into Node6 triggers a
/// rearrangement of Node6 itself — the call-path cycle the Def 5
/// extension breaks by moving the rearrangement to the virtual object
/// Node6' and virtually duplicating the other Node6 actions there. T2
/// inserts the same key into Node6 and the same key into Leaf11 as T1,
/// but the two objects saw the transactions in opposite orders:
///   Node6':  T1.rearrange (t=1)  before  T2.insert' (t=2)
///   Leaf11:  T2.insert    (t=3)  before  T1.insert  (t=4)
/// The contradiction (Def 13 ii, at S) is only derivable through the
/// virtual object: the rearrange/insert conflict surfaces on Node6',
/// inherits to the Node6 inserts (Def 10), and is placed back at Node6
/// (Def 11) — the witness chain must hop through Node6'.
std::unique_ptr<TransactionSystem> MakeBLinkConflict() {
  auto ts = std::make_unique<TransactionSystem>();
  ObjectId node6 = ts->AddObject(NodeType(), "Node6");
  ObjectId leaf11 = ts->AddObject(NodeType(), "Leaf11");

  ActionId t1 = ts->BeginTopLevel("T1");
  ActionId ins1 = ts->Call(t1, node6, Invocation("insert", {Value("k")}));
  ActionId rearr1 = ts->Call(ins1, node6, Invocation("rearrange"));
  ActionId leaf1 = ts->Call(t1, leaf11, Invocation("insert", {Value("m")}));

  ActionId t2 = ts->BeginTopLevel("T2");
  ActionId ins2 = ts->Call(t2, node6, Invocation("insert", {Value("k")}));
  ActionId leaf2 = ts->Call(t2, leaf11, Invocation("insert", {Value("m")}));

  ts->SetTimestamp(rearr1, 1);
  ts->SetTimestamp(ins2, 2);  // the Def 5 duplicate carries this stamp
  ts->SetTimestamp(leaf2, 3);
  ts->SetTimestamp(leaf1, 4);
  return ts;
}

TEST(ExplainGoldenTest, BLinkVirtualObjectWitness) {
  std::unique_ptr<TransactionSystem> ts = MakeBLinkConflict();
  ValidationReport report = Validate(ts.get());
  EXPECT_FALSE(report.oo_serializable);
  EXPECT_EQ(report.extension.virtual_objects, 1u);
  ASSERT_FALSE(report.witnesses.empty());

  // Some witness chain must hop through a Def 5 virtual object.
  bool virtual_hop = false;
  for (const Witness& w : report.witnesses) {
    for (const Witness::Edge& e : w.edges) {
      for (const ProvenanceStep& step : e.chain) {
        if (step.object.valid() && ts->object(step.object).is_virtual) {
          virtual_hop = true;
          EXPECT_EQ(ts->object(step.object).name, "Node6'");
        }
      }
    }
  }
  EXPECT_TRUE(virtual_hop);

  Explainer explainer(*ts, report);
  std::string text = explainer.Text();
  EXPECT_NE(text.find("virtual of Node6, Def 5"), std::string::npos);
  ExpectMatchesGolden(text, "explain_blink.txt");
}

}  // namespace
}  // namespace oodb
