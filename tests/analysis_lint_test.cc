// `oodb lint` pass tests: each seeded defect class — asymmetric spec,
// diverging lock table, schema rot in the call graph, naked mutator —
// must be caught, and the shipped app schemas must audit clean
// (errors and warnings gate; notes are properties, not defects).

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/call_graph.h"
#include "analysis/corpus.h"
#include "analysis/lock_conformance.h"
#include "analysis/spec_soundness.h"
#include "analysis/undo_completeness.h"
#include "apps/bank.h"
#include "apps/document.h"
#include "apps/encyclopedia.h"
#include "cc/database.h"

namespace oodb {
namespace {

using analysis::AnalysisReport;
using analysis::AnalyzeSchema;
using analysis::AnalyzerOptions;
using analysis::BuildTypeCorpus;
using analysis::CheckLockConformance;
using analysis::CheckSpecSoundness;
using analysis::CheckUndoCompleteness;
using analysis::Diagnostic;
using analysis::LockConformanceOptions;
using analysis::Severity;
using analysis::TypeCorpus;

Status NoOp(MethodContext&, const ValueList&, Value*) {
  return Status::OK();
}

bool HasDiagnostic(const std::vector<Diagnostic>& diags, Severity severity,
                   const std::string& pass,
                   const std::string& message_substring) {
  for (const Diagnostic& d : diags) {
    if (d.severity == severity && d.pass == pass &&
        d.message.find(message_substring) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- pass 1: spec soundness ------------------------------------------

/// Deliberately order-dependent: r commutes with w only as (r, w).
class AsymmetricSpec : public CommutativitySpec {
 public:
  bool Commutes(const Invocation& a, const Invocation& b) const override {
    return a.method == "r" && b.method == "w";
  }
};

TEST(SpecSoundness, AsymmetricSpecIsCaught) {
  ObjectType type("BadSym", std::make_unique<AsymmetricSpec>());
  Database db;
  db.Register(&type, "r", NoOp, {.observer = true, .calls = {}, .samples = {}, .compensations = {}});
  db.Register(&type, "w", NoOp);
  const TypeCorpus corpus = BuildTypeCorpus(&type, db.registry());
  const auto diags = CheckSpecSoundness(corpus);
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kError, "spec-soundness",
                            "asymmetric"));
}

TEST(SpecSoundness, UnknownMethodLeakIsCaught) {
  ObjectType type("TooOpen", std::make_unique<AlwaysCommutes>());
  Database db;
  db.Register(&type, "r", NoOp, {.observer = true, .calls = {}, .samples = {}, .compensations = {}});
  const TypeCorpus corpus = BuildTypeCorpus(&type, db.registry());
  const auto diags = CheckSpecSoundness(corpus);
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kWarning, "spec-soundness",
                            "unknown method"));
}

TEST(SpecSoundness, PrimitiveObserverConflictIsCaught) {
  // Two observers that conflict on a primitive type: conventional
  // read/read locking would have admitted them.
  ObjectType type("Sulky", std::make_unique<NeverCommutes>(),
                  /*primitive=*/true);
  Database db;
  db.Register(&type, "peek", NoOp, {.observer = true, .calls = {}, .samples = {}, .compensations = {}});
  const TypeCorpus corpus = BuildTypeCorpus(&type, db.registry());
  const auto diags = CheckSpecSoundness(corpus);
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kWarning, "spec-soundness",
                            "two observers conflict"));
}

TEST(SpecSoundness, SemanticGainOnPrimitiveIsOnlyANote) {
  const TypeCorpus corpus =
      [] {
        Database db;
        Bank::RegisterMethods(&db, BankSemantics::kEscrow);
        return BuildTypeCorpus(EscrowAccountType(), db.registry());
      }();
  const auto diags = CheckSpecSoundness(corpus);
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kNote, "spec-soundness",
                            "beyond the conventional"));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kNote) << d.ToString();
  }
}

// --- pass 3: lock conformance ----------------------------------------

std::unique_ptr<MatrixCommutativity> ReadOnlyMatrix() {
  auto spec = std::make_unique<MatrixCommutativity>();
  spec->SetCommutes("r", "r");
  return spec;
}

TEST(LockConformance, ShippedConfigurationConforms) {
  ObjectType type("Plain", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "r", NoOp, {.observer = true, .calls = {}, .samples = {}, .compensations = {}});
  db.Register(&type, "w", NoOp);
  const TypeCorpus corpus = BuildTypeCorpus(&type, db.registry());
  EXPECT_TRUE(CheckLockConformance(corpus).empty());
}

TEST(LockConformance, DivergingLockTableIsCaught) {
  ObjectType type("Diverge", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "r", NoOp, {.observer = true, .calls = {}, .samples = {}, .compensations = {}});
  db.Register(&type, "w", NoOp);
  const TypeCorpus corpus = BuildTypeCorpus(&type, db.registry());

  // Reference says everything commutes: the lock table (driven by the
  // matrix) blocks pairs the reference admits -> lost concurrency.
  AlwaysCommutes permissive;
  LockConformanceOptions options;
  options.reference = &permissive;
  EXPECT_TRUE(HasDiagnostic(CheckLockConformance(corpus, options),
                            Severity::kWarning, "lock-conformance",
                            "blocks"));

  // Reference says nothing commutes: the lock table admits r/r, which
  // the reference declares a conflict -> soundness error.
  NeverCommutes strict;
  options.reference = &strict;
  EXPECT_TRUE(HasDiagnostic(CheckLockConformance(corpus, options),
                            Severity::kError, "lock-conformance",
                            "admits"));
}

TEST(LockConformance, ReferenceInjectionThroughAnalyzer) {
  ObjectType type("Diverge2", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "r", NoOp, {.observer = true, .calls = {}, .samples = {}, .compensations = {}});
  NeverCommutes strict;
  AnalyzerOptions options;
  options.lock_references["Diverge2"] = &strict;
  const AnalysisReport report = AnalyzeSchema("seeded", db, options);
  EXPECT_TRUE(HasDiagnostic(report.diagnostics, Severity::kError,
                            "lock-conformance", "admits"));
  EXPECT_FALSE(report.Clean());
}

// --- pass 4: call graph ----------------------------------------------

TEST(CallGraph, SchemaRotIsCaught) {
  ObjectType caller("Caller", ReadOnlyMatrix());
  ObjectType prim("Prim", ReadOnlyMatrix(), /*primitive=*/true);
  Database db;
  // Dangling type and dangling method.
  db.Register(&caller, "m", NoOp,
              {.calls = {{"Ghost", "g"}, {"Prim", "nope"}},
               .samples = {},
               .compensations = {}});
  // Def 3 violation: a primitive type with outgoing calls.
  db.Register(&prim, "p", NoOp,
              {.calls = {{"Caller", "m"}},
               .samples = {},
               .compensations = {}});
  // Implementation without declared traits.
  db.Register(&caller, "untraced", NoOp);
  // Traits without implementation (stale schema entry).
  db.DeclareTraits(&caller, "removed", {.observer = true, .calls = {}, .samples = {}, .compensations = {}});

  const auto result = analysis::AnalyzeCallGraph(db.registry());
  EXPECT_TRUE(HasDiagnostic(result.diagnostics, Severity::kError,
                            "call-graph", "type is not registered"));
  EXPECT_TRUE(HasDiagnostic(result.diagnostics, Severity::kError,
                            "call-graph", "method is not registered"));
  EXPECT_TRUE(HasDiagnostic(result.diagnostics, Severity::kError,
                            "call-graph", "Def 3"));
  EXPECT_TRUE(HasDiagnostic(result.diagnostics, Severity::kWarning,
                            "call-graph", "no declared traits"));
  EXPECT_TRUE(HasDiagnostic(result.diagnostics, Severity::kWarning,
                            "call-graph", "no registered"));
}

TEST(CallGraph, TransitiveSelfReachIsADef5Note) {
  ObjectType a("A", ReadOnlyMatrix());
  ObjectType b("B", ReadOnlyMatrix());
  Database db;
  db.Register(&a, "m", NoOp,
              {.calls = {{"B", "n"}}, .samples = {}, .compensations = {}});
  db.Register(&a, "k", NoOp);
  db.Register(&b, "n", NoOp,
              {.calls = {{"A", "k"}}, .samples = {}, .compensations = {}});

  const auto result = analysis::AnalyzeCallGraph(db.registry());
  EXPECT_TRUE(HasDiagnostic(result.diagnostics, Severity::kNote,
                            "call-graph", "Def 5"));
  bool found = false;
  for (const auto& node : result.nodes) {
    if (node.type_name == "A" && node.method == "m") {
      found = true;
      EXPECT_TRUE(node.def5_site);
      EXPECT_EQ(node.def5_path, "A.m -> B.n -> A.k");
    }
  }
  EXPECT_TRUE(found);
}

// --- pass 5: undo completeness ---------------------------------------

TEST(UndoCompleteness, NakedMutatorIsAnError) {
  ObjectType type("NoUndo", ReadOnlyMatrix());
  Database db;
  // A mutator with neither a compensation list nor an undo_free waiver:
  // a loser transaction's effect would survive recovery.
  db.Register(&type, "w", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {}});
  const TypeCorpus corpus = BuildTypeCorpus(&type, db.registry());
  EXPECT_TRUE(HasDiagnostic(CheckUndoCompleteness(corpus), Severity::kError,
                            "undo-completeness",
                            "would survive crash recovery"));
}

TEST(UndoCompleteness, DeclaredInverseAndWaiverPassClean) {
  ObjectType type("Undoable", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "ins", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {"del"}});
  db.Register(&type, "del", NoOp,
              {.calls = {},
               .samples = {{}},
               .compensations = {"ins"},
               .undo_free = true});  // deleting an absent key is a no-op
  const auto diags =
      CheckUndoCompleteness(BuildTypeCorpus(&type, db.registry()));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kNote) << d.ToString();
  }
}

TEST(UndoCompleteness, CompensationOnlyMutatorIsANote) {
  ObjectType type("Queueish", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "enq", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {"cancel"}});
  // cancel exists only to undo enq; recovery never undoes undo actions
  // (they replay as CLRs), so the missing compensation is by design.
  db.Register(&type, "cancel", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {}});
  const auto diags =
      CheckUndoCompleteness(BuildTypeCorpus(&type, db.registry()));
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kNote, "undo-completeness",
                            "declared compensation of 'enq'"));
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.severity, Severity::kError) << d.ToString();
  }
}

TEST(UndoCompleteness, BogusCompensationTargetsAreErrors) {
  ObjectType type("BadComp", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "w", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {"ghost"}});
  db.Register(&type, "w2", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {"r"}});
  db.Register(&type, "r", NoOp,
              {.observer = true, .calls = {}, .samples = {{}},
               .compensations = {}});
  const auto diags =
      CheckUndoCompleteness(BuildTypeCorpus(&type, db.registry()));
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kError, "undo-completeness",
                            "not a registered method"));
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kError, "undo-completeness",
                            "is an observer"));
}

TEST(UndoCompleteness, ObserverWithCompensationsIsAWarning) {
  ObjectType type("OddObs", ReadOnlyMatrix());
  Database db;
  db.Register(&type, "r", NoOp,
              {.observer = true, .calls = {}, .samples = {{}},
               .compensations = {"w"}});
  db.Register(&type, "w", NoOp,
              {.calls = {}, .samples = {{}}, .compensations = {"w"}});
  const auto diags =
      CheckUndoCompleteness(BuildTypeCorpus(&type, db.registry()));
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kWarning, "undo-completeness",
                            "nothing to undo"));
}

// --- the shipped schemas ---------------------------------------------

AnalysisReport AuditShipped(const std::string& name) {
  Database db;
  if (name == "bank") {
    Bank::RegisterMethods(&db, BankSemantics::kEscrow);
    Bank::RegisterMethods(&db, BankSemantics::kNameOnly);
    Bank::RegisterMethods(&db, BankSemantics::kReadWrite);
  } else if (name == "document") {
    Document::RegisterMethods(&db);
  } else {
    Encyclopedia::RegisterMethods(&db);
  }
  return AnalyzeSchema(name, db);
}

TEST(ShippedSchemas, AuditClean) {
  for (const std::string name : {"bank", "document", "encyclopedia"}) {
    const AnalysisReport report = AuditShipped(name);
    EXPECT_TRUE(report.Clean())
        << name << ":\n" << analysis::RenderText(report, true);
    EXPECT_EQ(report.errors(), 0u);
    EXPECT_EQ(report.warnings(), 0u);
  }
}

TEST(ShippedSchemas, BpTreeDef5SitesAreReported) {
  const AnalysisReport report = AuditShipped("encyclopedia");
  EXPECT_TRUE(HasDiagnostic(report.diagnostics, Severity::kNote,
                            "call-graph", "Def 5"));
}

TEST(ShippedSchemas, ReportIsDeterministic) {
  for (const std::string name : {"bank", "document", "encyclopedia"}) {
    const AnalysisReport first = AuditShipped(name);
    const AnalysisReport second = AuditShipped(name);
    EXPECT_EQ(analysis::RenderJson(first), analysis::RenderJson(second));
    EXPECT_EQ(analysis::RenderText(first, true),
              analysis::RenderText(second, true));
  }
}

}  // namespace
}  // namespace oodb
