// Commutativity-inference tests (lint pass 6 + `oodb infer` engine):
//
//   * seeded defects — a fifo spec that lies about deq/deq, an
//     escrow-ish spec that lies about balance/deposit, and a mutating
//     "observer" must all be caught as errors;
//   * properties — fitted shapes never contradict their own probe
//     evidence (soundness), synthesized specs are symmetric (Def 9),
//     evidence is monotone under corpus growth, inference is
//     deterministic;
//   * regression pins for every hand-spec entry this inference work
//     tightened (fifo, directory, bptree scan/search, bucket info);
//   * verdict equivalence — Def 13/16 validation verdicts are identical
//     under the hand specs and the synthesized specs, on live runs and
//     on all Section 9 anomaly worlds.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/commutativity_inference.h"
#include "analysis/corpus.h"
#include "analysis/spec_synthesis.h"
#include "apps/bank.h"
#include "apps/document.h"
#include "apps/encyclopedia.h"
#include "cc/database.h"
#include "containers/bptree.h"
#include "containers/directory.h"
#include "containers/escrow.h"
#include "containers/fifo_queue.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "schedule/validator.h"
#include "workload/anomalies.h"

namespace oodb {
namespace {

using analysis::BuildTypeCorpus;
using analysis::CompareWithHand;
using analysis::Diagnostic;
using analysis::EntryKind;
using analysis::InferenceOptions;
using analysis::InferredMatrix;
using analysis::InferType;
using analysis::MethodPairEntry;
using analysis::PairEvidence;
using analysis::Severity;
using analysis::SynthesizedSpec;
using analysis::TypeCorpus;

bool HasDiagnostic(const std::vector<Diagnostic>& diags, Severity severity,
                   const std::string& message_substring) {
  for (const Diagnostic& d : diags) {
    if (d.severity == severity &&
        d.message.find(message_substring) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void RegisterContainers(Database* db) {
  RegisterQueueMethods(db);
  RegisterDirectoryMethods(db);
  RegisterAccountMethods(db, EscrowAccountType());
  RegisterAccountMethods(db, NameOnlyAccountType());
  RegisterAccountMethods(db, RWAccountType());
  RegisterPageMethods(db);
  BpTree::RegisterMethods(db);
  HashIndex::RegisterMethods(db);
}

// --- seeded defects ---------------------------------------------------

/// A queue whose deq returns the head — order-observable — but whose
/// spec claims every enq/enq and deq/deq pair commutes.
struct SeededListState : public ObjectState {
  std::deque<std::string> items;
};

std::unique_ptr<MatrixCommutativity> LyingFifoSpec() {
  auto spec = std::make_unique<MatrixCommutativity>();
  spec->SetCommutes("deq", "deq");  // lie: deq returns the head
  spec->SetCommutes("enq", "enq");  // lie: order shows in the sequence
  return spec;
}

TypeProbeTraits SeededListProbe() {
  return {.states = {{"two",
                      [] {
                        auto s = std::make_unique<SeededListState>();
                        s->items = {"a", "b"};
                        return std::unique_ptr<ObjectState>(std::move(s));
                      }}},
          .fingerprint = [](const ObjectState& raw) {
            std::string out;
            for (const auto& item :
                 static_cast<const SeededListState&>(raw).items) {
              out += item + ",";
            }
            return out;
          }};
}

void RegisterSeededList(Database* db, const ObjectType* type) {
  db->Register(type, "enq",
               [](MethodContext& ctx, const ValueList& params,
                  Value* result) -> Status {
                 ctx.state<SeededListState>()->items.push_back(
                     params[0].AsString());
                 *result = Value();
                 return Status::OK();
               },
               {.calls = {},
                .samples = {{Value("x")}, {Value("y")}},
                .compensations = {},
                .undo_free = true});
  db->Register(type, "deq",
               [](MethodContext& ctx, const ValueList&,
                  Value* result) -> Status {
                 auto* s = ctx.state<SeededListState>();
                 if (s->items.empty()) return Status::NotFound("empty");
                 *result = Value(s->items.front());
                 s->items.pop_front();
                 return Status::OK();
               },
               {.calls = {},
                .samples = {{}},
                .compensations = {},
                .undo_free = true});
  db->DeclareProbe(type, SeededListProbe());
}

TEST(SeededDefects, LyingFifoSpecIsCaught) {
  ObjectType type("SeededFifo", LyingFifoSpec(), /*primitive=*/true);
  Database db;
  RegisterSeededList(&db, &type);

  const InferredMatrix matrix = InferType(&type, db.registry());
  ASSERT_TRUE(matrix.probed);
  EXPECT_GE(matrix.unsound_pairs(), 2u);  // deq/deq and enq/enq

  const MethodPairEntry* deq = matrix.Entry("deq", "deq");
  ASSERT_NE(deq, nullptr);
  EXPECT_GT(deq->unsound, 0u);
  EXPECT_EQ(deq->kind, EntryKind::kConflicts);
  const MethodPairEntry* enq = matrix.Entry("enq", "enq");
  ASSERT_NE(enq, nullptr);
  EXPECT_GT(enq->unsound, 0u);

  // Pass 6 escalates the refuted entries to errors, with a witness.
  const auto diags = CompareWithHand(matrix);
  EXPECT_TRUE(HasDiagnostic(diags, Severity::kError, "diverged"));

  // The synthesized spec refuses what probing refuted.
  SynthesizedSpec spec(matrix);
  EXPECT_FALSE(spec.Commutes(Invocation("deq"), Invocation("deq")));
}

/// An account whose balance observer is order-sensitive against
/// deposit, but whose spec claims they commute.
struct SeededAccountState : public ObjectState {
  int64_t balance = 0;
};

TEST(SeededDefects, LyingEscrowSpecIsCaught) {
  auto lying = std::make_unique<MatrixCommutativity>();
  lying->SetCommutes("deposit", "deposit");  // true
  lying->SetCommutes("balance", "deposit");  // lie: balance sees order
  ObjectType type("SeededEscrow", std::move(lying), /*primitive=*/true);
  Database db;
  db.Register(&type, "deposit",
              [](MethodContext& ctx, const ValueList& params,
                 Value* result) -> Status {
                ctx.state<SeededAccountState>()->balance +=
                    params[0].AsInt();
                *result = params[0];
                return Status::OK();
              },
              {.calls = {},
               .samples = {{Value(5)}, {Value(7)}},
               .compensations = {},
               .undo_free = true});
  db.Register(&type, "balance",
              [](MethodContext& ctx, const ValueList&,
                 Value* result) -> Status {
                *result =
                    Value(ctx.state<SeededAccountState>()->balance);
                return Status::OK();
              },
              {.observer = true,
               .calls = {},
               .samples = {{}},
               .compensations = {}});
  db.DeclareProbe(&type,
                  {.states = {{"hundred",
                               [] {
                                 auto s =
                                     std::make_unique<SeededAccountState>();
                                 s->balance = 100;
                                 return std::unique_ptr<ObjectState>(
                                     std::move(s));
                               }}},
                   .fingerprint = [](const ObjectState& raw) {
                     return std::to_string(
                         static_cast<const SeededAccountState&>(raw)
                             .balance);
                   }});

  const InferredMatrix matrix = InferType(&type, db.registry());
  ASSERT_TRUE(matrix.probed);
  const MethodPairEntry* entry = matrix.Entry("balance", "deposit");
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->unsound, 0u);
  EXPECT_EQ(entry->kind, EntryKind::kConflicts);
  // deposit/deposit really does commute; no false positive there.
  const MethodPairEntry* dd = matrix.Entry("deposit", "deposit");
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->unsound, 0u);
  EXPECT_EQ(dd->kind, EntryKind::kCommutes);
  EXPECT_TRUE(HasDiagnostic(CompareWithHand(matrix), Severity::kError,
                            "diverged"));
}

TEST(SeededDefects, MutatingObserverIsCaught) {
  auto spec = std::make_unique<MatrixCommutativity>();
  spec->SetCommutes("peek", "peek");
  ObjectType type("SeededPeeker", std::move(spec), /*primitive=*/true);
  Database db;
  db.Register(&type, "peek",
              [](MethodContext& ctx, const ValueList&,
                 Value* result) -> Status {
                // Claims to observe, but bumps the balance.
                *result = Value(++ctx.state<SeededAccountState>()->balance);
                return Status::OK();
              },
              {.observer = true,
               .calls = {},
               .samples = {{}},
               .compensations = {}});
  db.DeclareProbe(&type,
                  {.states = {{"zero",
                               [] {
                                 return std::unique_ptr<ObjectState>(
                                     std::make_unique<SeededAccountState>());
                               }}},
                   .fingerprint = [](const ObjectState& raw) {
                     return std::to_string(
                         static_cast<const SeededAccountState&>(raw)
                             .balance);
                   }});

  const InferredMatrix matrix = InferType(&type, db.registry());
  ASSERT_FALSE(matrix.observer_violations.empty());
  EXPECT_EQ(matrix.observer_violations[0].method, "peek");
  EXPECT_TRUE(HasDiagnostic(CompareWithHand(matrix), Severity::kError,
                            "mutated probe state"));
}

// --- properties -------------------------------------------------------

TEST(InferenceProperties, ShippedSchemasAreSound) {
  // No shipped hand entry is refuted by probing, and no shipped
  // observer mutates a probe state.
  Database db;
  RegisterContainers(&db);
  for (const ObjectType* type : db.registry().Types()) {
    const InferredMatrix matrix = InferType(type, db.registry());
    EXPECT_EQ(matrix.unsound_pairs(), 0u) << matrix.type_name;
    EXPECT_TRUE(matrix.observer_violations.empty()) << matrix.type_name;
  }
}

TEST(InferenceProperties, FittedShapesNeverContradictEvidence) {
  // Internal soundness: wherever the fitted entry claims commutativity
  // for a probed combination, that combination's both-orders evidence
  // contains no divergence.
  Database db;
  RegisterContainers(&db);
  for (const ObjectType* type : db.registry().Types()) {
    const InferredMatrix matrix = InferType(type, db.registry());
    if (!matrix.probed) continue;
    for (const MethodPairEntry& entry : matrix.entries) {
      for (const PairEvidence& ev : entry.evidence) {
        if (entry.Commutes(ev.a, ev.b)) {
          EXPECT_EQ(ev.divergent, 0u)
              << matrix.type_name << "." << entry.method_a << "/"
              << entry.method_b << " on " << ev.a.ToString() << " + "
              << ev.b.ToString();
        }
      }
    }
  }
}

TEST(InferenceProperties, SynthesizedSpecsAreSymmetric) {
  // Def 9 commutativity is symmetric; the synthesized spec must be too,
  // across corpus params and their mutations.
  Database db;
  RegisterContainers(&db);
  for (const ObjectType* type : db.registry().Types()) {
    SynthesizedSpec spec(InferType(type, db.registry()));
    const TypeCorpus corpus = BuildTypeCorpus(type, db.registry());
    std::vector<Invocation> invocations;
    for (const auto& method : corpus.methods) {
      for (const ValueList& params : method.params) {
        invocations.emplace_back(method.method, params);
        invocations.emplace_back(method.method,
                                 analysis::MutateParams(params));
      }
    }
    for (const Invocation& x : invocations) {
      for (const Invocation& y : invocations) {
        EXPECT_EQ(spec.Commutes(x, y), spec.Commutes(y, x))
            << type->name() << ": " << x.ToString() << " vs "
            << y.ToString();
      }
    }
  }
}

TEST(InferenceProperties, EvidenceIsMonotoneUnderCorpusGrowth) {
  // Growing the probe corpus only adds combinations; the verdict of
  // every combination probed under the truncated corpus is unchanged
  // under the full corpus.
  Database db;
  RegisterContainers(&db);
  InferenceOptions truncated;
  truncated.max_params_per_method = 2;
  for (const ObjectType* type :
       {FifoQueueType(), DirectoryType(), PageObjectType()}) {
    const InferredMatrix small = InferType(type, db.registry(), truncated);
    const InferredMatrix full = InferType(type, db.registry());
    ASSERT_TRUE(small.probed);
    EXPECT_GE(full.pairs_probed, small.pairs_probed);
    for (const MethodPairEntry& entry : small.entries) {
      const MethodPairEntry* wide = full.Entry(entry.method_a,
                                               entry.method_b);
      ASSERT_NE(wide, nullptr);
      for (const PairEvidence& ev : entry.evidence) {
        bool found = false;
        for (const PairEvidence& wev : wide->evidence) {
          if ((wev.a == ev.a && wev.b == ev.b) ||
              (wev.a == ev.b && wev.b == ev.a)) {
            found = true;
            EXPECT_EQ(wev.equivalent, ev.equivalent);
            EXPECT_EQ(wev.divergent, ev.divergent);
            EXPECT_EQ(wev.vacuous, ev.vacuous);
            break;
          }
        }
        EXPECT_TRUE(found)
            << type->name() << ": combination " << ev.a.ToString() << " + "
            << ev.b.ToString() << " vanished under the larger corpus";
      }
    }
  }
}

TEST(InferenceProperties, InferenceIsDeterministic) {
  Database db;
  RegisterContainers(&db);
  for (const ObjectType* type : db.registry().Types()) {
    EXPECT_EQ(
        analysis::RenderInferredText(InferType(type, db.registry())),
        analysis::RenderInferredText(InferType(type, db.registry())));
  }
}

// --- regression pins for the tightened hand specs ---------------------

TEST(TightenedSpecs, FifoQueuePins) {
  const ObjectType* q = FifoQueueType();
  const Invocation enq_x("enq", {Value("x")});
  const Invocation enq_y("enq", {Value("y")});
  // Same-element enqueues commute (inference: same-param(0)); distinct
  // elements are order-visible in the sequence.
  EXPECT_TRUE(q->Commutes(enq_x, enq_x));
  EXPECT_FALSE(q->Commutes(enq_x, enq_y));
  // enq (tail) and pushFront (head) target different ends.
  EXPECT_TRUE(q->Commutes(enq_x, Invocation("pushFront", {Value("y")})));
  // cancel removes a named element: blind to order against enq of a
  // different element, conflicting for the same element.
  EXPECT_TRUE(q->Commutes(Invocation("cancel", {Value("x")}), enq_y));
  EXPECT_FALSE(q->Commutes(Invocation("cancel", {Value("x")}), enq_x));
  EXPECT_TRUE(q->Commutes(Invocation("cancel", {Value("x")}),
                          Invocation("cancel", {Value("x")})));
  // deq returns the head: never commutes with itself or enq.
  EXPECT_FALSE(q->Commutes(Invocation("deq"), Invocation("deq")));
  EXPECT_FALSE(q->Commutes(Invocation("deq"), enq_x));
  EXPECT_TRUE(q->Commutes(Invocation("size"), Invocation("size")));
}

TEST(TightenedSpecs, BTreeAndBucketObserverPins) {
  // scan/search (bptree) and info/info, info/search (hash bucket) were
  // added after the deep-observer rule proved them; pin them.
  const Invocation scan("scan", {Value("a"), Value("z")});
  const Invocation search("search", {Value("k")});
  for (const ObjectType* t :
       {BpTreeObjectType(), NodeObjectType(), LeafObjectType()}) {
    EXPECT_TRUE(t->Commutes(scan, search)) << t->name();
    EXPECT_TRUE(t->Commutes(search, scan)) << t->name();
  }
  const Invocation info("info", {});
  for (const ObjectType* t : {HashIndexObjectType(), BucketObjectType()}) {
    EXPECT_TRUE(t->Commutes(info, info)) << t->name();
    EXPECT_TRUE(t->Commutes(info, search)) << t->name();
    EXPECT_TRUE(t->Commutes(search, info)) << t->name();
  }
}

TEST(TightenedSpecs, ShippedProbedTypesMatchOrBeatHandSpecs) {
  // Acceptance: inference is at least as tight as the hand spec on
  // every entry (unsound == 0 everywhere, checked above) and strictly
  // tighter somewhere.
  Database db;
  RegisterContainers(&db);

  // The escrow account and the fifo queue hand specs are exactly tight:
  // nothing gained, nothing refuted.
  for (const ObjectType* type : {EscrowAccountType(), FifoQueueType()}) {
    const InferredMatrix matrix = InferType(type, db.registry());
    ASSERT_TRUE(matrix.probed) << type->name();
    EXPECT_EQ(matrix.gained_pairs(), 0u) << type->name();
    EXPECT_EQ(matrix.unsound_pairs(), 0u) << type->name();
  }

  // The escrow ablations deliberately lose concurrency; inference
  // quantifies it.
  const InferredMatrix name_only =
      InferType(NameOnlyAccountType(), db.registry());
  const MethodPairEntry* dw = name_only.Entry("deposit", "withdraw");
  ASSERT_NE(dw, nullptr);
  EXPECT_EQ(dw->kind, EntryKind::kCommutes);
  EXPECT_GT(dw->gained, 0u);

  // Directory: keyed entries infer exactly as declared, and the
  // evidence table proves updates of keys absent from every probe
  // state commute — strictly tighter than DifferentParam(0).
  const InferredMatrix dir = InferType(DirectoryType(), db.registry());
  const MethodPairEntry* ins = dir.Entry("insert", "insert");
  ASSERT_NE(ins, nullptr);
  EXPECT_EQ(ins->kind, EntryKind::kDifferentParam);
  EXPECT_EQ(ins->param_index, 0u);
  const MethodPairEntry* upd = dir.Entry("update", "update");
  ASSERT_NE(upd, nullptr);
  EXPECT_EQ(upd->kind, EntryKind::kEvidence);
  EXPECT_GT(upd->gained, 0u);

  // Page: the hand spec is the conventional reader/writer zero layer;
  // probing proves the keyed semantics (the paper's layered delta).
  const InferredMatrix page = InferType(PageObjectType(), db.registry());
  const MethodPairEntry* ww = page.Entry("write", "write");
  ASSERT_NE(ww, nullptr);
  EXPECT_EQ(ww->kind, EntryKind::kDifferentParamOrIdentical);
  EXPECT_GT(ww->gained, 0u);
  const MethodPairEntry* rw = page.Entry("read", "write");
  ASSERT_NE(rw, nullptr);
  EXPECT_EQ(rw->kind, EntryKind::kDifferentParam);
  EXPECT_GT(rw->gained, 0u);
  const MethodPairEntry* sw = page.Entry("scan", "write");
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->kind, EntryKind::kConflicts);
}

// --- verdict equivalence (Defs 13/16) ---------------------------------

/// Installs a synthesized spec for every registered type; the returned
/// specs must outlive the system.
std::vector<std::unique_ptr<SynthesizedSpec>> InstallInferred(
    Database* db) {
  std::vector<std::unique_ptr<SynthesizedSpec>> specs;
  for (const ObjectType* type : db->registry().Types()) {
    specs.push_back(std::make_unique<SynthesizedSpec>(
        InferType(type, db->registry())));
    db->ts().SetSpecOverride(type, specs.back().get());
  }
  return specs;
}

TEST(VerdictEquivalence, LiveDocumentRunValidatesIdentically) {
  DatabaseOptions opts;
  Database db(opts);
  Document::RegisterMethods(&db);
  ObjectId doc = Document::Create(&db, "Paper", /*sections=*/3);
  for (int round = 0; round < 4; ++round) {
    for (int s = 0; s < 3; ++s) {
      ASSERT_TRUE(db.RunTransaction("edit", [&](MethodContext& txn) {
                      return txn.Call(
                          doc, Document::EditSection(
                                   s, "r" + std::to_string(round)));
                    }).ok());
    }
    Value out;
    ASSERT_TRUE(db.RunTransaction("read", [&](MethodContext& txn) {
                    return txn.Call(doc, Document::ReadAll(), &out);
                  }).ok());
  }

  ValidationReport hand = Validator::Validate(&db.ts());
  const auto specs = InstallInferred(&db);
  ValidationOptions already_extended;
  already_extended.apply_extension = false;
  ValidationReport inferred =
      Validator::Validate(&db.ts(), already_extended);

  EXPECT_TRUE(hand.oo_serializable) << hand.Summary();
  EXPECT_EQ(hand.oo_serializable, inferred.oo_serializable);
  EXPECT_EQ(hand.conform, inferred.conform);
}

TEST(VerdictEquivalence, AnomalyWorldsValidateIdentically) {
  // The Section 9 worlds use the keyed Leaf/Page types; Page is probed,
  // the rest delegate. Every bad variant must stay rejected and every
  // good variant accepted under the synthesized specs.
  Database registry_db;
  Encyclopedia::RegisterMethods(&registry_db);
  std::vector<std::unique_ptr<SynthesizedSpec>> specs;
  std::vector<const ObjectType*> types;
  for (const ObjectType* type : registry_db.registry().Types()) {
    specs.push_back(std::make_unique<SynthesizedSpec>(
        InferType(type, registry_db.registry())));
    types.push_back(type);
  }

  for (AnomalyKind kind : AllAnomalyKinds()) {
    for (bool bad : {false, true}) {
      std::unique_ptr<TransactionSystem> ts = MakeAnomaly(kind, bad);
      ValidationReport hand = Validator::Validate(ts.get());
      for (size_t i = 0; i < types.size(); ++i) {
        ts->SetSpecOverride(types[i], specs[i].get());
      }
      ValidationOptions already_extended;
      already_extended.apply_extension = false;
      ValidationReport inferred =
          Validator::Validate(ts.get(), already_extended);
      EXPECT_EQ(hand.oo_serializable, !bad)
          << AnomalyKindName(kind) << " bad=" << bad;
      EXPECT_EQ(hand.oo_serializable, inferred.oo_serializable)
          << AnomalyKindName(kind) << " bad=" << bad;
    }
  }
}

// --- analyzer integration (pass 6 wiring) -----------------------------

TEST(AnalyzerIntegration, Pass6RunsAndStaysCleanOnShippedSchemas) {
  Database db;
  Document::RegisterMethods(&db);
  const analysis::AnalysisReport report =
      analysis::AnalyzeSchema("document", db);
  EXPECT_GT(report.inference.types, 0u);
  EXPECT_GT(report.inference.pairs_probed, 0u);   // Page probes
  EXPECT_GT(report.inference.entries_tightened, 0u);
  EXPECT_EQ(report.inference.entries_unsound, 0u);
  EXPECT_EQ(report.errors(), 0u);
  // Lost-concurrency findings surface as notes, never as gating
  // diagnostics.
  bool found_note = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.pass != "inference") continue;
    EXPECT_EQ(d.severity, Severity::kNote) << d.ToString();
    found_note = true;
  }
  EXPECT_TRUE(found_note);
}

TEST(AnalyzerIntegration, InferenceCanBeDisabled) {
  Database db;
  Document::RegisterMethods(&db);
  analysis::AnalyzerOptions options;
  options.inference = false;
  const analysis::AnalysisReport report =
      analysis::AnalyzeSchema("document", db, options);
  EXPECT_EQ(report.inference.types, 0u);
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_NE(d.pass, "inference") << d.ToString();
  }
}

}  // namespace
}  // namespace oodb
