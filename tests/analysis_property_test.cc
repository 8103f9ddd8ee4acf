// Property tests for the linter, plus the regression the honesty pass
// exists to prevent: the verdict on a spec that truthfully declares
// kNone (state-dependent, escrow-style) must follow the object state
// at validation time, while a mis-declared state-dependent spec that
// claims a cacheable class must be caught by the honesty pass.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/corpus.h"
#include "analysis/memo_honesty.h"
#include "cc/database.h"
#include "model/transaction_system.h"
#include "schedule/validator.h"
#include "util/random.h"

namespace oodb {
namespace {

using analysis::BuildTypeCorpus;
using analysis::CheckMemoHonesty;
using analysis::HonestyOptions;
using analysis::MutateParams;
using analysis::Severity;

Status NoOp(MethodContext&, const ValueList&, Value*) {
  return Status::OK();
}

/// Answers depend on a hidden counter but the declaration claims
/// parameter-level purity. Symmetric by construction (method lengths
/// commute under +), so only the honesty pass can object.
class HiddenCounterSpec : public CommutativitySpec {
 public:
  explicit HiddenCounterSpec(const int* counter) : counter_(counter) {}
  bool Commutes(const Invocation& a, const Invocation& b) const override {
    return (*counter_ + a.method.size() + b.method.size()) % 2 == 0;
  }
  CommutativityMemo memo() const override {
    return CommutativityMemo::kInvocationPair;
  }

 private:
  const int* counter_;
};

TEST(MemoHonestyProperty, MisdeclaredSpecIsCaughtAcrossRandomSchemas) {
  Rng rng(20260805);
  for (int trial = 0; trial < 32; ++trial) {
    int counter = static_cast<int>(rng.NextBelow(1000));
    ObjectType type("Hidden" + std::to_string(trial),
                    std::make_unique<HiddenCounterSpec>(&counter));
    Database db;
    const size_t methods = 1 + rng.NextBelow(4);
    for (size_t m = 0; m < methods; ++m) {
      // Random-length names vary which pairs commute at baseline.
      std::string name(1 + rng.NextBelow(6), 'a' + char(m));
      db.Register(&type, name, NoOp,
                  {.calls = {},
                   .samples = {{Value(int64_t(rng.NextBelow(100)))}},
                   .compensations = {}});
    }
    HonestyOptions options;
    options.state_perturbations.push_back([&counter] { ++counter; });
    const auto diags =
        CheckMemoHonesty(BuildTypeCorpus(&type, db.registry()), options);
    bool caught = false;
    for (const auto& d : diags) {
      if (d.severity == Severity::kError) caught = true;
    }
    EXPECT_TRUE(caught) << "trial " << trial
                        << ": state-dependent spec claiming "
                           "kInvocationPair escaped the honesty pass";
  }
}

TEST(CorpusProperty, MutationPreservesArityAndKinds) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    ValueList params;
    const size_t arity = rng.NextBelow(5);
    for (size_t i = 0; i < arity; ++i) {
      switch (rng.NextBelow(3)) {
        case 0:
          params.emplace_back(int64_t(rng.NextBelow(1000)));
          break;
        case 1:
          params.emplace_back("s" + std::to_string(rng.NextBelow(10)));
          break;
        default:
          params.emplace_back();
      }
    }
    const ValueList mutated = MutateParams(params);
    ASSERT_EQ(mutated.size(), params.size());
    bool mutable_slot = false;
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(params[i].IsInt(), mutated[i].IsInt());
      EXPECT_EQ(params[i].IsString(), mutated[i].IsString());
      EXPECT_EQ(params[i].IsNone(), mutated[i].IsNone());
      if (!params[i].IsNone()) {
        mutable_slot = true;
        EXPECT_FALSE(params[i] == mutated[i]);
      }
    }
    if (mutable_slot) {
      EXPECT_FALSE(params == mutated);
    }
  }
}

// --- the regression the honesty pass guards --------------------------

std::unique_ptr<PredicateCommutativity> EscrowStyleSpec(
    const int64_t* balance) {
  // deposit always commutes with deposit; withdraw/withdraw and
  // deposit/withdraw commute only while the balance stays comfortable —
  // a function of object state, hence DeclareStateDependent.
  auto spec = std::make_unique<PredicateCommutativity>();
  spec->SetCommutes("deposit", "deposit");
  spec->SetPredicate("deposit", "withdraw",
                     [balance](const Invocation&, const Invocation&) {
                       return *balance > 100;
                     });
  spec->SetPredicate("withdraw", "withdraw",
                     [balance](const Invocation&, const Invocation&) {
                       return *balance > 100;
                     });
  spec->DeclareStateDependent();
  return spec;
}

TEST(StateDependentSpecRegression, VerdictFollowsStateAtValidation) {
  int64_t balance = 500;
  ObjectType type("EscrowLike", EscrowStyleSpec(&balance),
                  /*primitive=*/true);
  ASSERT_EQ(type.commutativity().memo(), CommutativityMemo::kNone);

  // Four single-action transactions, deposits and withdrawals in turn.
  auto validate = [&type] {
    TransactionSystem ts;
    const ObjectId obj = ts.AddObject(&type, "acct");
    for (int i = 0; i < 4; ++i) {
      const ActionId top = ts.BeginTopLevel("T" + std::to_string(i));
      const ActionId a = ts.Call(
          top, obj,
          Invocation(i % 2 == 0 ? "deposit" : "withdraw", {Value(10)}));
      ts.SetTimestamp(a, ts.NextTimestamp());
    }
    return Validator::Validate(&ts).stats.primitive_conflicts;
  };
  // A comfortable balance: every pair commutes.
  EXPECT_EQ(validate(), 0u);
  // Drained: in the same history, 5 of the 6 pairs now conflict; only
  // the two deposits still commute.
  balance = 0;
  EXPECT_EQ(validate(), 5u);
  // Refilled: the answers move back.
  balance = 500;
  EXPECT_EQ(validate(), 0u);
}

}  // namespace
}  // namespace oodb
