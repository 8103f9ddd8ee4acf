// Property tests for the linter's probe corpus, plus a validator
// regression: the verdict on a state-dependent (escrow-style) spec must
// follow the object state at validation time, because every Def 9
// query reaches the spec.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/corpus.h"
#include "cc/database.h"
#include "model/transaction_system.h"
#include "schedule/validator.h"
#include "util/random.h"

namespace oodb {
namespace {

using analysis::MutateParams;

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

// --- state-dependent specs are asked at validation time ---------------

std::unique_ptr<PredicateCommutativity> EscrowStyleSpec(
    const int64_t* balance) {
  // deposit always commutes with deposit; withdraw/withdraw and
  // deposit/withdraw commute only while the balance stays comfortable —
  // a function of object state.
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
  return spec;
}

TEST(StateDependentSpecRegression, VerdictFollowsStateAtValidation) {
  int64_t balance = 500;
  ObjectType type("EscrowLike", EscrowStyleSpec(&balance),
                  /*primitive=*/true);

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
