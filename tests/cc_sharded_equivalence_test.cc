// Sharded-runtime equivalence: the same seeded workload must produce
// the identical committed state and the identical Defs 13/16 verdicts
// whether it runs on one shard or eight, and whether the history is
// recorded live or epoch-batched and replayed. Sharding and epoch
// batching are pure mechanism — any observable divergence is a bug.

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cc/database.h"
#include "cc/epoch_log.h"
#include "containers/escrow.h"
#include "schedule/validator.h"
#include "util/random.h"

namespace oodb {
namespace {

constexpr int kAccounts = 16;
constexpr int kThreads = 4;
constexpr int kTxnsPerThread = 40;
constexpr int kDepositsPerTxn = 3;

// One transaction's fixed effect set: deposits of `amounts[d]` to keys
// (start + d) % kAccounts, then a balance read of `start`. Precomputed
// from the seed so a deadlock-retry replays the identical effects —
// without this, a retry would re-draw from a live Rng and the committed
// state would depend on the interleaving.
struct TxnPlan {
  uint64_t start = 0;
  int64_t amounts[kDepositsPerTxn] = {};
};

std::vector<TxnPlan> MakePlans(uint64_t seed) {
  std::vector<TxnPlan> plans(size_t(kThreads) * kTxnsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kTxnsPerThread; ++i) {
      Rng rng(seed ^ (uint64_t(t) << 32) ^ uint64_t(i));
      TxnPlan& plan = plans[size_t(t) * kTxnsPerThread + i];
      plan.start = rng.NextBelow(kAccounts);
      for (int d = 0; d < kDepositsPerTxn; ++d) {
        plan.amounts[d] = int64_t(1 + rng.NextBelow(9));
      }
    }
  }
  return plans;
}

struct RunResult {
  std::vector<int64_t> balances;
  uint64_t committed = 0;
  bool oo_serializable = false;
  bool conform = false;
  size_t replayed_actions = 0;
};

/// Runs the seeded escrow workload on `shards` shards in epoch-batched
/// mode, replays the batches into the run's own TransactionSystem
/// (which holds the objects but no actions), and validates.
RunResult RunWorkload(size_t shards, const std::vector<TxnPlan>& plans) {
  DatabaseOptions options;
  options.shards = shards;
  options.history = HistoryMode::kEpochBatched;
  Database db(options);
  HistoryEpochSink sink;
  db.SetEpochSink(&sink);
  RegisterAccountMethods(&db, EscrowAccountType());
  std::vector<ObjectId> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(CreateAccount(&db, EscrowAccountType(),
                                     "A" + std::to_string(i), 100));
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const TxnPlan& plan = plans[size_t(t) * kTxnsPerThread + i];
        Status st = db.RunTransaction(
            "T" + std::to_string(t) + "." + std::to_string(i),
            [&](MethodContext& txn) {
              for (int d = 0; d < kDepositsPerTxn; ++d) {
                uint64_t idx = (plan.start + uint64_t(d)) % kAccounts;
                OODB_RETURN_IF_ERROR(txn.Call(
                    accounts[idx],
                    Invocation("deposit", {Value(plan.amounts[d])})));
              }
              // The balance read conflicts with deposits, so runs can
              // deadlock (and retry) — the committed effects must not
              // depend on that.
              return txn.Call(accounts[plan.start], Invocation("balance"));
            });
        ASSERT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (auto& w : workers) w.join();
  while (db.AdvanceEpoch() > 0) {
  }

  RunResult result;
  for (ObjectId a : accounts) {
    result.balances.push_back(db.StateOf<AccountState>(a)->balance);
  }
  result.committed = db.counters().committed.load();
  EXPECT_EQ(db.locks().LockCount(), 0u);

  // The run's TransactionSystem has the objects and no actions (epoch
  // mode): replay the batched history into it and validate.
  EXPECT_EQ(db.ts().action_count(), 0u);
  sink.ReplayInto(&db.ts());
  result.replayed_actions = db.ts().action_count();
  ValidationReport report = Validator::Validate(&db.ts());
  result.oo_serializable = report.oo_serializable;
  result.conform = report.conform;
  return result;
}

TEST(ShardedEquivalenceTest, EightShardsMatchSingleShard) {
  const uint64_t seed = 0xFEEDFACE;
  const std::vector<TxnPlan> plans = MakePlans(seed);
  // The interleaving-independent oracle: every transaction commits
  // (retries replay the same plan), so each account's final balance is
  // its initial 100 plus the planned deposits that land on it.
  std::vector<int64_t> expected(kAccounts, 100);
  for (const TxnPlan& plan : plans) {
    for (int d = 0; d < kDepositsPerTxn; ++d) {
      expected[(plan.start + uint64_t(d)) % kAccounts] += plan.amounts[d];
    }
  }

  RunResult one = RunWorkload(1, plans);
  RunResult eight = RunWorkload(8, plans);

  // Identical committed effects, equal to the oracle...
  EXPECT_EQ(one.balances, expected);
  EXPECT_EQ(eight.balances, expected);
  EXPECT_EQ(one.committed, eight.committed);
  EXPECT_EQ(one.committed, uint64_t(kThreads) * kTxnsPerThread);
  // ...a history at least as large as the no-abort baseline (deadlock
  // retries legitimately add aborted attempts to the record, and their
  // count is timing-dependent)...
  const size_t baseline =
      size_t(kThreads) * kTxnsPerThread * (kDepositsPerTxn + 2);
  EXPECT_GE(one.replayed_actions, baseline);
  EXPECT_GE(eight.replayed_actions, baseline);
  // ...and the same verdicts from the validation pipeline.
  EXPECT_TRUE(one.oo_serializable);
  EXPECT_TRUE(eight.oo_serializable);
  EXPECT_TRUE(one.conform);
  EXPECT_TRUE(eight.conform);
}

TEST(ShardedEquivalenceTest, EpochReplayMatchesRecordedHistory) {
  // One deterministic single-threaded workload, run in both history
  // modes; the replayed epoch history must match the live record in
  // size, final state, and verdict.
  auto run = [](HistoryMode mode) {
    DatabaseOptions options;
    options.history = mode;
    Database db(options);
    HistoryEpochSink sink;
    db.SetEpochSink(&sink);
    RegisterAccountMethods(&db, EscrowAccountType());
    ObjectId a =
        CreateAccount(&db, EscrowAccountType(), "A", 100, /*min=*/0);
    ObjectId b =
        CreateAccount(&db, EscrowAccountType(), "B", 100, /*min=*/0);
    EXPECT_TRUE(db.RunTransaction("T1", [&](MethodContext& txn) {
                    OODB_RETURN_IF_ERROR(
                        txn.Call(a, Invocation("deposit", {Value(5)})));
                    return txn.Call(b,
                                    Invocation("withdraw", {Value(7)}));
                  }).ok());
    // An aborting transaction: its compensation must appear in both
    // histories.
    Status st = db.RunTransaction("T2", [&](MethodContext& txn) {
      OODB_RETURN_IF_ERROR(
          txn.Call(a, Invocation("deposit", {Value(11)})));
      return Status::Aborted("voluntary");
    });
    EXPECT_TRUE(st.IsAborted());
    if (mode == HistoryMode::kEpochBatched) {
      while (db.AdvanceEpoch() > 0) {
      }
      sink.ReplayInto(&db.ts());
    }
    ValidationReport report = Validator::Validate(&db.ts());
    return std::tuple(db.ts().action_count(),
                      db.StateOf<AccountState>(a)->balance,
                      db.StateOf<AccountState>(b)->balance,
                      report.oo_serializable, report.conform);
  };
  auto recorded = run(HistoryMode::kRecorded);
  auto replayed = run(HistoryMode::kEpochBatched);
  EXPECT_EQ(recorded, replayed);
}

TEST(ShardedEquivalenceTest, SingleShardDefaultStaysRecorded) {
  // The defaults are the pre-sharding runtime: one shard, recorded
  // history, no epoch log.
  Database db;
  EXPECT_EQ(db.shard_count(), 1u);
  EXPECT_EQ(db.locks().shard_count(), 1u);
  EXPECT_EQ(db.epoch_log(), nullptr);
  EXPECT_EQ(db.AdvanceEpoch(), 0u);
  EXPECT_EQ(db.options().history, HistoryMode::kRecorded);
}

TEST(ShardedEquivalenceTest, ShardResolutionCapsAndDefaults) {
  DatabaseOptions options;
  options.shards = 1000;  // capped at the mask width
  Database db(options);
  EXPECT_EQ(db.shard_count(), LockManager::kMaxShards);
  EXPECT_EQ(db.locks().shard_count(), LockManager::kMaxShards);

  DatabaseOptions hw;
  hw.shards = 0;  // hardware concurrency, at least one
  Database db2(hw);
  EXPECT_GE(db2.shard_count(), 1u);
  EXPECT_LE(db2.shard_count(), LockManager::kMaxShards);
  EXPECT_EQ(db2.locks().shard_count(), db2.shard_count());
}

}  // namespace
}  // namespace oodb
