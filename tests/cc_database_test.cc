#include "cc/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "containers/directory.h"
#include "containers/escrow.h"
#include "schedule/validator.h"

namespace oodb {
namespace {

TEST(DatabaseTest, SchedulerKindNames) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kOpenNested), "open-nested");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kFlat2PL), "flat-2pl");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kObjectExclusive),
               "object-exclusive");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kNone), "none");
}

TEST(DatabaseTest, CommitsSimpleTransaction) {
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  Status st = db.RunTransaction("T1", [&](MethodContext& txn) {
    return txn.Call(dir, Invocation("insert", {Value("k"), Value("v")}));
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(db.counters().committed.load(), 1u);
  EXPECT_EQ(db.StateOf<DirectoryState>(dir)->entries.at("k"), "v");
  EXPECT_EQ(db.locks().LockCount(), 0u);  // everything unwound
}

TEST(DatabaseTest, ResultValuePropagates) {
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  Value out;
  Status st = db.RunTransaction("T1", [&](MethodContext& txn) {
    OODB_RETURN_IF_ERROR(
        txn.Call(dir, Invocation("insert", {Value("k"), Value("v")})));
    return txn.Call(dir, Invocation("lookup", {Value("k")}), &out);
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(out.AsString(), "v");
}

TEST(DatabaseTest, UnknownObjectAndMethodFail) {
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  Status st1 = db.RunTransaction("T1", [&](MethodContext& txn) {
    return txn.Call(ObjectId(999), Invocation("lookup", {Value("k")}));
  });
  EXPECT_TRUE(st1.IsNotFound());
  Status st2 = db.RunTransaction("T2", [&](MethodContext& txn) {
    return txn.Call(dir, Invocation("frobnicate"));
  });
  EXPECT_EQ(st2.code(), StatusCode::kUnsupported);
  EXPECT_EQ(db.counters().aborted.load(), 2u);
}

TEST(DatabaseTest, AbortCompensatesCompletedActions) {
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  // Seed.
  ASSERT_TRUE(db.RunTransaction("Seed", [&](MethodContext& txn) {
                  return txn.Call(
                      dir, Invocation("insert", {Value("a"), Value("1")}));
                }).ok());
  // A transaction that mutates twice then aborts voluntarily.
  Status st = db.RunTransaction("T1", [&](MethodContext& txn) {
    OODB_RETURN_IF_ERROR(
        txn.Call(dir, Invocation("update", {Value("a"), Value("2")})));
    OODB_RETURN_IF_ERROR(
        txn.Call(dir, Invocation("insert", {Value("b"), Value("3")})));
    return Status::Aborted("changed my mind");
  });
  EXPECT_TRUE(st.IsAborted());
  // Both effects undone, in reverse order.
  auto* state = db.StateOf<DirectoryState>(dir);
  EXPECT_EQ(state->entries.at("a"), "1");
  EXPECT_EQ(state->entries.count("b"), 0u);
  EXPECT_EQ(db.locks().LockCount(), 0u);
}

TEST(DatabaseTest, FailedActionCleansItsOwnChildren) {
  // update of an absent key fails inside the transaction; the earlier
  // insert in the same transaction survives if the body tolerates the
  // error, and is compensated if the body propagates it.
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  Status st = db.RunTransaction("T1", [&](MethodContext& txn) {
    OODB_RETURN_IF_ERROR(
        txn.Call(dir, Invocation("insert", {Value("x"), Value("1")})));
    Status bad =
        txn.Call(dir, Invocation("update", {Value("nope"), Value("2")}));
    EXPECT_TRUE(bad.IsNotFound());
    return Status::OK();  // tolerate
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(db.StateOf<DirectoryState>(dir)->entries.at("x"), "1");
}

TEST(DatabaseTest, AbortedHistoryStillValidates) {
  // Aborted-and-compensated transactions leave a history that is still
  // oo-serializable: compensation makes the abort a semantic no-op.
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  ASSERT_TRUE(db.RunTransaction("Seed", [&](MethodContext& txn) {
                  return txn.Call(
                      dir, Invocation("insert", {Value("a"), Value("1")}));
                }).ok());
  (void)db.RunTransaction("T1", [&](MethodContext& txn) {
    OODB_RETURN_IF_ERROR(
        txn.Call(dir, Invocation("update", {Value("a"), Value("9")})));
    return Status::Aborted("rollback");
  });
  ASSERT_TRUE(db.RunTransaction("T2", [&](MethodContext& txn) {
                  return txn.Call(
                      dir, Invocation("update", {Value("a"), Value("2")}));
                }).ok());
  ValidationReport report = Validator::Validate(&db.ts());
  EXPECT_TRUE(report.oo_serializable) << report.Summary();
}

TEST(DatabaseTest, EscrowWithdrawInsufficientAborts) {
  Database db;
  RegisterAccountMethods(&db, EscrowAccountType());
  ObjectId acct = CreateAccount(&db, EscrowAccountType(), "A", 100);
  Status st = db.RunTransaction("T1", [&](MethodContext& txn) {
    return txn.Call(acct, Invocation("withdraw", {Value(200)}));
  });
  EXPECT_TRUE(st.IsConflict());
  EXPECT_EQ(db.StateOf<AccountState>(acct)->balance, 100);
}

TEST(DatabaseTest, ConcurrentCommutingTransactionsAllCommit) {
  Database db;
  RegisterAccountMethods(&db, EscrowAccountType());
  ObjectId acct = CreateAccount(&db, EscrowAccountType(), "A", 0);
  constexpr int kThreads = 8;
  constexpr int kDepositsEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, acct] {
      for (int i = 0; i < kDepositsEach; ++i) {
        Status st = db.RunTransaction("D", [&](MethodContext& txn) {
          return txn.Call(acct, Invocation("deposit", {Value(1)}));
        });
        ASSERT_TRUE(st.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.StateOf<AccountState>(acct)->balance,
            kThreads * kDepositsEach);
  EXPECT_EQ(db.counters().committed.load(),
            uint64_t{kThreads} * kDepositsEach);
  EXPECT_EQ(db.counters().deadlocks.load(), 0u);
}

TEST(DatabaseTest, ObjectExclusiveSerializesEverything) {
  DatabaseOptions opts;
  opts.scheduler = SchedulerKind::kObjectExclusive;
  Database db(opts);
  RegisterAccountMethods(&db, EscrowAccountType());
  ObjectId acct = CreateAccount(&db, EscrowAccountType(), "A", 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, acct] {
      for (int i = 0; i < 20; ++i) {
        (void)db.RunTransaction("D", [&](MethodContext& txn) {
          return txn.Call(acct, Invocation("deposit", {Value(1)}));
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  // All committed (no cycles possible on one object) and correct.
  EXPECT_EQ(db.StateOf<AccountState>(acct)->balance, 80);
}

TEST(DatabaseTest, HistoryOfCommittedRunValidates) {
  Database db;
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, dir, t] {
      for (int i = 0; i < 25; ++i) {
        (void)db.RunTransaction("T", [&](MethodContext& txn) {
          std::string key = "k" + std::to_string((t * 25 + i) % 10);
          return txn.Call(dir,
                          Invocation("insert", {Value(key), Value("v")}));
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  ValidationReport report = Validator::Validate(&db.ts());
  EXPECT_TRUE(report.oo_serializable) << report.Summary();
  EXPECT_TRUE(report.conform);
}

TEST(DatabaseTest, RetryCounterTracksDeadlockRetries) {
  // Force deadlocks: two directories, two transactions locking them in
  // opposite order with same-key conflicts.
  DatabaseOptions opts;
  opts.lock_options.wait_timeout = std::chrono::milliseconds(500);
  Database db(opts);
  RegisterDirectoryMethods(&db);
  ObjectId d1 = CreateDirectory(&db, "D1");
  ObjectId d2 = CreateDirectory(&db, "D2");
  std::atomic<int> failures{0};
  auto txn = [&](ObjectId first, ObjectId second) {
    return [&, first, second](MethodContext& t) -> Status {
      OODB_RETURN_IF_ERROR(
          t.Call(first, Invocation("insert", {Value("k"), Value("v")})));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return t.Call(second, Invocation("insert", {Value("k"), Value("v")}));
    };
  };
  std::thread a([&] {
    for (int i = 0; i < 10; ++i) {
      if (!db.RunTransaction("A", txn(d1, d2)).ok()) failures.fetch_add(1);
    }
  });
  std::thread b([&] {
    for (int i = 0; i < 10; ++i) {
      if (!db.RunTransaction("B", txn(d2, d1)).ok()) failures.fetch_add(1);
    }
  });
  a.join();
  b.join();
  // All eventually commit thanks to retries (or a few exhaust retries —
  // but state must stay consistent and locks must unwind).
  EXPECT_EQ(db.locks().LockCount(), 0u);
  EXPECT_EQ(db.counters().committed.load() + failures.load(), 20u);
}

TEST(RunCountersTest, ResetZeroes) {
  RunCounters c;
  c.committed = 5;
  c.aborted = 3;
  c.deadlocks = 1;
  c.conflicts = 10;
  c.operations = 100;
  c.retries = 2;
  c.Reset();
  EXPECT_EQ(c.committed.load(), 0u);
  EXPECT_EQ(c.aborted.load(), 0u);
  EXPECT_EQ(c.deadlocks.load(), 0u);
  EXPECT_EQ(c.conflicts.load(), 0u);
  EXPECT_EQ(c.operations.load(), 0u);
  EXPECT_EQ(c.retries.load(), 0u);
}

TEST(DatabaseTest, AttachObservabilityMirrorsCounters) {
  MetricsRegistry registry;
  Tracer tracer;
  Database db;
  db.AttachObservability(&registry, &tracer);
  RegisterDirectoryMethods(&db);
  ObjectId d = CreateDirectory(&db, "D");
  ASSERT_TRUE(db.RunTransaction("T", [&](MethodContext& txn) {
                  return txn.Call(
                      d, Invocation("insert", {Value("k"), Value("v")}));
                }).ok());
  EXPECT_EQ(registry.GetCounter("db.txn.committed")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("db.lock.acquires")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("db.call.operations")->Value(), 1u);
  // One span per action plus the top-level transaction span.
  EXPECT_GE(tracer.SpanCount(), 2u);
  // Detach: traffic stops publishing.
  db.AttachObservability(nullptr, nullptr);
  uint64_t committed = registry.GetCounter("db.txn.committed")->Value();
  ASSERT_TRUE(db.RunTransaction("T2", [&](MethodContext& txn) {
                  return txn.Call(
                      d, Invocation("insert", {Value("k2"), Value("v")}));
                }).ok());
  EXPECT_EQ(registry.GetCounter("db.txn.committed")->Value(), committed);
}

}  // namespace
}  // namespace oodb
