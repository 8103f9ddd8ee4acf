// Both history modes run one runtime path: the WAL and the tracer take
// what they need from the running thread's context, never from the
// shared execution record, so they work (and agree) in kRecorded and
// kEpochBatched mode alike.
//
// The concurrent test is the race regression for that rule: under
// ThreadSanitizer it reports a data race as soon as a WAL record or a
// span is built from the TransactionSystem while other threads append
// actions and create objects (bucket splits) to it.
//
// The last two tests pin the default (kRecorded) mode's history
// contract: span ids are ts() action ids under concurrency, and a read
// of ts() taken while a transaction still runs drops and misplaces
// nothing.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "containers/directory.h"
#include "containers/escrow.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "containers/persist.h"
#include "obs/trace.h"
#include "schedule/history_io.h"
#include "schedule/validator.h"
#include "storage/recovery.h"
#include "storage/walinspect.h"
#include "workload/paper_worlds.h"

namespace oodb {
namespace {

constexpr HistoryMode kModes[] = {HistoryMode::kRecorded,
                                  HistoryMode::kEpochBatched};

/// Registers the container methods, opens the store into `db`, attaches
/// the "D" directory and "H" hash-index roots when the store does not
/// know them yet, and replays the WAL. Buckets hold two keys, so a
/// handful of inserts splits them (and creates objects mid-run).
Status OpenStore(StorageEngine* engine, Database* db) {
  RegisterDirectoryMethods(db);
  HashIndex::RegisterMethods(db);
  RegisterPageMethods(db);
  OODB_RETURN_IF_ERROR(RegisterStandardSerdes(engine));
  OODB_RETURN_IF_ERROR(engine->Open(db));
  if (!engine->RootId("D").valid()) {
    OODB_RETURN_IF_ERROR(
        engine->AttachRoot("D", "directory", CreateDirectory(db, "D")));
  }
  if (!engine->RootId("H").valid()) {
    OODB_RETURN_IF_ERROR(engine->AttachRoot(
        "H", "hash-index", HashIndex::Create(db, "H", /*bucket_capacity=*/2)));
  }
  return Recover(engine, db);
}

/// Drains the epoch log (a no-op in kRecorded mode).
void DrainEpochs(Database* db) {
  while (db->AdvanceEpoch() > 0) {
  }
}

class HistoryModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = "/tmp/oodb_history_modes_test_" + std::string(info->name()) +
           "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  StorageEngineOptions Opts() const {
    StorageEngineOptions opts;
    opts.dir = dir_;
    opts.wal.fsync = false;
    return opts;
  }

  /// What one single-threaded durable run leaves behind.
  struct DurableRun {
    std::string live_dump;       ///< DumpRoots before closing the store
    std::string wal_text;        ///< walinspect text of the run's WAL
    std::string recovered_dump;  ///< DumpRoots after reopen + Recover
  };

  /// Runs a fixed durable workload in `mode` on a fresh store: 24
  /// committed transactions inserting into both roots, then one that
  /// aborts after an insert (its compensation is logged). Then reopens
  /// the store into a fresh database of the same mode and recovers.
  DurableRun RunDurable(HistoryMode mode) {
    std::filesystem::remove_all(dir_);
    DatabaseOptions options;
    options.history = mode;
    DurableRun run;
    std::string wal_path;
    {
      Database db(options);
      StorageEngine engine(Opts());
      EXPECT_TRUE(OpenStore(&engine, &db).ok());
      db.AttachDurability(&engine);
      const ObjectId d = engine.RootId("D");
      const ObjectId h = engine.RootId("H");
      for (int i = 0; i < 24; ++i) {
        const std::string key = "k" + std::to_string(i);
        Status st = db.RunTransaction(
            "W" + std::to_string(i), [&](MethodContext& txn) {
              OODB_RETURN_IF_ERROR(txn.Call(
                  d, Invocation("insert", {Value(key), Value("v")})));
              return txn.Call(h, HashIndex::Insert(key, "v"));
            });
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      Status st = db.RunTransaction("A", [&](MethodContext& txn) {
        OODB_RETURN_IF_ERROR(
            txn.Call(d, Invocation("insert", {Value("gone"), Value("v")})));
        return Status::Aborted("induced");
      });
      EXPECT_TRUE(st.IsAborted());
      DrainEpochs(&db);
      run.live_dump = engine.DumpRoots(db);
      wal_path = engine.WalPath(engine.epoch());
    }
    WalScanResult scan;
    EXPECT_TRUE(Wal::ScanDetailed(wal_path, &scan).ok());
    run.wal_text = RenderWalText("wal", scan, WalInspectOptions());
    Database db(options);
    StorageEngine engine(Opts());
    EXPECT_TRUE(OpenStore(&engine, &db).ok());
    DrainEpochs(&db);
    run.recovered_dump = engine.DumpRoots(db);
    return run;
  }

  std::string dir_;
};

TEST_F(HistoryModesTest, ConcurrentDurableTracedRunReadsNoSharedRecord) {
  // Four threads insert into the persistent directory (every insert is
  // WAL-logged) and into a hash index whose buckets keep splitting, with
  // a tracer attached. Logging, span names and span levels must all
  // come from the callers' own contexts.
  constexpr int kThreads = 4;
  constexpr int kEach = 50;
  for (HistoryMode mode : kModes) {
    SCOPED_TRACE(mode == HistoryMode::kRecorded ? "recorded" : "epoch");
    std::filesystem::remove_all(dir_);
    DatabaseOptions options;
    options.history = mode;
    std::string live;
    {
      Database db(options);
      StorageEngine engine(Opts());
      ASSERT_TRUE(OpenStore(&engine, &db).ok());
      db.AttachDurability(&engine);
      Tracer tracer;
      db.AttachObservability(nullptr, &tracer);
      const ObjectId d = engine.RootId("D");
      const ObjectId h = engine.RootId("H");
      const size_t objects_before = db.ts().object_count();
      std::atomic<int> failures{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int i = 0; i < kEach; ++i) {
            const std::string key =
                "t" + std::to_string(t) + "-" + std::to_string(i);
            Status st =
                db.RunTransaction("D" + key, [&](MethodContext& txn) {
                  return txn.Call(
                      d, Invocation("insert", {Value(key), Value(key)}));
                });
            if (!st.ok()) failures.fetch_add(1);
            // The index is only here to split buckets under the other
            // threads' logging; its outcome is not what this test checks.
            (void)db.RunTransaction("H" + key, [&](MethodContext& txn) {
              return txn.Call(h, HashIndex::Insert(key, key));
            });
          }
        });
      }
      for (auto& th : threads) th.join();
      DrainEpochs(&db);
      EXPECT_EQ(failures.load(), 0);
      EXPECT_GT(db.ts().object_count(), objects_before);
      EXPECT_GE(tracer.Spans().size(), size_t{2 * kThreads * kEach});
      live = engine.SerdeFor("directory")->dump(db, d);
      EXPECT_EQ(std::count(live.begin(), live.end(), '\n'),
                kThreads * kEach);
    }
    // Every committed directory insert is in the WAL.
    Database db(options);
    StorageEngine engine(Opts());
    ASSERT_TRUE(OpenStore(&engine, &db).ok());
    DrainEpochs(&db);
    EXPECT_EQ(engine.SerdeFor("directory")->dump(db, engine.RootId("D")),
              live);
  }
}

TEST_F(HistoryModesTest, GoldenFig7TraceIsIdenticalInBothModes) {
  std::vector<std::string> traces;
  for (HistoryMode mode : kModes) {
    DatabaseOptions options;
    options.history = mode;
    Database db(options);
    Tracer tracer(TracerOptions{.golden = true, .tag = "fig7"});
    db.AttachObservability(nullptr, &tracer);
    ASSERT_TRUE(RunExample4(&db).ok());
    traces.push_back(tracer.ToJsonLines());
  }
  EXPECT_NE(traces[0].find("\"level\":3"), std::string::npos);
  EXPECT_EQ(traces[0], traces[1]);
}

TEST_F(HistoryModesTest, DurableRunWritesIdenticalWalInBothModes) {
  const DurableRun recorded = RunDurable(HistoryMode::kRecorded);
  const DurableRun epoch = RunDurable(HistoryMode::kEpochBatched);
  EXPECT_NE(recorded.wal_text.find("D.insert("), std::string::npos);
  EXPECT_NE(recorded.wal_text.find("H.insert("), std::string::npos);
  EXPECT_NE(recorded.wal_text.find("abort"), std::string::npos);
  EXPECT_EQ(recorded.wal_text, epoch.wal_text);
}

TEST_F(HistoryModesTest, RecoveredRootsAreIdenticalInBothModes) {
  const DurableRun recorded = RunDurable(HistoryMode::kRecorded);
  const DurableRun epoch = RunDurable(HistoryMode::kEpochBatched);
  EXPECT_NE(recorded.recovered_dump.find("k23"), std::string::npos);
  EXPECT_EQ(recorded.recovered_dump.find("gone"), std::string::npos);
  EXPECT_EQ(recorded.recovered_dump, recorded.live_dump);
  EXPECT_EQ(recorded.recovered_dump, epoch.recovered_dump);
}

TEST_F(HistoryModesTest, SpanIdsAreActionIdsUnderConcurrency) {
  // Four threads in the default mode, traced. Threads 0 and 1 each take
  // a deposit lock and then, once both hold one, read the other's
  // account: a forced deadlock on the first attempt, so one of them
  // aborts (its deposit compensated) and retries. Threads 2 and 3 run
  // independent transfers on their own accounts, and thread 2 aborts
  // one transaction voluntarily.
  Database db;
  Tracer tracer;
  db.AttachObservability(nullptr, &tracer);
  RegisterAccountMethods(&db, EscrowAccountType());
  std::vector<ObjectId> accounts;
  for (int i = 0; i < 6; ++i) {
    accounts.push_back(CreateAccount(&db, EscrowAccountType(),
                                     "A" + std::to_string(i), 100));
  }
  auto deposit = [](int64_t amount) {
    return Invocation("deposit", {Value(amount)});
  };
  std::atomic<int> holding{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      bool first_attempt = true;
      Status st = db.RunTransaction(
          "Cross" + std::to_string(t), [&](MethodContext& txn) {
            OODB_RETURN_IF_ERROR(txn.Call(accounts[t], deposit(1)));
            if (first_attempt) {
              first_attempt = false;
              holding.fetch_add(1);
              while (holding.load() < 2) std::this_thread::yield();
            }
            return txn.Call(accounts[1 - t], Invocation("balance"));
          });
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
  }
  for (int t = 2; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const ObjectId from = accounts[t];
      const ObjectId to = accounts[t + 2];
      for (int i = 0; i < 20; ++i) {
        const bool abort = t == 2 && i == 7;
        Status st = db.RunTransaction(
            "Move" + std::to_string(t), [&](MethodContext& txn) {
              OODB_RETURN_IF_ERROR(
                  txn.Call(from, Invocation("withdraw", {Value(1)})));
              OODB_RETURN_IF_ERROR(txn.Call(to, deposit(1)));
              if (abort) return Status::Aborted("voluntary");
              return Status::OK();
            });
        EXPECT_EQ(st.ok(), !abort) << st.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(db.counters().retries.load(), 1u);
  EXPECT_GE(db.counters().aborted.load(), 2u);

  const std::vector<TraceSpan> spans = tracer.Spans();
  TransactionSystem& ts = db.ts();
  ASSERT_EQ(ts.action_count(), spans.size());
  std::vector<bool> seen(spans.size(), false);
  for (const TraceSpan& span : spans) {
    ASSERT_LT(span.id, ts.action_count());
    EXPECT_FALSE(seen[span.id]) << "span id " << span.id << " repeats";
    seen[span.id] = true;
    const ActionRecord& action = ts.action(ActionId(span.id));
    SCOPED_TRACE(ts.Describe(action.id));
    EXPECT_EQ(action.parent.value, span.parent);
    EXPECT_EQ(action.top_level.value, span.txn);
    EXPECT_EQ(action.object.value, span.parent == ActionId::kInvalid
                                       ? ObjectId::kSystem
                                       : span.object);
  }
}

TEST_F(HistoryModesTest, MidRunReadOfRecordedHistoryDropsNothing) {
  Database db;
  RegisterAccountMethods(&db, EscrowAccountType());
  const ObjectId held = CreateAccount(&db, EscrowAccountType(), "H", 100);
  const ObjectId other = CreateAccount(&db, EscrowAccountType(), "O", 100);
  auto deposit_into = [](ObjectId account) {
    return [account](MethodContext& txn) {
      return txn.Call(account, Invocation("deposit", {Value(1)}));
    };
  };
  // Ids 0-3: two transactions finished before the held one starts.
  ASSERT_TRUE(db.RunTransaction("Before", deposit_into(other)).ok());
  ASSERT_TRUE(db.RunTransaction("Before", deposit_into(other)).ok());

  // The held transaction (id 4) completes one deposit (id 5), then
  // blocks inside its body until released.
  std::atomic<bool> blocked{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    Status st = db.RunTransaction("Held", [&](MethodContext& txn) {
      OODB_RETURN_IF_ERROR(deposit_into(held)(txn));
      blocked = true;
      while (!release) std::this_thread::yield();
      return deposit_into(held)(txn);
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  });
  while (!blocked) std::this_thread::yield();
  constexpr size_t kAfter = 3;  // ids 6-11, finished while 4 runs
  for (size_t i = 0; i < kAfter; ++i) {
    ASSERT_TRUE(db.RunTransaction("After", deposit_into(other)).ok());
  }
  // Every action called so far is in the record, the running
  // transaction and its finished child included.
  EXPECT_EQ(db.ts().action_count(), 4 + 2 + 2 * kAfter);
  release = true;
  holder.join();

  const size_t handed_out = 4 + 3 + 2 * kAfter;
  TransactionSystem& ts = db.ts();
  EXPECT_EQ(ts.action_count(), handed_out);
  const ActionRecord& root = ts.action(ActionId(4));
  EXPECT_EQ(root.invocation.method, "Held");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0], ActionId(5));
  EXPECT_EQ(root.children[1], ActionId(handed_out - 1));
  const Result<std::string> first = HistoryIo::Dump(ts);
  ASSERT_TRUE(first.ok());
  const Result<std::string> second = HistoryIo::Dump(db.ts());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(db.ts().action_count(), handed_out);
  ValidationReport report = Validator::Validate(&db.ts());
  EXPECT_TRUE(report.oo_serializable) << report.Summary();
}

}  // namespace
}  // namespace oodb
