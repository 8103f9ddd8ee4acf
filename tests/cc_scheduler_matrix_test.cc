// The scheduler matrix: every concurrency-control discipline, run
// against the same mixed encyclopedia workload (inserts, changes,
// searches, erases, readSeq) under concurrency, must
//   (a) keep the application state consistent with a committed-only
//       oracle,
//   (b) unwind every lock, and
//   (c) leave an oo-serializable, conform history.
// Flat 2PL must additionally leave a *conventionally* serializable
// history (its locks are exactly the page-level R/W discipline).
// FailedCallLockFate pins, per discipline, which locks a failed call
// leaves behind.

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "apps/encyclopedia.h"
#include "containers/codec.h"
#include "containers/escrow.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "schedule/validator.h"
#include "util/random.h"

namespace oodb {
namespace {

struct MatrixParam {
  SchedulerKind scheduler;
  DeadlockPolicy policy;
  uint64_t seed;
};

class SchedulerMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(SchedulerMatrixTest, MixedWorkloadConsistentAndSerializable) {
  const MatrixParam& param = GetParam();
  DatabaseOptions opts;
  opts.scheduler = param.scheduler;
  opts.lock_options.deadlock_policy = param.policy;
  opts.lock_options.wait_timeout = std::chrono::milliseconds(1000);
  opts.max_retries = 32;
  Database db(opts);
  Encyclopedia::RegisterMethods(&db);
  ObjectId enc = Encyclopedia::Create(&db, "Enc", /*leaf_capacity=*/4,
                                      /*fanout=*/4, /*items_per_page=*/4);

  std::mutex oracle_mutex;
  std::set<std::string> oracle;  // committed keys

  constexpr int kThreads = 3;
  constexpr int kOpsEach = 14;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(param.seed * 977 + t);
      for (int i = 0; i < kOpsEach; ++i) {
        std::string key =
            "t" + std::to_string(t) + "_" + std::to_string(i % 8);
        double dice = rng.NextDouble();
        if (dice < 0.45) {
          Status st = db.RunTransaction("ins", [&](MethodContext& txn) {
            return txn.Call(enc, Encyclopedia::Insert(key, "d" + key));
          });
          if (st.ok()) {
            std::lock_guard<std::mutex> lock(oracle_mutex);
            oracle.insert(key);
          }
        } else if (dice < 0.6) {
          Status st = db.RunTransaction("del", [&](MethodContext& txn) {
            return txn.Call(enc, Encyclopedia::Erase(key));
          });
          if (st.ok()) {
            std::lock_guard<std::mutex> lock(oracle_mutex);
            oracle.erase(key);
          }
        } else if (dice < 0.8) {
          (void)db.RunTransaction("chg", [&](MethodContext& txn) {
            Status st = txn.Call(enc, Encyclopedia::Change(key, "c" + key));
            // change of an absent key is a legitimate NotFound abort.
            return st.IsNotFound() ? Status::Aborted("absent") : st;
          });
        } else if (dice < 0.95) {
          Value out;
          (void)db.RunTransaction("get", [&](MethodContext& txn) {
            return txn.Call(enc, Encyclopedia::Search(key), &out);
          });
        } else {
          Value out;
          (void)db.RunTransaction("seq", [&](MethodContext& txn) {
            return txn.Call(enc, Encyclopedia::ReadSeq(), &out);
          });
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // (b) every lock unwound.
  EXPECT_EQ(db.locks().LockCount(), 0u);

  // (a) state equals the committed-only oracle (keys only: changes
  // race benignly with each other on the value).
  Value seq;
  ASSERT_TRUE(db.RunTransaction("check", [&](MethodContext& txn) {
                  return txn.Call(enc, Encyclopedia::ReadSeq(), &seq);
                }).ok());
  std::set<std::string> listed;
  auto fields = SplitFields(seq.AsString());
  for (size_t i = 0; i + 1 < fields.size(); i += 2) {
    listed.insert(fields[i]);
  }
  EXPECT_EQ(listed, oracle) << SchedulerKindName(param.scheduler);

  // (c) serializability of the full recorded history.
  ValidationReport report = Validator::Validate(&db.ts());
  EXPECT_TRUE(report.oo_serializable)
      << SchedulerKindName(param.scheduler) << " seed " << param.seed
      << "\n" << report.Summary();
  EXPECT_TRUE(report.conform);
  if (param.scheduler == SchedulerKind::kFlat2PL) {
    EXPECT_TRUE(report.conventionally_serializable);
  }
}

/// A composite test object whose one method relays calls to a bucket:
/// it lets a failed call at depth 2 be observed from inside its caller.
const ObjectType* RelayType() {
  static const ObjectType* type =
      new ObjectType("Relay", std::make_unique<MatrixCommutativity>());
  return type;
}

/// Pins what happens to a failed call's locks under each scheduler:
/// - a primitive failing at depth 1 (escrow withdraw past the balance):
///   the nested schedulers release its pre-passed lock, the hold-at-top
///   ones keep it until transaction end;
/// - a Bucket.insert failing at depth 2 with a completed Page.read
///   child, after a successful Bucket.search: the nested schedulers
///   release the failed call's own and inherited locks, the hold-at-top
///   ones keep every lock;
/// - the relay's own success: open nesting releases its children's
///   locks and passes its own up, closed nesting passes everything up.
TEST_P(SchedulerMatrixTest, FailedCallLockFate) {
  const SchedulerKind kind = GetParam().scheduler;
  DatabaseOptions opts;
  opts.scheduler = kind;
  opts.lock_options.deadlock_policy = GetParam().policy;
  Database db(opts);
  RegisterPageMethods(&db);
  HashIndex::RegisterMethods(&db);
  RegisterAccountMethods(&db, EscrowAccountType());
  const ObjectId acct = CreateAccount(&db, EscrowAccountType(), "A", 10);
  const ObjectId index = HashIndex::Create(&db, "H", /*bucket_capacity=*/2);
  const ObjectId bucket = db.StateOf<HashIndexState>(index)->directory[0];
  const ObjectId relay = db.CreateObject(
      RelayType(), "R", std::make_unique<ObjectState>());
  for (const char* key : {"a", "b"}) {
    ASSERT_TRUE(db.RunTransaction("fill", [&](MethodContext& txn) {
                    return txn.Call(index, HashIndex::Insert(key, "v"));
                  }).ok());
  }
  size_t after_depth2_failure = 0;
  db.Register(RelayType(), "run",
              [&](MethodContext& ctx, const ValueList&, Value*) -> Status {
                Value out;
                OODB_RETURN_IF_ERROR(
                    ctx.Call(bucket, HashIndex::Search("a"), &out));
                Status st = ctx.Call(bucket, HashIndex::Insert("c", "v"));
                EXPECT_EQ(st.code(), StatusCode::kCapacity) << st;
                after_depth2_failure = ctx.db()->locks().LockCount();
                return Status::OK();
              });

  // Expected lock counts: after the withdraw fails, inside the relay
  // after the insert fails, and after the relay completes.
  struct Counts {
    size_t after_withdraw, after_insert, after_relay;
  };
  Counts want{};
  switch (kind) {
    case SchedulerKind::kOpenNested:
      // relay + Bucket.search's own lock; then only the relay's.
      want = {0, 2, 1};
      break;
    case SchedulerKind::kClosedNested:
      // relay + Bucket.search + its Page.read, kept by the relay.
      want = {0, 3, 3};
      break;
    case SchedulerKind::kFlat2PL:
      // Page locks only: withdraw's, search's read, insert's read/write.
      want = {1, 4, 4};
      break;
    default:
      // Object-exclusive: every call's lock, failed ones included.
      want = {1, 7, 7};
      break;
  }
  Status st = db.RunTransaction("T", [&](MethodContext& txn) {
    Status withdraw =
        txn.Call(acct, Invocation("withdraw", {Value(int64_t{100})}));
    EXPECT_TRUE(withdraw.IsConflict()) << withdraw;
    EXPECT_EQ(db.locks().LockCount(), want.after_withdraw);
    OODB_RETURN_IF_ERROR(txn.Call(relay, Invocation("run")));
    EXPECT_EQ(after_depth2_failure, want.after_insert);
    EXPECT_EQ(db.locks().LockCount(), want.after_relay);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(db.locks().LockCount(), 0u);
  EXPECT_EQ(db.StateOf<AccountState>(acct)->balance, 10);
}

std::vector<MatrixParam> MatrixParams() {
  std::vector<MatrixParam> params;
  for (SchedulerKind kind :
       {SchedulerKind::kOpenNested, SchedulerKind::kClosedNested,
        SchedulerKind::kFlat2PL, SchedulerKind::kObjectExclusive}) {
    for (uint64_t seed : {1, 2, 3}) {
      params.push_back({kind, DeadlockPolicy::kDetect, seed});
    }
  }
  // Wait-die sampled on the paper's scheduler.
  for (uint64_t seed : {4, 5}) {
    params.push_back(
        {SchedulerKind::kOpenNested, DeadlockPolicy::kWaitDie, seed});
  }
  return params;
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string name = SchedulerKindName(info.param.scheduler);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_" + DeadlockPolicyName(info.param.policy)[0] +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerMatrixTest,
                         ::testing::ValuesIn(MatrixParams()), MatrixName);

}  // namespace
}  // namespace oodb
