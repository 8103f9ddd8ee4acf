#include "workload/crash_harness.h"

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <map>
#include <thread>
#include <unordered_set>
#include <vector>

#include "containers/directory.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "containers/persist.h"
#include "schedule/history_io.h"
#include "schedule/validator.h"
#include "util/io.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/random.h"

namespace oodb {

namespace {

constexpr char kDirRoot[] = "D";
constexpr char kIndexRoot[] = "H";
constexpr size_t kBucketCapacity = 4;

void RegisterAll(Database* db) {
  RegisterPageMethods(db);
  RegisterDirectoryMethods(db);
  HashIndex::RegisterMethods(db);
}

/// Open (or create) the store and make sure both roots exist.
Status OpenStore(StorageEngine* engine, Database* db) {
  OODB_RETURN_IF_ERROR(RegisterStandardSerdes(engine));
  OODB_RETURN_IF_ERROR(engine->Open(db));
  if (!engine->RootId(kDirRoot).valid()) {
    OODB_RETURN_IF_ERROR(engine->AttachRoot(
        kDirRoot, "directory", CreateDirectory(db, kDirRoot)));
  }
  if (!engine->RootId(kIndexRoot).valid()) {
    OODB_RETURN_IF_ERROR(engine->AttachRoot(
        kIndexRoot, "hash-index",
        HashIndex::Create(db, kIndexRoot, kBucketCapacity)));
  }
  return Status::OK();
}

/// One seeded transaction body. Reconstructable: the body derives all
/// randomness from (seed, thread, index) on every attempt, so deadlock
/// retries re-run the same logical operations.
TransactionBody MakeTxn(StorageEngine* engine, uint64_t seed, size_t thread,
                        size_t index) {
  return [engine, seed, thread, index](MethodContext& txn) -> Status {
    Rng rng(seed * 1000003 + thread * 131071 + index * 31 + 1);
    ObjectId dir = engine->RootId(kDirRoot);
    ObjectId idx = engine->RootId(kIndexRoot);
    const size_t ops = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(rng.NextBelow(40));
      const std::string val = "v" + std::to_string(rng.NextBelow(100000));
      const uint64_t dice = rng.NextBelow(100);
      Status st;
      if (rng.NextBool()) {
        if (dice < 55) {
          st = txn.Call(dir, Invocation("insert", {Value(key), Value(val)}));
        } else if (dice < 75) {
          st = txn.Call(dir, Invocation("remove", {Value(key)}));
        } else if (dice < 90) {
          // May return NotFound: a genuine mid-transaction abort that
          // exercises the compensation + abort-record path.
          st = txn.Call(dir, Invocation("update", {Value(key), Value(val)}));
        } else {
          st = txn.Call(dir, Invocation("lookup", {Value(key)}));
        }
      } else {
        if (dice < 55) {
          st = txn.Call(idx, HashIndex::Insert(key, val));
        } else if (dice < 80) {
          st = txn.Call(idx, HashIndex::Erase(key));
        } else {
          st = txn.Call(idx, HashIndex::Search(key));
        }
      }
      if (!st.ok()) return st;
    }
    if (rng.NextBelow(100) < 12) {
      return Status::Aborted("induced abort");
    }
    return Status::OK();
  };
}

void RunWorkload(Database* db, StorageEngine* engine, uint64_t seed,
                 size_t txns, size_t threads) {
  if (threads == 0) threads = 1;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const size_t per_thread = (txns + threads - 1) / threads;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([=] {
      for (size_t i = 0; i < per_thread; ++i) {
        // Aborts (induced or NotFound) are part of the plan; deadlock
        // retries are inside RunTransaction.
        (void)db->RunTransaction(
            "w" + std::to_string(t) + "." + std::to_string(i),
            MakeTxn(engine, seed, t, i));
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Child side: open, recover (trivial on a fresh dir), arm the crash,
/// run the workload. Exits 0 when the armed crash never fired.
int RunChild(const CrashHarnessConfig& config) {
  Database db;
  RegisterAll(&db);
  StorageEngineOptions opts;
  opts.dir = config.dir;
  opts.wal.crash_after_appends = config.crash_after_appends;
  opts.checkpoint_every_commits = config.checkpoint_every_commits;
  StorageEngine engine(opts);
  if (!OpenStore(&engine, &db).ok()) return 3;
  RecoveryStats rs;
  if (!Recover(&engine, &db, &rs).ok()) return 4;
  db.AttachDurability(&engine);
  RunWorkload(&db, &engine, config.seed, config.txns, config.threads);
  return 0;
}

std::string FirstDiff(const std::string& got, const std::string& want) {
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  auto context = [i](const std::string& s) {
    const size_t start = i < 24 ? 0 : i - 24;
    return s.substr(start, 48);
  };
  return "...'" + context(got) + "' vs ...'" + context(want) + "'";
}

}  // namespace

std::string CrashHarnessReport::Row() const {
  std::string row = std::string("crashed=") + (crashed ? "1" : "0") +
                    " recovered=" + (recovered ? "1" : "0") +
                    " oracle_match=" + (state_matches_oracle ? "1" : "0") +
                    " lock_leaks=" + (no_lock_leaks ? "0" : "!") +
                    " pin_leaks=" + (no_pin_leaks ? "0" : "!") +
                    " history_valid=" + (history_valid ? "1" : "0") +
                    " winners=" + std::to_string(oracle_committed) +
                    " redo=" + std::to_string(recovery.redo_records) +
                    " undo=" + std::to_string(recovery.undo_records) +
                    " losers=" + std::to_string(recovery.losers) +
                    " epochs=" + std::to_string(wal_epochs);
  if (!failure.empty()) row += " FAIL: " + failure;
  return row;
}

std::string CrashHarnessReport::Json(int64_t crash_after) const {
  auto b = [](bool v) { return v ? "true" : "false"; };
  std::string out = "{\"crash_after\": " + std::to_string(crash_after) +
                    ", \"ok\": " + b(ok()) +
                    ", \"crashed\": " + b(crashed) +
                    ", \"recovered\": " + b(recovered) +
                    ", \"oracle_match\": " + b(state_matches_oracle) +
                    ", \"lock_leaks\": " + b(!no_lock_leaks) +
                    ", \"pin_leaks\": " + b(!no_pin_leaks) +
                    ", \"history_valid\": " + b(history_valid) +
                    ", \"oracle_committed\": " +
                    std::to_string(oracle_committed) +
                    ", \"wal_epochs\": " + std::to_string(wal_epochs) +
                    ", \"recovery\": {\"scanned_records\": " +
                    std::to_string(recovery.scanned_records) +
                    ", \"torn_bytes\": " + std::to_string(recovery.torn_bytes) +
                    ", \"winners\": " + std::to_string(recovery.winners) +
                    ", \"resolved\": " + std::to_string(recovery.resolved) +
                    ", \"losers\": " + std::to_string(recovery.losers) +
                    ", \"redo_records\": " +
                    std::to_string(recovery.redo_records) +
                    ", \"undo_records\": " +
                    std::to_string(recovery.undo_records) +
                    ", \"unundoable\": " + std::to_string(recovery.unundoable) +
                    ", \"timeline\": " + recovery.timeline.Json() + "}";
  if (!failure.empty()) {
    out += ", \"failure\": \"" + JsonEscape(failure) + "\"";
  }
  out += "}";
  return out;
}

CrashHarnessReport CrashHarness::Run(const CrashHarnessConfig& config) {
  CrashHarnessReport report;
  pid_t pid = ::fork();
  if (pid < 0) {
    report.failure = "fork failed";
    return report;
  }
  if (pid == 0) {
    // _exit skips atexit/static destructors: the child either dies by
    // the injected SIGKILL or leaves as abruptly as possible.
    ::_exit(RunChild(config));
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  report.crashed =
      WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    report.failure =
        "child setup failed rc=" + std::to_string(WEXITSTATUS(status));
    return report;
  }

  // --- recover ---------------------------------------------------------
  Database db;
  RegisterAll(&db);
  StorageEngineOptions opts;
  opts.dir = config.dir;
  StorageEngine engine(opts);
  Status st = OpenStore(&engine, &db);
  if (!st.ok()) {
    report.failure = "reopen failed: " + st.ToString();
    return report;
  }
  st = Recover(&engine, &db, &report.recovery);
  if (!st.ok()) {
    report.failure = "recovery failed: " + st.ToString();
    return report;
  }
  report.recovered = true;
  report.no_lock_leaks = db.locks().LockCount() == 0;
  report.no_pin_leaks = engine.cache()->PinnedCount() == 0;
  if (!report.no_lock_leaks) report.failure = "locks leaked";
  if (!report.no_pin_leaks) report.failure = "buffer pins leaked";

  // --- committed-only oracle ------------------------------------------
  Database oracle;
  RegisterAll(&oracle);
  std::map<std::string, ObjectId> oracle_roots;
  oracle_roots[kDirRoot] = CreateDirectory(&oracle, kDirRoot);
  oracle_roots[kIndexRoot] =
      HashIndex::Create(&oracle, kIndexRoot, kBucketCapacity);
  report.wal_epochs = engine.epoch();
  for (uint64_t e = 1; e <= engine.epoch(); ++e) {
    std::vector<WalRecord> records;
    Status scan = Wal::Scan(engine.WalPath(e), &records);
    if (scan.code() == StatusCode::kNotFound) continue;
    if (!scan.ok()) {
      report.failure = "oracle scan of epoch " + std::to_string(e) +
                       " failed: " + scan.ToString();
      return report;
    }
    std::unordered_set<uint64_t> committed;
    for (const WalRecord& rec : records) {
      if (rec.type == WalRecordType::kCommit) committed.insert(rec.txn);
    }
    report.oracle_committed += committed.size();
    for (const WalRecord& rec : records) {
      if (rec.type != WalRecordType::kOp || !committed.count(rec.txn)) {
        continue;
      }
      auto root = oracle_roots.find(rec.root);
      if (root == oracle_roots.end()) {
        report.failure = "oracle: unknown root '" + rec.root + "'";
        return report;
      }
      Status applied = oracle.RunTransaction(
          "oracle#" + std::to_string(rec.lsn), [&](MethodContext& txn) {
            return txn.Call(root->second, rec.op);
          });
      if (!applied.ok()) {
        report.failure = "oracle replay of " + rec.ToString() +
                         " failed: " + applied.ToString();
        return report;
      }
    }
  }

  // --- semantic comparison --------------------------------------------
  const RootSerde dir_serde = DirectorySerde();
  const RootSerde idx_serde = HashIndexSerde();
  const std::string got_dir = dir_serde.dump(db, engine.RootId(kDirRoot));
  const std::string want_dir = dir_serde.dump(oracle, oracle_roots[kDirRoot]);
  const std::string got_idx = idx_serde.dump(db, engine.RootId(kIndexRoot));
  const std::string want_idx =
      idx_serde.dump(oracle, oracle_roots[kIndexRoot]);
  report.state_matches_oracle =
      got_dir == want_dir && got_idx == want_idx;
  if (!report.state_matches_oracle && report.failure.empty()) {
    report.failure =
        got_dir != want_dir
            ? "directory diverges from oracle: " + FirstDiff(got_dir, want_dir)
            : "hash index diverges from oracle: " +
                  FirstDiff(got_idx, want_idx);
  }
  if (config.verbose) {
    OODB_ERROR("recovered directory:\n"
               << got_dir << "oracle directory:\n"
               << want_dir);
  }

  // --- life after recovery --------------------------------------------
  db.AttachDurability(&engine);
  if (config.post_txns > 0) {
    RunWorkload(&db, &engine, config.seed + 7919, config.post_txns,
                config.threads);
  }
  // Dumped before validating: the extension step adds virtual objects,
  // which a dump cannot carry.
  Result<std::string> history = HistoryIo::Dump(db.ts());
  ValidationReport validation = Validator::Validate(&db.ts());
  report.history_valid = validation.oo_serializable && validation.conform;
  if (!report.history_valid && report.failure.empty()) {
    report.failure = "post-recovery history fails Defs 13/16: " +
                     validation.Summary();
    // Keep the evidence next to the store, for `oodb explain --history`.
    const std::string path = config.dir + "/post_recovery.history";
    Status kept = history.ok() ? WriteOut(path, *history) : history.status();
    report.failure += kept.ok() ? " (history written to " + path + ")"
                                : " (history not kept: " + kept.ToString() +
                                      ")";
  }
  return report;
}

}  // namespace oodb
