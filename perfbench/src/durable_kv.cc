// durable-kv: a persistent Directory D and HashIndex H (bucket capacity
// 16) under the StorageEngine.
//
// 20k preloaded keys, checkpointed in set-up; uniform keys; 50% read
// transactions (D.lookup + H.search of one key: they log nothing) and
// 50% write transactions (insert of the same key and a fresh value into
// both roots). In the timed phase every commit that logged appends its
// records to the WAL without fsync (WalOptions::fsync=false): fsync
// latency on a shared virtual disk swings by up to 10x from minute to
// minute, which no run length averages out. Checkpoints still sync.
// Automatic checkpoints run every kCheckpointEvery logged commits.
// Storage and the recorded history do most of the work and the lock
// manager little.
//
// Durability needs the recorded history, which keeps every action, so
// before each round of the timed phase the store is checkpointed and
// reopened in a fresh Database (untimed); memory then stays bounded by
// one round's history, and every round runs on a reopened store.
//
// After the timed phase: an explicit checkpoint; then a fresh database
// reopens the store and writes a fixed tail (shorter than the checkpoint
// cadence) with fsync at every commit that logged, the engine default;
// traced runs take the WAL force and fsync metrics from it. The tail's
// recorded history is certified; then that database is dropped without a
// checkpoint and Open + Recover is timed in a fresh one, which must dump
// exactly the roots the tail left.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "containers/directory.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "containers/persist.h"
#include "storage/recovery.h"
#include "util/random.h"

namespace perfbench {
namespace {

using oodb::HashIndex;
using oodb::Invocation;
using oodb::MethodContext;
using oodb::ObjectId;
using oodb::Value;

constexpr uint32_t kKeys = 20000;
constexpr size_t kBucketCapacity = 16;
constexpr double kReadFraction = 0.50;
constexpr size_t kStreamOps = size_t{1} << 16;
/// Automatic checkpoint cadence, in commits that logged (about one a
/// second on the reference host).
constexpr uint64_t kCheckpointEvery = 25000;
/// The recovered tail: shorter than the cadence, so no checkpoint in it.
constexpr uint64_t kTailTxns = 2000;
/// The tail's inputs are the same on every run, so certify_ms and the
/// recovery compare like with like.
constexpr uint64_t kTailSeed = 0xA0D17;

struct KvOp {
  bool write;
  uint32_t key;
};

std::string Key(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06u", i);
  return buf;
}

/// Fixed-width (16 byte) values, so live bytes stay constant.
std::string ValueFor(size_t client, uint64_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "v%02zu%013llu", client % 100,
                (unsigned long long)(seq % 10000000000000ULL));
  return buf;
}

/// `n` operations of client `client`'s stream.
std::vector<KvOp> Generate(uint64_t seed, size_t client, size_t n) {
  oodb::Rng rng(seed * 1000003 + client);
  std::vector<KvOp> stream(n);
  for (KvOp& op : stream) {
    op.write = rng.NextDouble() >= kReadFraction;
    op.key = static_cast<uint32_t>(rng.NextBelow(kKeys));
  }
  return stream;
}

void RegisterMethods(oodb::Database* db) {
  oodb::RegisterDirectoryMethods(db);
  HashIndex::RegisterMethods(db);
  // Buckets keep their entries on Pages: without the page methods every
  // hash-index operation fails with "no method 'read' on type Page".
  oodb::RegisterPageMethods(db);
}

class DurableKv : public Workload {
 public:
  explicit DurableKv(const Config& config)
      : config_(config),
        streams_(config.clients),
        tails_(config.clients),
        next_(config.clients),
        tail_next_(config.clients),
        lookup_("containers.directory.lookup_us", config.clients),
        dir_insert_("containers.directory.insert_us", config.clients),
        search_("containers.hash_index.search_us", config.clients),
        idx_insert_("containers.hash_index.insert_us", config.clients) {
    static std::atomic<int> instances{0};
    dir_ = config.workdir + "/kv-" + std::to_string(::getpid()) + "-" +
           std::to_string(instances++);
    const uint64_t tail_per_client =
        std::max<uint64_t>(1, kTailTxns / config.clients);
    for (size_t c = 0; c < config.clients; ++c) {
      streams_[c] = Generate(config.seed, c, kStreamOps);
      tails_[c] = Generate(kTailSeed, c, tail_per_client);
    }
  }

  ~DurableKv() override {
    Drop();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  Status Setup() override {
    std::filesystem::remove_all(dir_);
    NewStore(/*fsync=*/false);
    OODB_RETURN_IF_ERROR(oodb::RegisterStandardSerdes(engine_.get()));
    OODB_RETURN_IF_ERROR(engine_->Open(db_.get()));
    d_ = oodb::CreateDirectory(db_.get(), "D");
    h_ = HashIndex::Create(db_.get(), "H", kBucketCapacity);
    OODB_RETURN_IF_ERROR(engine_->AttachRoot("D", "directory", d_));
    OODB_RETURN_IF_ERROR(engine_->AttachRoot("H", "hash-index", h_));
    for (uint32_t i = 0; i < kKeys; ++i) {
      const std::string key = Key(i);
      const std::string value = ValueFor(0, i);
      OODB_RETURN_IF_ERROR(
          db_->RunTransaction("preload", [&](MethodContext& txn) {
            OODB_RETURN_IF_ERROR(txn.Call(
                d_, Invocation("insert", {Value(key), Value(value)})));
            return txn.Call(h_, HashIndex::Insert(key, value));
          }));
    }
    OODB_RETURN_IF_ERROR(engine_->Checkpoint(db_.get()));
    db_->AttachDurability(engine_.get());
    db_->counters().Reset();
    return Status::OK();
  }

  void Observe(oodb::MetricsRegistry* registry) override {
    registry_ = registry;
    db_->AttachObservability(registry, nullptr);
    engine_->AttachMetrics(registry);
    actions_before_ = db_->ts().action_count();
  }

  Status NextRound() override {
    // Round-boundary checkpoints are not the workload's: detach first.
    if (registry_ != nullptr) engine_->AttachMetrics(nullptr);
    OODB_RETURN_IF_ERROR(engine_->Checkpoint(db_.get()));
    actions_ += db_->ts().action_count() - actions_before_;
    OODB_RETURN_IF_ERROR(Reopen(/*fsync=*/false));
    db_->AttachDurability(engine_.get());
    if (registry_ != nullptr) Observe(registry_);
    return Status::OK();
  }

  TxnResult Txn(size_t client) override {
    const uint64_t seq = next_[client].value++;
    return Run(client, streams_[client][seq % kStreamOps], seq);
  }

  void LayerMetrics(const PhaseStats& timed, Report* report) override {
    PhaseShares(registry_, report);
    LockMetrics(db_.get(), registry_, timed, report);
    auto counter = [&](const char* name) {
      return double(registry_->GetCounter(name)->Value());
    };
    const double roots =
        counter("db.txn.committed") + counter("db.txn.aborted");
    const double actions =
        double(actions_ + db_->ts().action_count() - actions_before_);
    report->Set("cc.actions_per_txn",
                Ratio(actions - roots, double(timed.attempted)), "count");
    report->Set("storage.wal.bytes_per_write_txn",
                Ratio(counter("wal.bytes"), double(timed.committed_writes)),
                "B");
    const double ckpt_ns = double(HistSum(registry_, "storage.ckpt.total_ns"));
    report->Set("storage.ckpt.count", counter("storage.checkpoints"),
                "count");
    report->Set("storage.ckpt.total_ms", ckpt_ns / 1e6, "ms");
    report->Set("storage.ckpt.writeback_ms",
                double(HistSum(registry_, "storage.ckpt.writeback_ns")) / 1e6,
                "ms");
    report->Set("storage.ckpt.stall_frac", Ratio(ckpt_ns / 1e9, timed.wall_s),
                "ratio");
    for (CallSite* site : {&lookup_, &dir_insert_, &search_, &idx_insert_}) {
      report->Set(site->metric(), site->P50Us(), "us");
    }
    report->Idle(kEncMetrics);
    report->Idle(kEpochMetrics);
  }

  void Finish(const PhaseStats&, Report* report) override {
    Status st = FinishStore(report);
    if (!st.ok()) report->Violation("durable-kv: " + st.ToString());
  }

  const char* flush_policy() const override {
    return "timed phase: no fsync (WalOptions::fsync=false); tail: fsync at "
           "every commit that logged";
  }

 private:
  TxnResult Run(size_t client, const KvOp& op, uint64_t seq) {
    const std::string key = Key(op.key);
    Spans::Scope span("txn", /*root=*/true);
    Status st;
    if (op.write) {
      const std::string value = ValueFor(client, seq);
      st = db_->RunTransaction("write", [&](MethodContext& txn) {
        OODB_RETURN_IF_ERROR(dir_insert_.Call(
            client, txn, d_, Invocation("insert", {Value(key), Value(value)})));
        return idx_insert_.Call(client, txn, h_,
                                HashIndex::Insert(key, value));
      });
    } else {
      st = db_->RunTransaction("read", [&](MethodContext& txn) {
        Value found;
        OODB_RETURN_IF_ERROR(lookup_.Call(client, txn, d_,
                                          Invocation("lookup", {Value(key)}),
                                          &found));
        if (found.IsNone()) return Status::Internal("D lost " + key);
        OODB_RETURN_IF_ERROR(
            search_.Call(client, txn, h_, HashIndex::Search(key), &found));
        if (found.IsNone()) return Status::Internal("H lost " + key);
        return Status::OK();
      });
    }
    return TxnResult{st, op.write};
  }

  /// Drops the database, then the engine it logged to. Nothing is
  /// checkpointed: this is the simulated crash.
  void Drop() {
    db_.reset();
    engine_.reset();
  }

  void NewStore(bool fsync) {
    Drop();
    oodb::DatabaseOptions options;
    options.shards = kShards;
    db_ = std::make_unique<oodb::Database>(options);
    RegisterMethods(db_.get());
    oodb::StorageEngineOptions store;
    store.dir = dir_;
    store.wal.fsync = fsync;
    store.checkpoint_every_commits = kCheckpointEvery;
    store.keep_archived_wals = false;
    engine_ = std::make_unique<oodb::StorageEngine>(store);
  }

  /// Drops the database and engine and reopens the store in fresh ones
  /// (Open + Recover), without attaching durability.
  Status Reopen(bool fsync) {
    NewStore(fsync);
    OODB_RETURN_IF_ERROR(oodb::RegisterStandardSerdes(engine_.get()));
    OODB_RETURN_IF_ERROR(engine_->Open(db_.get()));
    OODB_RETURN_IF_ERROR(oodb::Recover(engine_.get(), db_.get()));
    d_ = engine_->RootId("D");
    h_ = engine_->RootId("H");
    if (!d_.valid() || !h_.valid()) return Status::NotFound("roots lost");
    return Status::OK();
  }

  Status FinishStore(Report* report) {
    // The live store: one explicit checkpoint, then its footprint.
    {
      Spans::Scope span("checkpoint");
      OODB_RETURN_IF_ERROR(engine_->Checkpoint(db_.get()));
    }
    uint64_t user_bytes = 0;
    for (const auto& [key, value] :
         db_->StateOf<oodb::DirectoryState>(d_)->entries) {
      user_bytes += key.size() + value.size();
    }
    report->Set("storage.bytes_per_user_byte",
                Ratio(double(std::filesystem::file_size(dir_ + "/pages.db")),
                      double(user_bytes)),
                "ratio");

    // The tail: a fresh database reopens the store and runs a fixed
    // number of transactions, forcing the WAL at every commit that
    // logged; its recorded history is certified.
    OODB_RETURN_IF_ERROR(Reopen(/*fsync=*/true));
    db_->AttachDurability(engine_.get());
    if (Spans::enabled()) engine_->AttachMetrics(&tail_metrics_);
    PhaseStats tail = RunClients(
        config_.clients, 0, tails_[0].size(), nullptr, [this](size_t c) {
          const uint64_t i = tail_next_[c].value++;
          return Run(c, tails_[c][i % tails_[c].size()], i);
        });
    report->CountPhase(tail);
    if (Spans::enabled()) {
      report->Set(
          "storage.wal.forces_per_commit",
          Ratio(double(tail_metrics_.GetCounter("wal.forces")->Value()),
                double(tail.committed)),
          "count");
      const oodb::HistogramSnapshot fsync =
          tail_metrics_.GetHistogram("wal.fsync_ns")->Snapshot();
      report->Set("storage.wal.fsync_p50_us",
                  double(fsync.Quantile(0.5)) / 1e3, "us");
      report->Set("storage.wal.fsync_p99_us",
                  double(fsync.Quantile(0.99)) / 1e3, "us");
    }
    const std::string expected = engine_->DumpRoots(*db_);
    report->Set("certify_ms", Certify(db_->ts(), nullptr, report), "ms");

    // Crash, then time Open + Recover in a fresh database.
    NewStore(/*fsync=*/true);
    if (Spans::enabled()) engine_->AttachMetrics(&recovery_metrics_);
    oodb::RecoveryStats stats;
    const uint64_t t0 = NowNs();
    {
      Spans::Scope span("open");
      OODB_RETURN_IF_ERROR(oodb::RegisterStandardSerdes(engine_.get()));
      OODB_RETURN_IF_ERROR(engine_->Open(db_.get()));
    }
    {
      Spans::Scope span("recover");
      OODB_RETURN_IF_ERROR(oodb::Recover(engine_.get(), db_.get(), &stats));
    }
    const double recover_ms = MsSince(t0);
    std::printf("recovery: %.3f ms, %llu redo records, %llu winners, %llu "
                "losers; timeline %s\n",
                recover_ms, (unsigned long long)stats.redo_records,
                (unsigned long long)stats.winners,
                (unsigned long long)stats.losers,
                stats.timeline.Json().c_str());

    // Gate: the recovered roots are exactly what the tail committed, and
    // the recovery timeline accounts for all of its wall time.
    if (engine_->DumpRoots(*db_) != expected) {
      report->Violation("recovered roots differ from the pre-crash dump");
    }
    if (stats.timeline.total_ns == 0 ||
        std::fabs(stats.timeline.Coverage() - 1.0) > 1e-9) {
      report->Violation("recovery timeline coverage is " +
                        std::to_string(stats.timeline.Coverage()));
    }

    report->Set("storage.recover_ms", recover_ms, "ms");
    auto phase_ms = [&](oodb::RecoveryPhase p) {
      return double(stats.timeline.Ns(p)) / 1e6;
    };
    report->Set("storage.recovery.scan_ms",
                phase_ms(oodb::RecoveryPhase::kScan), "ms");
    report->Set("storage.recovery.analysis_ms",
                phase_ms(oodb::RecoveryPhase::kAnalysis), "ms");
    report->Set("storage.recovery.redo_ms",
                phase_ms(oodb::RecoveryPhase::kRedo), "ms");
    report->Set("storage.recovery.undo_ms",
                phase_ms(oodb::RecoveryPhase::kUndo), "ms");
    report->Set("storage.recovery.checkpoint_ms",
                phase_ms(oodb::RecoveryPhase::kCheckpoint), "ms");
    report->Set("storage.recovery.redo_records", double(stats.redo_records),
                "count");
    if (Spans::enabled()) {
      const oodb::PageCacheStats cache = engine_->cache()->stats();
      report->Set("storage.cache.hit_ratio",
                  Ratio(double(cache.hits), double(cache.hits + cache.misses)),
                  "ratio");
      report->Set("storage.cache.evictions", double(cache.evictions),
                  "count");
    }
    Drop();
    return Status::OK();
  }

  Config config_;
  std::string dir_;
  std::vector<std::vector<KvOp>> streams_;
  std::vector<std::vector<KvOp>> tails_;
  std::vector<ClientCounter> next_;
  std::vector<ClientCounter> tail_next_;
  CallSite lookup_, dir_insert_, search_, idx_insert_;
  /// Traced runs: the tail's and the recovering engine's metrics. Before
  /// engine_, so they outlive every engine attached to them.
  oodb::MetricsRegistry tail_metrics_;
  oodb::MetricsRegistry recovery_metrics_;
  std::unique_ptr<oodb::StorageEngine> engine_;
  std::unique_ptr<oodb::Database> db_;  // after engine_: destroyed first
  ObjectId d_, h_;
  oodb::MetricsRegistry* registry_ = nullptr;
  /// Recorded actions of the timed phase: earlier rounds' databases, and
  /// the current one's count when it was attached.
  size_t actions_ = 0;
  size_t actions_before_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDurableKv(const Config& config) {
  return std::make_unique<DurableKv>(config);
}

}  // namespace perfbench
