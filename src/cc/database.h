// Database: the object store plus the transaction runtime.
//
// A Database owns the objects (encapsulated state + type), the method
// registry, the semantic lock manager, and the TransactionSystem that
// records every execution (the input to the schedule validator). Its
// scheduler mode selects the concurrency control protocol:
//
//   kOpenNested       open nested semantic 2PL — the paper's protocol:
//                     every action locks in commutativity modes; locks
//                     pass up at completion and unwind at commit.
//   kClosedNested     closed nested transactions [12]: same semantic
//                     modes, but nothing releases before top-level
//                     commit — "only top-level-transactions are
//                     isolated from each other".
//   kFlat2PL          conventional strict 2PL at the primitive (page)
//                     layer: the baseline the paper compares against.
//   kObjectExclusive  the section 1 strawman: every touched object is
//                     locked exclusively until commit ("locking the
//                     whole object for the possibly long time a
//                     transaction may last is not acceptable").
//   kNone             no concurrency control (to produce the anomalous
//                     histories the validator must reject).
//
// Aborts (voluntary, deadlock, or failure) are compensation-based, as
// open nesting requires: each completed action registers a compensating
// invocation; abort executes the direct children's compensations in
// reverse completion order as ordinary actions.
//
// An action's own runtime state lives in its MethodContext: the locks
// it holds (its own and its completed children's, passed up) and the
// compensations its completed children registered. Completion moves
// them into the parent's context or releases/drops them; nothing is
// looked up by action id.
//
// Sharding and history modes. With `shards` > 1 the object map and the
// lock table are partitioned by object id: lookups take a per-shard
// shared_mutex in shared mode, and lock traffic stays within its
// stripe (see lock_manager.h). History recording has two modes:
// kRecorded appends every action to the shared TransactionSystem (the
// classic, validator-ready path), kEpochBatched appends compact events
// to per-thread buffers that a flusher drains once per epoch
// (AdvanceEpoch) — the throughput path; replay the batches through
// HistoryEpochSink to validate after the fact. The modes differ only in
// where an action's record goes. While transactions run the runtime
// never reads the record: the lock manager, the WAL and the tracer take
// everything they need (call sphere, depth, top-level name, object
// name) from the calling thread's MethodContext and the object's
// runtime entry, so durability and tracing work in both modes.

#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/durability.h"
#include "cc/epoch_log.h"
#include "cc/lock_manager.h"
#include "cc/method.h"
#include "cc/method_registry.h"
#include "model/transaction_system.h"
#include "obs/metrics.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "util/histogram.h"

namespace oodb {

class MetricsSampler;

/// Cheap atomic tallies of everything a Database ran. Writers bump them
/// with relaxed atomics on the hot path; readers (benches, harness,
/// monitors) may load at any time.
struct RunCounters {
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> deadlocks{0};   ///< deadlock verdicts at top level
  std::atomic<uint64_t> conflicts{0};   ///< lock acquisitions denied
  std::atomic<uint64_t> operations{0};  ///< primitive actions executed
  std::atomic<uint64_t> retries{0};     ///< deadlock-triggered re-runs

  void Reset() {
    committed = aborted = deadlocks = 0;
    conflicts = operations = retries = 0;
  }
};

enum class SchedulerKind {
  kOpenNested,
  kClosedNested,
  kFlat2PL,
  kObjectExclusive,
  kNone,
};

/// Human-readable scheduler name for reports.
const char* SchedulerKindName(SchedulerKind kind);

/// The scheduler a command line names: the short flag names "open",
/// "closed", "flat2pl", "exclusive" and "none". False for anything else.
bool SchedulerKindFromName(const std::string& name, SchedulerKind* out);

/// How the execution history is published.
enum class HistoryMode {
  /// Every action is recorded into the shared TransactionSystem: the
  /// call when it starts, its timestamp and completion when it
  /// finishes. The record is the history: validate or print it directly
  /// once the run is over. One global mutex per recorded event.
  kRecorded,
  /// Actions append ActionEvents to per-thread buffers; AdvanceEpoch
  /// drains all buffers into one batch per epoch for the attached
  /// EpochSink. Nothing lands in the TransactionSystem during the run
  /// (objects are still registered). See cc/epoch_log.h.
  kEpochBatched,
};

struct DatabaseOptions {
  SchedulerKind scheduler = SchedulerKind::kOpenNested;
  LockManagerOptions lock_options;
  /// RunTransaction retries after deadlock up to this many times.
  int max_retries = 16;
  /// When nonzero, deadlock-retry backoff is drawn from an Rng seeded
  /// from this value and the transaction name, making retry schedules
  /// reproducible run to run. 0 keeps the per-thread seeding (distinct
  /// every run), which spreads contending threads better.
  uint64_t backoff_seed = 0;
  /// Runtime shards: partitions the object map and the lock table (the
  /// resolved count replaces lock_options.shards). 1 = the classic
  /// single-shard runtime; 0 = hardware thread count. Capped at
  /// LockManager::kMaxShards.
  size_t shards = 1;
  HistoryMode history = HistoryMode::kRecorded;
};

/// The body of a transaction: issues top-level calls through the
/// context and returns OK to commit or an error to abort.
using TransactionBody = std::function<Status(MethodContext& txn)>;

class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- setup ----------------------------------------------------------

  /// Registers the implementation of `method` for `type`, with optional
  /// declared schema traits (observer flag, call targets, parameter
  /// samples — see MethodTraits) for the static analysis passes.
  void Register(const ObjectType* type, const std::string& method,
                MethodImpl impl, MethodTraits traits = {});

  /// Declares schema traits for an already-registered method (keeps the
  /// registration call sites compact when implementations are lambdas).
  void DeclareTraits(const ObjectType* type, const std::string& method,
                     MethodTraits traits);

  /// Declares the probing hooks of `type` for the commutativity
  /// inference engine (state-class generators + fingerprint; primitive
  /// types only — see TypeProbeTraits).
  void DeclareProbe(const ObjectType* type, TypeProbeTraits traits);

  /// Creates an object with the given state. Thread-safe (splits create
  /// objects mid-transaction).
  ObjectId CreateObject(const ObjectType* type, std::string name,
                        std::unique_ptr<ObjectState> state);

  // --- execution -------------------------------------------------------

  /// Runs `body` as a top-level transaction named `name`, committing on
  /// OK. Deadlocks abort (with compensation), back off, and retry up to
  /// max_retries; other errors abort and return. Every attempt —
  /// including aborted ones and their compensations — is recorded in the
  /// transaction system, so validation sees the real history.
  Status RunTransaction(const std::string& name, const TransactionBody& body);

  // --- epoch-batched history -------------------------------------------

  /// In kEpochBatched mode: drains every thread's event buffer into one
  /// batch, hands it to the sink (if any), and returns the batch size.
  /// Call from a flusher thread at the epoch interval, and once after
  /// the last transaction finishes to publish the tail. No-op (returns
  /// 0) in kRecorded mode.
  uint64_t AdvanceEpoch();

  /// Receives each flushed batch (kEpochBatched only). Attach before
  /// traffic; null detaches (batches are then counted and dropped).
  void SetEpochSink(EpochSink* sink) { epoch_sink_ = sink; }

  /// The event log in kEpochBatched mode, null otherwise.
  EpochLog* epoch_log() { return epoch_log_.get(); }

  // --- observability ---------------------------------------------------

  /// Publishes into `metrics` (db.txn.* / db.call.* counters, the lock
  /// manager's db.lock.* family, and per-root-transaction phase.*_ns
  /// latency histograms — see obs/phases.h) and records one span per
  /// action into `tracer` from now on. Either may be null to leave that
  /// side off; calling again with nulls detaches. Attach before running
  /// transactions; attaching is not synchronized against concurrent
  /// ExecuteCall traffic.
  void AttachObservability(MetricsRegistry* metrics, Tracer* tracer);

  /// Registers this runtime's contention probes on `sampler`: per-stripe
  /// lock-table occupancy/wait-depth gauges, waits-for graph size, top-K
  /// hot objects and epoch-pipeline depth — all refreshed on each
  /// sampler tick into the registry given to
  /// AttachObservability (which must be the sampler's registry, attached
  /// first). See docs/OBSERVABILITY.md ("Contention snapshots").
  void InstallSamplerProbes(MetricsSampler* sampler);

  // --- durability ------------------------------------------------------

  /// Attaches (or, with null, detaches) the persistence engine. While
  /// attached, every RunTransaction attempt runs under a shared
  /// transaction gate and reports op/commit/abort events to the hook
  /// (see DurabilityHook for the exact ordering contract). Attach while
  /// no transactions run; the runtime does not synchronize the switch.
  void AttachDurability(DurabilityHook* hook) { durability_ = hook; }
  DurabilityHook* durability() const { return durability_; }

  /// Runs `fn` while holding the transaction gate exclusively: no
  /// transaction attempt is in flight during `fn`, and every previously
  /// committed transaction's effects are fully applied. This is the
  /// stop-the-world window a consistent checkpoint needs. Must not be
  /// called from inside a transaction body (it would self-deadlock).
  void QuiesceAndRun(const std::function<void()>& fn);

  // --- introspection ---------------------------------------------------

  /// The recorded execution (for the validator and the printers).
  /// In kEpochBatched mode it holds the objects but no actions.
  TransactionSystem& ts() { return ts_; }
  const TransactionSystem& ts() const { return ts_; }

  LockManager& locks() { return locks_; }
  /// The registered methods and their declared traits (for `oodb lint`).
  const MethodRegistry& registry() const { return registry_; }
  RunCounters& counters() { return counters_; }
  const DatabaseOptions& options() const { return options_; }
  /// Resolved runtime shard count (object map stripes).
  size_t shard_count() const { return object_shards_.size(); }

  /// Direct, unsynchronized state peek for tests and for loading data
  /// outside any transaction. Do not use while transactions run.
  template <typename T>
  T* StateOf(ObjectId id) {
    return static_cast<T*>(RuntimeOf(id)->state.get());
  }

 private:
  friend class MethodContext;

  struct RuntimeObject {
    const ObjectType* type;
    /// Copy of the record's name, for WAL records, spans and lock
    /// verdicts (the record itself is not read while transactions run).
    std::string name;
    std::unique_ptr<ObjectState> state;
    std::mutex latch;
  };

  /// One stripe of the object map. Lookups (the per-call hot path) take
  /// `mu` shared; only CreateObject takes it exclusive.
  struct ObjectShard {
    mutable std::shared_mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<RuntimeObject>> objects;
  };

  RuntimeObject* RuntimeOf(ObjectId id);

  /// Records the span of `ctx`'s action into tracer_. Caller checks
  /// tracer_. `phases`, when non-empty, is a PhasesJson fragment
  /// attached to the span (root-transaction spans only).
  void TraceAction(const MethodContext& ctx, const std::string& name,
                   uint64_t start, const char* outcome,
                   std::string phases = {});

  /// Publishes the record of `ctx`'s finished action, the one place an
  /// action's end reaches the history. kRecorded stamps the action
  /// (recorded when it started) in ts_; kEpochBatched appends one
  /// ActionEvent to this thread's buffer. `timestamp` is a completed
  /// primitive's Axiom 1 stamp, else 0. `inv` is moved into the event;
  /// a top-level action's event carries its attempt name instead.
  void FinishAction(const MethodContext& ctx, ActionEvent::Outcome outcome,
                    uint32_t process, uint64_t timestamp, Invocation&& inv);

  /// Records, locks, and executes one call; the heart of the runtime.
  /// `parent_ctx` is the caller's context (the transaction body's for
  /// top-level calls): it supplies the parent action, the cached
  /// top-level id and the ancestor chain for sphere checks, and
  /// receives the child's passed-up locks and compensation at
  /// completion. `process` overrides the
  /// inherited intra-transaction process id (0 = inherit); used by
  /// CallParallel. When the call completed on a persistent root and was
  /// logged, `logged_lsn` (if non-null) receives the WAL record's LSN
  /// (0 otherwise).
  Status ExecuteCall(MethodContext* parent_ctx, ObjectId obj,
                     Invocation inv, Value* result, uint32_t process = 0,
                     uint64_t* logged_lsn = nullptr);

  /// Runs the registered compensations of `ctx`'s action's completed
  /// children in reverse completion order (as ordinary actions under
  /// that action).
  void CompensateChildren(MethodContext* ctx);

  DatabaseOptions options_;
  TransactionSystem ts_;
  LockManager locks_;
  MethodRegistry registry_;
  RunCounters counters_;

  /// Object map stripes; unique_ptr keeps each stripe's shared_mutex
  /// off its neighbors' cache lines.
  std::vector<std::unique_ptr<ObjectShard>> object_shards_;

  /// Fresh intra-transaction process ids for CallParallel (Def 9);
  /// process 0 is the default sequential process of every transaction.
  std::atomic<uint32_t> next_process_{1};

  /// Epoch-batched history (null in kRecorded mode). Its action ids and
  /// completion sequence numbers come from the atomic counters below
  /// instead of the TransactionSystem.
  std::unique_ptr<EpochLog> epoch_log_;
  EpochSink* epoch_sink_ = nullptr;
  std::atomic<uint64_t> next_action_{0};
  std::atomic<uint64_t> next_completion_{0};
  /// Axiom 1 timestamps in both modes, taken under the object latch.
  std::atomic<uint64_t> next_timestamp_{0};

  /// Persistence engine, or null for the classic in-memory database.
  /// The WAL-off fast path costs one null test per event.
  DurabilityHook* durability_ = nullptr;
  /// Transaction gate: attempts hold it shared, checkpoints exclusive.
  /// Only taken while durability_ is attached.
  std::shared_mutex txn_gate_;

  /// Observability sinks; all null when detached, so the hot path pays
  /// one predictable branch per event.
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  /// Per-phase latency histograms (null when metrics are detached);
  /// RunTransaction feeds one observation per finished root txn.
  std::unique_ptr<PhaseHistograms> phase_histograms_;
  Counter* m_committed_ = nullptr;
  Counter* m_aborted_ = nullptr;
  Counter* m_deadlocks_ = nullptr;
  Counter* m_retries_ = nullptr;
  Counter* m_conflict_count_ = nullptr;
  Counter* m_operations_ = nullptr;
  Counter* m_epoch_flushes_ = nullptr;
  Counter* m_epoch_event_count_ = nullptr;
};

}  // namespace oodb
