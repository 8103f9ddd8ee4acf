// Shared pieces of the benchmark program: exact latency samples, the
// closed-loop client runner, benchmark-side spans, the epoch flusher,
// history certification, and the per-run report.
//
// Everything here calls the program only through its public API and
// times those calls from outside; no span or counter is added inside
// the program.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cc/database.h"
#include "cc/epoch_log.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace perfbench {

using oodb::Status;

uint64_t NowNs();
double MsSince(uint64_t start_ns);

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t clients = 4;
  /// Scratch directory inside the checkout: stores and span dumps.
  std::string workdir = ".";
};

/// Exact samples (nanoseconds); quantiles by nearest rank, never from
/// log buckets.
class Samples {
 public:
  void Add(uint64_t ns) { v_.push_back(ns); sorted_ = false; }
  void Reserve(size_t n);
  void Append(const Samples& other);
  size_t size() const { return v_.size(); }
  /// The q-quantile in nanoseconds; 0 when empty.
  double Quantile(double q);

 private:
  std::vector<uint64_t> v_;
  bool sorted_ = false;
};

/// Exact per-transaction latency of a timed phase, per client and split
/// by whether the transaction mutates. Each series is an anonymous
/// mapping of fixed capacity that becomes resident only as it fills, so
/// the bytes the samples occupy are known exactly and are kept out of
/// peak_rss_mb. Samples are nanoseconds, clamped to 2^32-1 (4.29 s).
class LatencyLog {
 public:
  explicit LatencyLog(size_t clients);
  ~LatencyLog();
  LatencyLog(const LatencyLog&) = delete;
  LatencyLog& operator=(const LatencyLog&) = delete;

  /// Records one transaction; only `client`'s own thread calls this.
  void Add(size_t client, bool write, uint64_t ns);
  /// Resident bytes of every series, as mincore reports them.
  size_t ResidentBytes() const;
  /// Samples dropped because a series was full (the run then fails).
  uint64_t dropped() const;
  /// A copy of every client's read and/or write samples.
  Samples Merged(bool reads, bool writes) const;

 private:
  struct alignas(64) Series {
    uint32_t* data = nullptr;
    size_t size = 0;
    uint64_t dropped = 0;
  };
  /// Series 2c holds client c's reads, 2c+1 its writes.
  std::vector<Series> series_;
};

/// Status codes RunTransaction can return (oodb::StatusCode values).
constexpr size_t kStatusCodes = 11;
static_assert(static_cast<size_t>(oodb::StatusCode::kUnsupported) + 1 ==
                  kStatusCodes,
              "kStatusCodes must cover every oodb::StatusCode");

/// What one closed-loop phase observed, merged over its clients.
struct PhaseStats {
  double wall_s = 0;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t committed_writes = 0;
  std::array<uint64_t, kStatusCodes> by_code{};
  std::string first_error;
};

/// One generated transaction as its client saw it.
struct TxnResult {
  Status status;
  bool write = false;
};

/// Closed loop: `clients` threads each run `txn(client)` back to back.
/// Runs for `seconds`, or, when `per_client` > 0, exactly that many
/// transactions per client. With a `latency` log, every call is timed
/// into it.
PhaseStats RunClients(size_t clients, double seconds, uint64_t per_client,
                      LatencyLog* latency,
                      const std::function<TxnResult(size_t)>& txn);

/// Benchmark-side spans around calls into the program's layers, kept in
/// memory per thread. Disabled (one relaxed load per scope) unless a
/// traced run enables them between phases.
class Spans {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// RAII span. A span opened with `root` starts a new transaction id for
  /// the calling thread; nested spans inherit it and name it as parent.
  class Scope {
   public:
    explicit Scope(const char* name, bool root = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool active_;
  };

  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;  ///< duration minus the time child spans cover
  };
  /// Per-name totals merged over every thread that recorded spans.
  static std::map<std::string, Agg> Aggregate();
  /// Writes the kept spans (the first ones of each thread, up to a cap)
  /// as JSON lines: name, start/end ns, parent index, txn id, thread.
  static Status WriteJsonLines(const std::string& path);
};

/// Per-client exact latency of one top-level call site, timed inside the
/// transaction body. Untraced runs call straight through.
class CallSite {
 public:
  CallSite(std::string metric, size_t clients);
  Status Call(size_t client, oodb::MethodContext& txn, oodb::ObjectId obj,
              oodb::Invocation inv, oodb::Value* result = nullptr);
  const std::string& metric() const { return metric_; }
  /// Median over every client, microseconds (0 when never sampled).
  double P50Us();

 private:
  struct alignas(64) Slot {
    Samples samples;
  };
  std::string metric_;
  std::vector<Slot> slots_;
};

/// The epoch flusher the runtime needs in epoch-batched mode: advances
/// the epoch every 5 ms. In traced runs each AdvanceEpoch is a span and
/// an exact sample.
class EpochFlusher {
 public:
  explicit EpochFlusher(oodb::Database* db) : db_(db) {}
  ~EpochFlusher() { Stop(); }
  EpochFlusher(const EpochFlusher&) = delete;
  EpochFlusher& operator=(const EpochFlusher&) = delete;

  void Start();
  /// Stops the thread and publishes the tail with a final AdvanceEpoch.
  void Stop();

  Samples& flush_ns() { return flush_ns_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t events() const { return events_; }

 private:
  void Advance();

  oodb::Database* db_;
  std::atomic<bool> stop_{false};
  Samples flush_ns_;
  uint64_t flushes_ = 0;
  uint64_t events_ = 0;
  std::thread thread_;  // last: joined before the members it uses go
};

/// What one run measured and checked; printed as the result line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Declares per-layer metrics of layers the workload does not exercise.
  /// They print as 0 in unit "idle"; perfbench/run.py then fails a traced
  /// run on any per-layer metric that is neither measured nor idle. A
  /// metric both measured and idle is a violation.
  void Idle(const std::vector<const char*>& names);
  /// Records a correctness violation (the run then exits non-zero).
  void Violation(const std::string& what);
  /// Folds a phase's transaction statuses into attempted/failed. An
  /// Unsupported status (a method missing from the registry) is a
  /// violation: the workload is misconfigured, not slow.
  void CountPhase(const PhaseStats& phase);

  bool correct() const { return violations_.empty(); }
  /// Human-readable lines, then the JSON result line, on stdout.
  void Print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::set<std::string> idle_;
  std::vector<std::string> violations_;
  std::array<uint64_t, kStatusCodes> by_code_{};
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Certifications per untraced run; certify_ms is the fastest. On the
/// reference host about a quarter of the repetitions of one history run
/// in the fast mode; nine make a run with none of them rare.
constexpr int kCertifyReps = 9;

/// Certifies a history without touching `ts`: into a fresh system holding
/// `ts`'s objects it replays `sink` when given, and otherwise copies
/// `ts`'s recorded actions (untimed); then it runs the validator with
/// default options and requires Def 16 to hold. Returns the elapsed
/// milliseconds (replay plus validation) of the fastest of kCertifyReps
/// certifications. Traced runs certify once, split into replay /
/// extension / validate spans, report the model.* and schedule.* (and
/// cc.epoch.replay_ms) per-layer metrics, and return 0.
double Certify(const oodb::TransactionSystem& ts,
               const oodb::HistoryEpochSink* sink, Report* report);

/// Runs `fn` to completion on a fresh thread pinned to the `i`-th CPU this
/// process may run on (modulo their number). Repetitions of single-threaded
/// work spread this way sample every CPU instead of whichever one the
/// calling thread happens to sit on: the CPUs of a shared virtual machine
/// need not be equally fast.
void RunPinned(size_t i, const std::function<void()>& fn);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Sum of a registry histogram, and a ratio that is 0 when `den` is 0.
uint64_t HistSum(oodb::MetricsRegistry* registry, const std::string& name);
double Ratio(double num, double den);

/// The root-transaction phase shares (obs/phases.h) of everything the
/// registry observed: cc.lock.wait_share, cc.execute_share,
/// cc.commit_publish_share, cc.admission_share, storage.wal_force_share.
void PhaseShares(oodb::MetricsRegistry* registry, Report* report);

/// Lock-manager and commit-ratio metrics common to every workload:
/// waits/acquires per transaction, wait p99, hot-stripe wait fraction,
/// retries per transaction and commit ratio.
void LockMetrics(oodb::Database* db, oodb::MetricsRegistry* registry,
                 const PhaseStats& timed, Report* report);

/// A workload: a database, its preload, its transaction generator, and
/// the checks and measurements that follow the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the database from nothing: preload plus first checkpoint.
  /// Timed as setup_s.
  virtual Status Setup() = 0;
  /// Traced runs: attaches the per-layer registry after Setup.
  virtual void Observe(oodb::MetricsRegistry* registry) = 0;
  /// Starts / stops the background threads the runtime needs.
  virtual void Start() {}
  virtual void Stop() {}
  /// Before each round of the timed phase, with no transaction running.
  virtual Status NextRound() { return Status::OK(); }
  /// Runs the next generated transaction of `client`.
  virtual TxnResult Txn(size_t client) = 0;
  /// Traced runs: per-layer metrics of the timed phase.
  virtual void LayerMetrics(const PhaseStats& timed, Report* report) = 0;
  /// After the timed phase: the fixed audit and its certification, the
  /// recovery measurement, and the workload's correctness gate.
  virtual void Finish(const PhaseStats& timed, Report* report) = 0;
  /// The durability discipline, for the provenance stamp.
  virtual const char* flush_policy() const = 0;
};

/// Runtime shards (object map and lock table stripes) of every workload.
constexpr size_t kShards = 8;

/// Per-layer metrics that only one kind of workload produces, for
/// Report::Idle on the others: the encyclopedia's call sites (enc-nested);
/// the containers, WAL, checkpoints, recovery and their spans
/// (durable-kv); the epoch flusher, the audit replay and their spans
/// (cell-hot, enc-nested).
extern const std::vector<const char*> kEncMetrics;
extern const std::vector<const char*> kStorageMetrics;
extern const std::vector<const char*> kEpochMetrics;

/// A per-client counter on its own cache line.
struct alignas(64) ClientCounter {
  uint64_t value = 0;
};

/// Base of the in-memory workloads (cell-hot, enc-nested): a sharded
/// database with epoch-batched history and no WAL, its flusher, the
/// runtime's per-layer metrics (storage ones idle), and the audit window
/// certified through HistoryEpochSink.
class EpochWorkload : public Workload {
 public:
  void Observe(oodb::MetricsRegistry* registry) override;
  void Start() override { flusher_->Start(); }
  void Stop() override { flusher_->Stop(); }
  void LayerMetrics(const PhaseStats& timed, Report* report) override;
  const char* flush_policy() const override { return "none (no WAL)"; }

 protected:
  explicit EpochWorkload(const Config& config) : config_(config) {}
  /// A fresh database; call first in Setup.
  void NewDatabase();
  /// Ends Setup: publishes the preload's events (no sink attached, so
  /// they are dropped) and zeroes the run counters.
  void EndSetup();
  /// Runs `txns` transactions of `txn`, split over the clients, with the
  /// history recorded through a HistoryEpochSink, then certifies it and
  /// reports certify_ms. Returns the audit phase.
  PhaseStats Audit(uint64_t txns, const std::function<TxnResult(size_t)>& txn,
                   Report* report);

  Config config_;
  std::unique_ptr<oodb::Database> db_;
  std::unique_ptr<EpochFlusher> flusher_;  // after db_: stopped first
  oodb::MetricsRegistry* registry_ = nullptr;
};

std::unique_ptr<Workload> MakeCellHot(const Config& config);
std::unique_ptr<Workload> MakeEncNested(const Config& config);
std::unique_ptr<Workload> MakeDurableKv(const Config& config);

}  // namespace perfbench
