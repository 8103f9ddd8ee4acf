#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "model/extension.h"
#include "obs/phases.h"
#include "schedule/validator.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double MsSince(uint64_t start_ns) {
  return double(NowNs() - start_ns) / 1e6;
}

// --- samples -------------------------------------------------------------

void Samples::Reserve(size_t n) { v_.reserve(n); }

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  // Nearest rank: the smallest sample with at least q of all at or below.
  size_t rank = static_cast<size_t>(std::ceil(q * double(v_.size())));
  if (rank == 0) rank = 1;
  return double(v_[std::min(rank, v_.size()) - 1]);
}

void RunPinned(size_t i, const std::function<void()>& fn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  std::thread worker([&] {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
    fn();
  });
  worker.join();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- latency log -------------------------------------------------------------

namespace {
/// Samples per series: 256 MiB of address space, of which only the pages
/// written become resident. A client would need over 3 million
/// transactions a second to fill one in a 20 s run.
constexpr size_t kSeriesCapacity = size_t{1} << 26;
constexpr size_t kSeriesBytes = kSeriesCapacity * sizeof(uint32_t);
}  // namespace

LatencyLog::LatencyLog(size_t clients) : series_(2 * clients) {
  for (Series& s : series_) {
    void* p = mmap(nullptr, kSeriesBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("perfbench: mmap of a latency series");
      std::exit(1);
    }
    s.data = static_cast<uint32_t*>(p);
  }
}

LatencyLog::~LatencyLog() {
  for (Series& s : series_) munmap(s.data, kSeriesBytes);
}

void LatencyLog::Add(size_t client, bool write, uint64_t ns) {
  Series& s = series_[2 * client + (write ? 1 : 0)];
  if (s.size == kSeriesCapacity) {
    ++s.dropped;
    return;
  }
  s.data[s.size++] = static_cast<uint32_t>(
      std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max()));
}

size_t LatencyLog::ResidentBytes() const {
  const size_t page = size_t(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> pages((kSeriesBytes + page - 1) / page);
  size_t resident = 0;
  for (const Series& s : series_) {
    if (mincore(s.data, kSeriesBytes, pages.data()) != 0) {
      std::perror("perfbench: mincore of a latency series");
      std::exit(1);
    }
    for (unsigned char p : pages) resident += (p & 1) ? page : 0;
  }
  return resident;
}

uint64_t LatencyLog::dropped() const {
  uint64_t n = 0;
  for (const Series& s : series_) n += s.dropped;
  return n;
}

Samples LatencyLog::Merged(bool reads, bool writes) const {
  Samples out;
  size_t n = 0;
  for (size_t i = 0; i < series_.size(); ++i) {
    if (i % 2 == 0 ? reads : writes) n += series_[i].size;
  }
  out.Reserve(n);
  for (size_t i = 0; i < series_.size(); ++i) {
    if (!(i % 2 == 0 ? reads : writes)) continue;
    for (size_t j = 0; j < series_[i].size; ++j) out.Add(series_[i].data[j]);
  }
  return out;
}

// --- closed-loop clients ---------------------------------------------------

PhaseStats RunClients(size_t clients, double seconds, uint64_t per_client,
                      LatencyLog* latency,
                      const std::function<TxnResult(size_t)>& txn) {
  struct alignas(64) Local {
    PhaseStats stats;
  };
  std::vector<Local> local(clients);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + uint64_t(seconds * 1e9);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& s = local[c].stats;
      for (uint64_t i = 0;; ++i) {
        if (per_client > 0 ? i >= per_client : NowNs() >= deadline) break;
        const uint64_t t0 = NowNs();
        TxnResult r = txn(c);
        if (latency != nullptr) latency->Add(c, r.write, NowNs() - t0);
        ++s.attempted;
        ++s.by_code[static_cast<size_t>(r.status.code())];
        if (r.status.ok()) {
          ++s.committed;
          if (r.write) ++s.committed_writes;
        } else if (s.first_error.empty()) {
          s.first_error = r.status.ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseStats merged;
  merged.wall_s = double(NowNs() - start) / 1e9;
  for (const Local& l : local) {
    const PhaseStats& s = l.stats;
    merged.attempted += s.attempted;
    merged.committed += s.committed;
    merged.committed_writes += s.committed_writes;
    for (size_t i = 0; i < kStatusCodes; ++i) merged.by_code[i] += s.by_code[i];
    if (merged.first_error.empty()) merged.first_error = s.first_error;
  }
  return merged;
}

// --- spans -------------------------------------------------------------------

namespace {

/// Spans kept for the dump, per thread; the aggregates stay exact past it.
constexpr size_t kKeptSpansPerThread = 20000;

struct SpanRecord {
  const char* name;
  uint64_t start;
  uint64_t end;
  int64_t parent;  ///< index in the same thread's kept spans, -1 = none
  uint64_t txn;
};

struct ThreadSpans {
  uint32_t thread = 0;
  uint64_t txn = 0;
  uint64_t txn_seq = 0;
  struct Open {
    const char* name;
    uint64_t start;
    uint64_t child_ns;
    int64_t kept;
  };
  std::vector<Open> stack;
  std::vector<SpanRecord> kept;
  std::unordered_map<const char*, Spans::Agg> agg;
};

std::atomic<bool> g_spans_enabled{false};
std::mutex g_spans_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_span_threads;  // guarded

ThreadSpans* LocalSpans() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> guard(g_spans_mu);
    g_span_threads.push_back(std::make_unique<ThreadSpans>());
    local = g_span_threads.back().get();
    local->thread = static_cast<uint32_t>(g_span_threads.size() - 1);
  }
  return local;
}

}  // namespace

void Spans::Enable(bool on) { g_spans_enabled.store(on); }

bool Spans::enabled() {
  return g_spans_enabled.load(std::memory_order_relaxed);
}

Spans::Scope::Scope(const char* name, bool root) : active_(enabled()) {
  if (!active_) return;
  ThreadSpans* t = LocalSpans();
  if (root) t->txn = (uint64_t(t->thread) << 40) | ++t->txn_seq;
  int64_t kept = -1;
  if (t->kept.size() < kKeptSpansPerThread) {
    kept = static_cast<int64_t>(t->kept.size());
    t->kept.push_back(SpanRecord{name, 0, 0,
                                 t->stack.empty() ? -1 : t->stack.back().kept,
                                 t->txn});
  }
  t->stack.push_back(ThreadSpans::Open{name, NowNs(), 0, kept});
  if (kept >= 0) t->kept[size_t(kept)].start = t->stack.back().start;
}

Spans::Scope::~Scope() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadSpans* t = LocalSpans();
  const ThreadSpans::Open open = t->stack.back();
  t->stack.pop_back();
  const uint64_t dur = end - open.start;
  Agg& agg = t->agg[open.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
  if (!t->stack.empty()) t->stack.back().child_ns += dur;
  if (open.kept >= 0) t->kept[size_t(open.kept)].end = end;
}

std::map<std::string, Spans::Agg> Spans::Aggregate() {
  std::lock_guard<std::mutex> guard(g_spans_mu);
  std::map<std::string, Agg> out;
  for (const auto& t : g_span_threads) {
    for (const auto& [name, a] : t->agg) {
      Agg& m = out[name];
      m.count += a.count;
      m.total_ns += a.total_ns;
      m.self_ns += a.self_ns;
    }
  }
  return out;
}

Status Spans::WriteJsonLines(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::lock_guard<std::mutex> guard(g_spans_mu);
  for (const auto& t : g_span_threads) {
    for (const SpanRecord& s : t->kept) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld,\"txn\":%llu,\"thread\":%u}\n",
                   s.name, (unsigned long long)s.start,
                   (unsigned long long)s.end, (long long)s.parent,
                   (unsigned long long)s.txn, t->thread);
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("short write on " + path);
}

// --- call sites --------------------------------------------------------------

CallSite::CallSite(std::string metric, size_t clients)
    : metric_(std::move(metric)), slots_(clients) {}

Status CallSite::Call(size_t client, oodb::MethodContext& txn,
                      oodb::ObjectId obj, oodb::Invocation inv,
                      oodb::Value* result) {
  if (!Spans::enabled()) return txn.Call(obj, std::move(inv), result);
  Spans::Scope span("call");
  const uint64_t t0 = NowNs();
  Status st = txn.Call(obj, std::move(inv), result);
  slots_[client].samples.Add(NowNs() - t0);
  return st;
}

double CallSite::P50Us() {
  Samples all;
  for (Slot& s : slots_) all.Append(s.samples);
  return all.Quantile(0.5) / 1e3;
}

// --- epoch flusher -----------------------------------------------------------

void EpochFlusher::Advance() {
  uint64_t n = 0;
  if (Spans::enabled()) {
    Spans::Scope span("epoch.advance");
    const uint64_t t0 = NowNs();
    n = db_->AdvanceEpoch();
    flush_ns_.Add(NowNs() - t0);
  } else {
    n = db_->AdvanceEpoch();
  }
  ++flushes_;
  events_ += n;
}

void EpochFlusher::Start() {
  if (thread_.joinable()) return;
  stop_.store(false);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Advance();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void EpochFlusher::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  Advance();
}

// --- report --------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Violation("metric " + name + " is not finite");
    value = 0;
  }
  if (idle_.count(name) > 0) Violation("idle metric " + name + " measured");
  metrics_[name] = Metric{value, unit};
}

void Report::Idle(const std::vector<const char*>& names) {
  for (const char* name : names) {
    if (metrics_.count(name) > 0) {
      Violation(std::string("measured metric ") + name + " declared idle");
    }
    idle_.insert(name);
  }
}

void Report::Violation(const std::string& what) {
  std::fprintf(stderr, "perfbench: VIOLATION: %s\n", what.c_str());
  violations_.push_back(what);
}

void Report::CountPhase(const PhaseStats& phase) {
  attempted_ += phase.attempted;
  failed_ += phase.attempted - phase.committed;
  for (size_t i = 0; i < kStatusCodes; ++i) by_code_[i] += phase.by_code[i];
  if (phase.attempted != phase.committed) {
    std::fprintf(stderr, "perfbench: %llu of %llu transactions failed; "
                 "first: %s\n",
                 (unsigned long long)(phase.attempted - phase.committed),
                 (unsigned long long)phase.attempted,
                 phase.first_error.c_str());
  }
  const size_t unsupported =
      static_cast<size_t>(oodb::StatusCode::kUnsupported);
  if (phase.by_code[unsupported] > 0) {
    Violation(std::to_string(phase.by_code[unsupported]) +
              " transactions returned Unsupported (a method is not "
              "registered): " + phase.first_error);
  }
}

void Report::Print() const {
  for (size_t i = 0; i < kStatusCodes; ++i) {
    if (by_code_[i] == 0) continue;
    std::printf("status %s %llu\n",
                oodb::StatusCodeName(static_cast<oodb::StatusCode>(i)),
                (unsigned long long)by_code_[i]);
  }
  std::map<std::string, Metric> all = metrics_;
  for (const std::string& name : idle_) all.emplace(name, Metric{0, "idle"});
  for (const auto& [name, m] : all) {
    std::printf("metric %-40s %14.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : all) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- certification -------------------------------------------------------------

namespace {

/// A fresh system holding `from`'s objects under the same ids and, with
/// `actions`, a copy of its recorded actions, so that every certification
/// validates a system of its own.
std::unique_ptr<oodb::TransactionSystem> FreshCopy(
    const oodb::TransactionSystem& from, bool actions) {
  auto ts = std::make_unique<oodb::TransactionSystem>();
  for (oodb::ObjectId id : from.Objects()) {
    const oodb::ObjectRecord& o = from.object(id);
    ts->AddObject(o.type, o.name);
  }
  if (!actions) return ts;
  // Ids are dense and parents precede children, so the copy's ids match.
  std::vector<std::pair<uint64_t, oodb::ActionId>> completions;
  for (size_t i = 0; i < from.action_count(); ++i) {
    const oodb::ActionRecord& a = from.action(oodb::ActionId(i));
    const oodb::ActionId id =
        a.parent.valid()
            ? ts->Call(a.parent, a.object, a.invocation, /*sequential=*/false)
            : ts->BeginTopLevel(a.invocation.method);
    ts->SetProcess(id, a.process);
    if (a.timestamp != 0) ts->SetTimestamp(id, a.timestamp);
    if (a.completion != 0) completions.emplace_back(a.completion, id);
  }
  for (size_t i = 0; i < from.action_count(); ++i) {
    for (const auto& [before, after] :
         from.action(oodb::ActionId(i)).child_precedence) {
      (void)ts->AddPrecedence(before, after);  // valid in the original
    }
  }
  std::sort(completions.begin(), completions.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& entry : completions) ts->MarkCompleted(entry.second);
  return ts;
}

}  // namespace

double Certify(const oodb::TransactionSystem& ts,
               const oodb::HistoryEpochSink* sink, Report* report) {
  oodb::ValidationReport verdict;
  size_t actions = 0;
  double certify_ms = 0;
  if (!Spans::enabled()) {
    // The fastest of kCertifyReps certifications of the same history, each
    // on another CPU: the work is deterministic, so slower repetitions
    // only add host noise.
    std::vector<double> reps;
    for (int rep = 0; rep < kCertifyReps; ++rep) {
      RunPinned(size_t(rep), [&] {
        std::unique_ptr<oodb::TransactionSystem> copy =
            FreshCopy(ts, sink == nullptr);
        const uint64_t t0 = NowNs();
        if (sink != nullptr) sink->ReplayInto(copy.get());
        verdict = oodb::Validator::Validate(copy.get());
        reps.push_back(MsSince(t0));
        actions = copy->action_count();
      });
    }
    certify_ms = *std::min_element(reps.begin(), reps.end());
    std::printf("certify reps (ms):");
    for (double ms : reps) std::printf(" %.1f", ms);
    std::printf("\n");
  } else {
    std::unique_ptr<oodb::TransactionSystem> copy =
        FreshCopy(ts, sink == nullptr);
    if (sink != nullptr) {
      Spans::Scope span("replay");
      const uint64_t t0 = NowNs();
      sink->ReplayInto(copy.get());
      report->Set("cc.epoch.replay_ms", MsSince(t0), "ms");
    }
    {
      Spans::Scope span("extension");
      const uint64_t t0 = NowNs();
      oodb::SystemExtender::Extend(copy.get());
      report->Set("model.extension_ms", MsSince(t0), "ms");
    }
    oodb::MetricsRegistry registry;
    oodb::ValidationOptions options;
    options.apply_extension = false;
    options.metrics = &registry;
    double validate_ms = 0;
    {
      Spans::Scope span("validate");
      const uint64_t t0 = NowNs();
      verdict = oodb::Validator::Validate(copy.get(), options);
      validate_ms = MsSince(t0);
    }
    double stages_ms = 0;
    for (const char* stage :
         {"conflict_pairs", "seed", "fixpoint", "derived_stats"}) {
      const double ms = double(HistSum(&registry, std::string("dep.stage.") +
                                                     stage + "_ns")) /
                        1e6;
      report->Set(std::string("schedule.dep.") + stage + "_ms", ms, "ms");
      stages_ms += ms;
    }
    report->Set("schedule.checks_ms", std::max(0.0, validate_ms - stages_ms),
                "ms");
    actions = copy->action_count();
    const double conflicts = double(verdict.stats.primitive_conflicts);
    report->Set("schedule.primitive_conflicts", conflicts, "count");
    report->Set("schedule.conflicts_per_action",
                Ratio(conflicts, double(actions)), "ratio");
    const double hits =
        double(registry.GetCounter("dep.memo.hits")->Value());
    const double misses =
        double(registry.GetCounter("dep.memo.misses")->Value());
    report->Set("schedule.memo_hit_ratio", Ratio(hits, hits + misses),
                "ratio");
  }
  if (!verdict.oo_serializable) {
    report->Violation("certify: the audited history is not "
                      "oo-serializable (Def 16): " +
                      (verdict.diagnostics.empty() ? verdict.Summary()
                                                   : verdict.diagnostics[0]));
  }
  std::printf("certify: %zu actions, %s\n", actions,
              verdict.Summary().c_str());
  return certify_ms;
}

// --- registry helpers ------------------------------------------------------------

uint64_t HistSum(oodb::MetricsRegistry* registry, const std::string& name) {
  return registry->GetHistogram(name)->Snapshot().sum();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void PhaseShares(oodb::MetricsRegistry* registry, Report* report) {
  std::array<double, oodb::kPhaseCount> ns{};
  double total = 0;
  for (size_t i = 0; i < oodb::kPhaseCount; ++i) {
    ns[i] = double(HistSum(
        registry, std::string("phase.") +
                      oodb::PhaseSuffix(static_cast<oodb::Phase>(i)) + "_ns"));
    total += ns[i];
  }
  auto share = [&](oodb::Phase p) {
    return Ratio(ns[static_cast<size_t>(p)], total);
  };
  report->Set("cc.lock.wait_share", share(oodb::Phase::kLockWait), "ratio");
  report->Set("cc.execute_share", share(oodb::Phase::kExecute), "ratio");
  report->Set("cc.commit_publish_share", share(oodb::Phase::kCommitPublish),
              "ratio");
  report->Set("cc.admission_share", share(oodb::Phase::kAdmission), "ratio");
  report->Set("storage.wal_force_share", share(oodb::Phase::kWalForce),
              "ratio");
}

void LockMetrics(oodb::Database* db, oodb::MetricsRegistry* registry,
                 const PhaseStats& timed, Report* report) {
  const double txns = double(timed.attempted);
  auto counter = [&](const char* name) {
    return double(registry->GetCounter(name)->Value());
  };
  report->Set("cc.lock.waits_per_txn", Ratio(counter("db.lock.waits"), txns),
              "count");
  report->Set("cc.lock.acquires_per_txn",
              Ratio(counter("db.lock.acquires"), txns), "count");
  report->Set("cc.lock.wait_p99_us",
              double(registry->GetHistogram("db.lock.wait_ns")
                         ->Snapshot()
                         .Quantile(0.99)) /
                  1e3,
              "us");
  uint64_t hot = 0, sum = 0;
  for (const oodb::LockShardStats& s : db->locks().PerShardStats()) {
    hot = std::max(hot, s.wait_ns);
    sum += s.wait_ns;
  }
  report->Set("cc.lock.hot_stripe_wait_frac", Ratio(double(hot), double(sum)),
              "ratio");
  report->Set("cc.retries_per_txn", Ratio(counter("db.txn.retries"), txns),
              "count");
  const double committed = counter("db.txn.committed");
  report->Set("cc.commit_ratio",
              Ratio(committed, committed + counter("db.txn.aborted")),
              "ratio");
  report->Set("failed_frac",
              Ratio(double(timed.attempted - timed.committed), txns),
              "ratio");
}

// --- epoch-batched workloads -----------------------------------------------------

const std::vector<const char*> kEncMetrics = {
    "apps.enc.search_us", "apps.enc.change_us", "apps.enc.insert_us"};

const std::vector<const char*> kStorageMetrics = {
    "containers.directory.lookup_us",
    "containers.directory.insert_us",
    "containers.hash_index.search_us",
    "containers.hash_index.insert_us",
    "storage.wal.forces_per_commit",
    "storage.wal.fsync_p50_us",
    "storage.wal.fsync_p99_us",
    "storage.wal.bytes_per_write_txn",
    "storage.ckpt.count",
    "storage.ckpt.total_ms",
    "storage.ckpt.writeback_ms",
    "storage.ckpt.stall_frac",
    "storage.cache.hit_ratio",
    "storage.cache.evictions",
    "storage.recover_ms",
    "storage.recovery.scan_ms",
    "storage.recovery.analysis_ms",
    "storage.recovery.redo_ms",
    "storage.recovery.undo_ms",
    "storage.recovery.checkpoint_ms",
    "storage.recovery.redo_records",
    "storage.bytes_per_user_byte",
    "span.checkpoint.self_ms",
    "span.open.self_ms",
    "span.recover.self_ms",
};

const std::vector<const char*> kEpochMetrics = {
    "cc.epoch.flush_us", "cc.epoch.events_per_flush", "cc.epoch.replay_ms",
    "span.epoch_advance.self_ms", "span.replay.self_ms"};

void EpochWorkload::NewDatabase() {
  flusher_.reset();
  oodb::DatabaseOptions options;
  options.shards = kShards;
  options.history = oodb::HistoryMode::kEpochBatched;
  db_ = std::make_unique<oodb::Database>(options);
  flusher_ = std::make_unique<EpochFlusher>(db_.get());
}

void EpochWorkload::EndSetup() {
  db_->AdvanceEpoch();
  db_->counters().Reset();
}

void EpochWorkload::Observe(oodb::MetricsRegistry* registry) {
  registry_ = registry;
  db_->AttachObservability(registry, nullptr);
}

void EpochWorkload::LayerMetrics(const PhaseStats& timed, Report* report) {
  PhaseShares(registry_, report);
  LockMetrics(db_.get(), registry_, timed, report);
  // Every attempt publishes one root event; the rest are its actions.
  const double roots =
      double(registry_->GetCounter("db.txn.committed")->Value() +
             registry_->GetCounter("db.txn.aborted")->Value());
  const double events = double(flusher_->events());
  report->Set("cc.actions_per_txn",
              Ratio(events - roots, double(timed.attempted)), "count");
  report->Set("cc.epoch.flush_us", flusher_->flush_ns().Quantile(0.5) / 1e3,
              "us");
  report->Set("cc.epoch.events_per_flush",
              Ratio(events, double(flusher_->flushes())), "count");
  report->Idle(kStorageMetrics);
}

PhaseStats EpochWorkload::Audit(uint64_t txns,
                                const std::function<TxnResult(size_t)>& txn,
                                Report* report) {
  oodb::HistoryEpochSink sink;
  db_->SetEpochSink(&sink);
  flusher_->Start();
  const uint64_t per_client = std::max<uint64_t>(1, txns / config_.clients);
  PhaseStats audit = RunClients(config_.clients, 0, per_client, nullptr, txn);
  flusher_->Stop();
  db_->SetEpochSink(nullptr);
  report->CountPhase(audit);
  std::printf("audit: %llu transactions, %zu events\n",
              (unsigned long long)audit.attempted, sink.event_count());
  report->Set("certify_ms", Certify(db_->ts(), &sink, report), "ms");
  return audit;
}

}  // namespace perfbench
