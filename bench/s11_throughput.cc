// S11: sustained-throughput headline for the sharded runtime.
//
// An open-loop (pgbench-style) driver over a contended Zipf workload of
// primitive Cell operations: commuting adds, conflicting puts, and
// reads. Worker threads issue transactions against a schedule of
// arrival times (rate=0 degenerates to closed-loop max throughput);
// latency is measured from the *scheduled* arrival, so queueing delay
// counts, and recorded into per-thread histograms merged at the end
// (shared util/histogram layout).
//
// The headline compares the classic runtime (1 shard, recorded
// history — exactly the pre-sharding code path) against the sharded
// runtime (8 shards, epoch-batched history) on the same workload, and
// prints the attribution cells (each axis alone) so the speedup is
// explainable. --suite writes BENCH_throughput.json; --smoke is the CI
// gate (small fixed rate, asserts nonzero sustained throughput and a
// clean shutdown).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/database.h"
#include "cc/epoch_log.h"
#include "model/type_registry.h"
#include "obs/metrics.h"
#include "obs/phases.h"
#include "obs/sampler.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/io.h"
#include "util/random.h"

using namespace oodb;

namespace {

// ---------------------------------------------------------------------
// The Cell: a primitive counter object with the three op classes a
// contention study needs — add/add commutes (semantic concurrency),
// put conflicts with everything (real lock waits), get/get commutes.

struct CellState : public ObjectState {
  int64_t value = 0;
};

const ObjectType* CellType() {
  static const ObjectType* type = [] {
    auto spec = std::make_unique<MatrixCommutativity>();
    spec->SetCommutes("get", "get");
    spec->SetCommutes("add", "add");
    // put is unregistered: conflicts with get, add, and put.
    return new ObjectType("Cell", std::move(spec), /*primitive=*/true);
  }();
  return type;
}

void RegisterCellMethods(Database* db) {
  TypeRegistry::Global().Register(CellType());
  db->Register(CellType(), "get",
               [](MethodContext& ctx, const ValueList&, Value* result) {
                 *result = Value(ctx.state<CellState>()->value);
                 return Status::OK();
               },
               MethodTraits{.observer = true});
  db->Register(CellType(), "add",
               [](MethodContext& ctx, const ValueList& params, Value*) {
                 ctx.state<CellState>()->value += params[0].AsInt();
                 ctx.SetCompensation(
                     Invocation("add", {Value(-params[0].AsInt())}));
                 return Status::OK();
               });
  db->Register(CellType(), "put",
               [](MethodContext& ctx, const ValueList& params, Value*) {
                 auto* cell = ctx.state<CellState>();
                 ctx.SetCompensation(
                     Invocation("put", {Value(cell->value)}));
                 cell->value = params[0].AsInt();
                 return Status::OK();
               });
}

// ---------------------------------------------------------------------

struct CellConfig {
  std::string name;
  size_t shards = 1;
  HistoryMode history = HistoryMode::kRecorded;
  size_t threads = 8;
  uint64_t keys = 64;
  double theta = 0.99;      ///< Zipf skew over the key space
  int ops_per_txn = 4;
  double put_fraction = 0.20;
  double get_fraction = 0.20;
  uint64_t rate = 0;        ///< total arrivals/sec; 0 = closed loop
  double seconds = 3.0;
  uint64_t seed = 42;
  /// Flight-recorder series destination for this cell (empty = don't
  /// sample). %s in the path expands to the cell name.
  std::string series_path;
  uint64_t sample_interval_ms = 10;
};

struct CellResult {
  double elapsed = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t deadlocks = 0;
  uint64_t operations = 0;
  uint64_t lock_waits = 0;
  double actions_per_sec = 0;
  double txns_per_sec = 0;
  Histogram latency;  ///< ns from scheduled arrival to completion
  std::vector<LockShardStats> shard_stats;
  /// Per-phase service-time attribution (sum of ns per phase across
  /// committed roots) + the measured end-to-end total it must cover.
  uint64_t phase_sum_ns[kPhaseCount] = {};
  uint64_t phase_total_ns = 0;
  uint64_t phase_total_count = 0;
  SamplerStats sampler_stats;  ///< zeros when the cell did not sample
};

std::string ExpandCellName(const std::string& pattern,
                           const std::string& name) {
  const size_t pos = pattern.find("%s");
  if (pos == std::string::npos) return pattern;
  return pattern.substr(0, pos) + name + pattern.substr(pos + 2);
}

CellResult RunCell(const CellConfig& cfg) {
  DatabaseOptions options;
  options.shards = cfg.shards;
  options.history = cfg.history;
  Database db(options);
  // One registry for the whole cell (workload + flusher + sampler):
  // attaching it turns on per-phase latency attribution, and the
  // sampler folds it into the flight-recorder series.
  MetricsRegistry registry;
  db.AttachObservability(&registry, nullptr);
  RegisterCellMethods(&db);
  std::vector<ObjectId> cells;
  cells.reserve(cfg.keys);
  for (uint64_t i = 0; i < cfg.keys; ++i) {
    cells.push_back(db.CreateObject(CellType(), "c" + std::to_string(i),
                                    std::make_unique<CellState>()));
  }

  // Epoch flusher: one batch per 5ms epoch, no sink (batches are
  // counted and dropped — pure throughput mode).
  std::atomic<bool> stop_flusher{false};
  std::thread flusher;
  if (db.epoch_log() != nullptr) {
    flusher = std::thread([&] {
      while (!stop_flusher.load(std::memory_order_relaxed)) {
        db.AdvanceEpoch();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      db.AdvanceEpoch();
    });
  }

  // Flight recorder: contention snapshots + counter deltas every tick,
  // exported as the JSON-lines series `oodb top` consumes.
  std::unique_ptr<MetricsSampler> sampler;
  if (!cfg.series_path.empty()) {
    SamplerOptions soptions;
    soptions.interval = std::chrono::milliseconds(cfg.sample_interval_ms);
    soptions.tag = "s11:" + cfg.name;
    sampler = std::make_unique<MetricsSampler>(&registry, soptions);
    db.InstallSamplerProbes(sampler.get());
    sampler->Start();
  }

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  const uint64_t interval_ns =
      cfg.rate == 0
          ? 0
          : uint64_t(1e9 * double(cfg.threads) / double(cfg.rate));

  std::vector<Histogram> hists(cfg.threads);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (size_t t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      ZipfGenerator zipf(cfg.keys, cfg.theta, cfg.seed ^ (t * 0x9E37ULL));
      Rng rng(cfg.seed * 31 + t);
      Histogram& hist = hists[t];
      uint64_t issued = 0;
      std::vector<uint64_t> keys(size_t(cfg.ops_per_txn));
      for (;;) {
        auto now = Clock::now();
        auto scheduled = now;
        if (interval_ns != 0) {
          // Open loop: the t-th thread owns arrivals t, t+T, t+2T, ...
          scheduled = start + std::chrono::nanoseconds(
                                  interval_ns * issued +
                                  interval_ns * t / cfg.threads);
          if (scheduled > deadline) break;
          if (scheduled > now) {
            std::this_thread::sleep_until(scheduled);
          }
          // Behind schedule: issue immediately; the queueing delay
          // lands in the latency histogram where it belongs.
        } else if (now >= deadline) {
          break;
        }
        // Zipf-skewed distinct keys, sorted: lock *ordering* keeps the
        // workload deadlock-free so the measurement is waits, not
        // retry backoff. (Dedup below shrinks the vector, so restore
        // the draw count first.)
        keys.resize(size_t(cfg.ops_per_txn));
        for (auto& k : keys) k = zipf.Next();
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        Status st = db.RunTransaction(
            "s11", [&](MethodContext& txn) -> Status {
              for (uint64_t k : keys) {
                double dice = rng.NextDouble();
                Status op;
                if (dice < cfg.put_fraction) {
                  op = txn.Call(cells[k],
                                Invocation("put", {Value(int64_t(k))}));
                } else if (dice < cfg.put_fraction + cfg.get_fraction) {
                  op = txn.Call(cells[k], Invocation("get"));
                } else {
                  op = txn.Call(cells[k], Invocation("add", {Value(1)}));
                }
                OODB_RETURN_IF_ERROR(op);
              }
              return Status::OK();
            });
        (void)st;
        hist.Add(uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - scheduled)
                              .count()));
        ++issued;
        if ((issued & 0x3F) == 0 && Clock::now() >= deadline) break;
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (flusher.joinable()) {
    stop_flusher.store(true);
    flusher.join();
  }

  CellResult r;
  if (sampler != nullptr) {
    sampler->Stop();
    r.sampler_stats = sampler->Stats();
    const std::string path = ExpandCellName(cfg.series_path, cfg.name);
    Status st = sampler->WriteJsonLines(path);
    if (!st.ok()) {
      std::fprintf(stderr, "series write failed: %s\n",
                   st.ToString().c_str());
    } else {
      std::printf("wrote %s (%llu ticks)\n", path.c_str(),
                  (unsigned long long)r.sampler_stats.ticks);
    }
  }
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    r.phase_sum_ns[i] =
        registry
            .GetHistogram(std::string("phase.") + PhaseSuffix(phase) +
                          "_ns")
            ->Snapshot()
            .sum();
  }
  HistogramSnapshot total = registry.GetHistogram("phase.total_ns")->Snapshot();
  r.phase_total_ns = total.sum();
  r.phase_total_count = total.count();
  r.elapsed = elapsed;
  r.committed = db.counters().committed.load();
  r.aborted = db.counters().aborted.load();
  r.deadlocks = db.counters().deadlocks.load();
  r.operations = db.counters().operations.load();
  r.lock_waits = db.locks().wait_count();
  r.actions_per_sec = double(r.operations + r.committed) / elapsed;
  r.txns_per_sec = double(r.committed) / elapsed;
  for (const Histogram& h : hists) r.latency.Merge(h);
  r.shard_stats = db.locks().PerShardStats();
  return r;
}

void PrintRow(const CellConfig& cfg, const CellResult& r) {
  uint64_t phase_total = 0;
  size_t dominant = 0;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    phase_total += r.phase_sum_ns[i];
    if (r.phase_sum_ns[i] > r.phase_sum_ns[dominant]) dominant = i;
  }
  std::printf(
      "%-22s %2zu shards %-13s %6.0f s  %9.0f act/s %8.0f txn/s  "
      "p50=%.0fus p95=%.0fus p99=%.0fus  waits=%llu dl=%llu  "
      "dom=%s(%.0f%%)\n",
      cfg.name.c_str(), cfg.shards, HistoryModeName(cfg.history),
      r.elapsed, r.actions_per_sec, r.txns_per_sec,
      double(r.latency.Quantile(0.50)) / 1e3,
      double(r.latency.Quantile(0.95)) / 1e3,
      double(r.latency.Quantile(0.99)) / 1e3,
      (unsigned long long)r.lock_waits, (unsigned long long)r.deadlocks,
      PhaseName(static_cast<Phase>(dominant)),
      phase_total > 0
          ? 100.0 * double(r.phase_sum_ns[dominant]) / double(phase_total)
          : 0.0);
}

void AppendCellJson(std::string* out, const CellConfig& cfg,
                    const CellResult& r, bool last) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"name\": \"%s\",\n"
      "      \"shards\": %zu,\n"
      "      \"history\": \"%s\",\n"
      "      \"threads\": %zu,\n"
      "      \"keys\": %llu,\n"
      "      \"zipf_theta\": %.2f,\n"
      "      \"ops_per_txn\": %d,\n"
      "      \"put_fraction\": %.2f,\n"
      "      \"rate_per_sec\": %llu,\n"
      "      \"elapsed_sec\": %.3f,\n"
      "      \"actions_per_sec\": %.0f,\n"
      "      \"txns_per_sec\": %.0f,\n"
      "      \"committed\": %llu,\n"
      "      \"aborted\": %llu,\n"
      "      \"deadlocks\": %llu,\n"
      "      \"lock_waits\": %llu,\n"
      "      \"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
      "\"p99\": %.1f, \"max\": %.1f},\n",
      cfg.name.c_str(), cfg.shards, HistoryModeName(cfg.history),
      cfg.threads, (unsigned long long)cfg.keys, cfg.theta,
      cfg.ops_per_txn, cfg.put_fraction,
      (unsigned long long)cfg.rate, r.elapsed, r.actions_per_sec,
      r.txns_per_sec, (unsigned long long)r.committed,
      (unsigned long long)r.aborted, (unsigned long long)r.deadlocks,
      (unsigned long long)r.lock_waits,
      double(r.latency.Quantile(0.50)) / 1e3,
      double(r.latency.Quantile(0.95)) / 1e3,
      double(r.latency.Quantile(0.99)) / 1e3,
      double(r.latency.max()) / 1e3);
  *out += buf;
  // Per-phase service-time attribution: where root-transaction time
  // went. share is of the summed phases; execute is the residual, so
  // the shares cover measured end-to-end time exactly.
  uint64_t phase_total = 0;
  for (size_t i = 0; i < kPhaseCount; ++i) phase_total += r.phase_sum_ns[i];
  *out += "      \"phases\": {";
  for (size_t i = 0; i < kPhaseCount; ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"sum_ns\": %llu, "
                  "\"share\": %.4f}",
                  i == 0 ? "" : ", ",
                  PhaseName(static_cast<Phase>(i)),
                  (unsigned long long)r.phase_sum_ns[i],
                  phase_total > 0
                      ? double(r.phase_sum_ns[i]) / double(phase_total)
                      : 0.0);
    *out += buf;
  }
  std::snprintf(buf, sizeof(buf), "},\n      \"phase_total_ns\": %llu,\n",
                (unsigned long long)r.phase_total_ns);
  *out += buf;
  *out += "      \"per_shard\": [";
  for (size_t i = 0; i < r.shard_stats.size(); ++i) {
    const LockShardStats& s = r.shard_stats[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"acquires\": %llu, \"waits\": %llu, "
                  "\"deadlocks\": %llu, \"wait_ms\": %.1f}",
                  i == 0 ? "" : ", ", (unsigned long long)s.acquires,
                  (unsigned long long)s.waits,
                  (unsigned long long)s.deadlocks,
                  double(s.wait_ns) / 1e6);
    *out += buf;
  }
  *out += "]\n    }";
  *out += last ? "\n" : ",\n";
}

int RunSmoke(const CellConfig& base) {
  // CI gate: a short fixed-small-rate open-loop run on the sharded
  // configuration must sustain nonzero throughput and shut down clean.
  CellConfig cfg;
  cfg.series_path = base.series_path;
  cfg.sample_interval_ms = base.sample_interval_ms;
  cfg.name = "smoke";
  cfg.shards = 4;
  cfg.history = HistoryMode::kEpochBatched;
  cfg.threads = 2;
  cfg.rate = 2000;
  cfg.seconds = 1.0;
  CellResult r = RunCell(cfg);
  PrintRow(cfg, r);
  if (r.committed == 0 || r.operations == 0) {
    std::fprintf(stderr, "smoke FAILED: no sustained throughput\n");
    return 1;
  }
  std::printf("smoke ok: %llu txns committed, %llu actions\n",
              (unsigned long long)r.committed,
              (unsigned long long)r.operations);
  return 0;
}

int RunSuite(const std::string& json_path, const CellConfig& tuned) {
  CellConfig base = tuned;

  // The headline pair: the pre-sharding runtime vs the sharded one.
  CellConfig classic = base;
  classic.name = "single-shard-recorded";
  classic.shards = 1;
  classic.history = HistoryMode::kRecorded;
  CellConfig sharded = base;
  sharded.name = "sharded-8-epoch";
  sharded.shards = 8;
  sharded.history = HistoryMode::kEpochBatched;
  // Attribution cells: one axis at a time.
  CellConfig shards_only = base;
  shards_only.name = "sharded-8-recorded";
  shards_only.shards = 8;
  shards_only.history = HistoryMode::kRecorded;
  CellConfig epoch_only = base;
  epoch_only.name = "single-shard-epoch";
  epoch_only.shards = 1;
  epoch_only.history = HistoryMode::kEpochBatched;

  std::printf("S11: open-loop throughput, %zu threads, %llu keys, "
              "zipf %.2f, %d ops/txn (%.0f%% put / %.0f%% get / rest "
              "add), closed loop, %.1fs per cell\n\n",
              base.threads, (unsigned long long)base.keys, base.theta,
              base.ops_per_txn, base.put_fraction * 100,
              base.get_fraction * 100, base.seconds);

  std::vector<std::pair<CellConfig, CellResult>> cells;
  for (const CellConfig& cfg :
       {classic, epoch_only, shards_only, sharded}) {
    cells.emplace_back(cfg, RunCell(cfg));
    PrintRow(cells.back().first, cells.back().second);
  }
  const CellResult& slow = cells.front().second;
  const CellResult& fast = cells.back().second;
  double speedup = fast.actions_per_sec / slow.actions_per_sec;
  std::printf("\nheadline: %.0f -> %.0f actions/sec, %.2fx "
              "(target >= 5x)\n",
              slow.actions_per_sec, fast.actions_per_sec, speedup);

  if (!json_path.empty()) {
    std::string out;
    out += "{\n  \"bench\": \"s11_throughput\",\n";
    out += "  \"unit\": \"actions/sec sustained (primitive ops + "
           "commits per wall second)\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"headline\": {\"speedup\": %.2f, \"baseline\": "
                  "\"single-shard-recorded\", \"contender\": "
                  "\"sharded-8-epoch\", \"target\": 5.0},\n",
                  speedup);
    out += buf;
    out += "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
      AppendCellJson(&out, cells[i].first, cells[i].second,
                     i + 1 == cells.size());
    }
    out += "  ]\n}\n";
    if (!WriteOut(json_path, out).ok()) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return speedup >= 5.0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, suite = false;
  std::string json_path;
  CellConfig base;
  FlagSet flags("s11_throughput",
                "usage: s11_throughput [--smoke] [--suite] [--json=PATH] "
                "[--seconds=N] [--threads=N] [--keys=N] [--theta=F] "
                "[--ops=N] [--put=F] [--rate=N] [--series=PATH] "
                "[--series-interval=MS]\n"
                "  --series: write each cell's flight-recorder series "
                "(%s in PATH = cell name)\n");
  flags.Bool("smoke", &smoke);
  flags.Bool("suite", &suite);
  flags.String("json", &json_path);
  flags.Double("seconds", &base.seconds);
  flags.Unsigned("threads", &base.threads);
  flags.Unsigned("keys", &base.keys);
  flags.Double("theta", &base.theta);
  flags.Unsigned("ops", &base.ops_per_txn);
  flags.Double("put", &base.put_fraction);
  flags.Unsigned("rate", &base.rate);
  flags.String("series", &base.series_path);
  flags.Unsigned("series-interval", &base.sample_interval_ms);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (suite && json_path.empty()) json_path = "BENCH_throughput.json";
  if (smoke) return RunSmoke(base);
  if (suite || !json_path.empty()) return RunSuite(json_path, base);
  // Default: a quick look at the headline pair.
  base.seconds = 1.0;
  return RunSuite("", base) == 1 ? 1 : 0;
}
