// S10 (robustness): what durability costs and what recovery buys.
//
// Two axes, both written to BENCH_recovery.json:
//
//   throughput  the same directory/hash-index workload with no engine
//               attached (the in-memory baseline), with the WAL on but
//               unsynced, and with the full force-at-commit discipline.
//               The gap no-wal -> wal-nosync is the logging overhead
//               (serialization + append); wal-nosync -> wal-fsync is
//               the price of the commit fsync itself.
//
//   recovery    restart time as a function of epoch log length: N
//               committed transactions with no checkpoint, then
//               Open + Recover on a fresh process image. Logical redo
//               re-executes real methods, so this is the cost model for
//               "how often should I checkpoint".
//
// Each recovery cell runs with a metrics registry attached, so the
// JSON rows carry the recovery-phase split (scan/analysis/redo/undo/
// checkpoint/finish, coverage 1.0 by construction) and the buffer-cache
// introspection headline numbers (hit ratio, evictions, pin p50/p99).
//
//   --recovery-only        skip the throughput cells (the series job
//                          only gates the recovery axis)
//   --series=PATH          record a sampler series (tag "s10-recovery")
//                          over the largest recovery cell
//   --series-interval=MS   sampler tick period (default 5)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "containers/directory.h"
#include "containers/hash_index.h"
#include "containers/page_ops.h"
#include "containers/persist.h"
#include "obs/sampler.h"
#include "storage/recovery.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/random.h"

using namespace oodb;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string FreshDir(const std::string& tag) {
  std::string dir = "/tmp/oodb_bench_s10_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

void Register(Database* db) {
  RegisterPageMethods(db);  // HashIndex buckets call Page methods
  RegisterDirectoryMethods(db);
  HashIndex::RegisterMethods(db);
}

Status OpenStore(StorageEngine* engine, Database* db) {
  OODB_RETURN_IF_ERROR(RegisterStandardSerdes(engine));
  OODB_RETURN_IF_ERROR(engine->Open(db));
  if (!engine->RootId("D").valid()) {
    OODB_RETURN_IF_ERROR(
        engine->AttachRoot("D", "directory", CreateDirectory(db, "D")));
  }
  if (!engine->RootId("H").valid()) {
    OODB_RETURN_IF_ERROR(engine->AttachRoot(
        "H", "hash-index", HashIndex::Create(db, "H", /*capacity=*/4)));
  }
  return Recover(engine, db);
}

/// What a workload cell's transactions returned, by status code.
struct Outcomes {
  std::map<StatusCode, uint64_t> by_code;

  void Merge(const Outcomes& other) {
    for (const auto& [code, count] : other.by_code) by_code[code] += count;
  }
  uint64_t Count(StatusCode code) const {
    auto it = by_code.find(code);
    return it == by_code.end() ? 0 : it->second;
  }
  uint64_t committed() const { return Count(StatusCode::kOk); }
  uint64_t aborted() const {
    uint64_t n = 0;
    for (const auto& [code, count] : by_code) n += count;
    return n - committed();
  }
  /// "committed=N aborted=N", then the count of each failure code.
  std::string Summary() const {
    std::string out = "committed=" + std::to_string(committed()) +
                      " aborted=" + std::to_string(aborted());
    for (const auto& [code, count] : by_code) {
      if (code == StatusCode::kOk) continue;
      out += std::string(" ") + StatusCodeName(code) + "=" +
             std::to_string(count);
    }
    return out;
  }
};

/// The workload cell: `txns` transactions over `threads` threads, each
/// 1-3 inserts split between the directory and the hash index.
double RunWorkload(Database* db, ObjectId dir, ObjectId idx, size_t txns,
                   size_t threads, uint64_t seed, Outcomes* outcomes) {
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  std::vector<Outcomes> per_worker(threads);
  const size_t per_thread = (txns + threads - 1) / threads;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([=, &per_worker] {
      Rng rng(seed * 7919 + t);
      Outcomes& mine = per_worker[t];
      for (size_t i = 0; i < per_thread; ++i) {
        Status result = db->RunTransaction("b", [&](MethodContext& txn) {
          const size_t ops = 1 + rng.NextBelow(3);
          for (size_t k = 0; k < ops; ++k) {
            const std::string key = "k" + std::to_string(rng.NextBelow(200));
            const std::string val = "v" + std::to_string(i);
            Status st =
                rng.NextBool()
                    ? txn.Call(dir, Invocation("insert",
                                               {Value(key), Value(val)}))
                    : txn.Call(idx, HashIndex::Insert(key, val));
            if (!st.ok()) return st;
          }
          return Status::OK();
        });
        ++mine.by_code[result.code()];
      }
    });
  }
  for (auto& w : workers) w.join();
  const double ms = MsSince(start);
  for (const Outcomes& o : per_worker) outcomes->Merge(o);
  return ms;
}

struct ThroughputRow {
  std::string mode;
  size_t txns = 0;
  double ms = 0;
  Outcomes outcomes;
  double txns_per_sec() const { return txns / (ms / 1000.0); }
};

ThroughputRow ThroughputCell(const std::string& mode, size_t txns,
                             size_t threads) {
  Database db;
  Register(&db);
  ThroughputRow row{mode, txns, 0, {}};
  if (mode == "no-wal") {
    ObjectId dir = CreateDirectory(&db, "D");
    ObjectId idx = HashIndex::Create(&db, "H", 4);
    row.ms = RunWorkload(&db, dir, idx, txns, threads, 42, &row.outcomes);
    return row;
  }
  StorageEngineOptions opts;
  opts.dir = FreshDir("tp_" + mode);
  opts.wal.fsync = mode == "wal-fsync";
  StorageEngine engine(opts);
  if (!OpenStore(&engine, &db).ok()) std::exit(1);
  db.AttachDurability(&engine);
  row.ms = RunWorkload(&db, engine.RootId("D"), engine.RootId("H"), txns,
                       threads, 42, &row.outcomes);
  std::filesystem::remove_all(opts.dir);
  return row;
}

struct RecoveryRow {
  size_t logged_txns = 0;
  Outcomes outcomes;  ///< of the logged workload
  uint64_t redo_records = 0;
  uint64_t winners = 0;
  double recover_ms = 0;
  RecoveryTimeline timeline;
  PageCacheStats cache;
  uint64_t pin_p50_ns = 0;
  uint64_t pin_p99_ns = 0;
};

RecoveryRow RecoveryCell(size_t txns, const std::string& series_path,
                         uint64_t series_interval_ms) {
  const std::string dir = FreshDir("rec_" + std::to_string(txns));
  StorageEngineOptions opts;
  opts.dir = dir;
  RecoveryRow row;
  row.logged_txns = txns;
  {
    Database db;
    Register(&db);
    StorageEngine engine(opts);
    if (!OpenStore(&engine, &db).ok()) std::exit(1);
    db.AttachDurability(&engine);
    // No checkpoint: the whole workload stays in the epoch WAL.
    RunWorkload(&db, engine.RootId("D"), engine.RootId("H"), txns,
                /*threads=*/2, /*seed=*/7, &row.outcomes);
  }
  {
    Database db;
    Register(&db);
    StorageEngine engine(opts);
    MetricsRegistry registry;
    engine.AttachMetrics(&registry);
    if (!RegisterStandardSerdes(&engine).ok()) std::exit(1);
    if (!engine.Open(&db).ok()) std::exit(1);
    SamplerOptions sampler_opts;
    sampler_opts.interval = std::chrono::milliseconds(series_interval_ms);
    sampler_opts.tag = "s10-recovery";
    MetricsSampler sampler(&registry, sampler_opts);
    engine.InstallSamplerProbes(&sampler);
    const bool record = !series_path.empty();
    if (record) sampler.Start();
    RecoveryStats stats;
    auto start = std::chrono::steady_clock::now();
    if (!Recover(&engine, &db, &stats).ok()) std::exit(1);
    row.recover_ms = MsSince(start);
    if (record) {
      sampler.Stop();
      Status wrote = sampler.WriteJsonLines(series_path);
      if (!wrote.ok()) {
        std::printf("note: could not write %s: %s\n", series_path.c_str(),
                    wrote.ToString().c_str());
      } else {
        std::printf("wrote %s\n", series_path.c_str());
      }
    }
    row.redo_records = stats.redo_records;
    row.winners = stats.winners;
    row.timeline = stats.timeline;
    row.cache = engine.cache()->stats();
    const HistogramSnapshot pins =
        registry.GetHistogram("storage.cache.pin_ns")->Snapshot();
    row.pin_p50_ns = pins.Quantile(0.5);
    row.pin_p99_ns = pins.Quantile(0.99);
  }
  std::filesystem::remove_all(dir);
  return row;
}

/// The host the numbers come from: nproc, CPU model, build type, and the
/// source tree's git sha ("-dirty" when built with uncommitted edits).
std::string HostJson() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string sha = "unknown";
  if (FILE* git = ::popen("git -C '" OODB_SOURCE_DIR
                          "' describe --always --dirty 2>/dev/null",
                          "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), git) != nullptr) {
      sha = buf;
      sha.erase(sha.find_last_not_of(" \n") + 1);
    }
    ::pclose(git);
  }
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + JsonEscape(cpu) +
         "\", \"build_type\": \"" OODB_BUILD_TYPE "\", \"git_sha\": \"" +
         JsonEscape(sha) + "\"}";
}

void WriteJson(const std::vector<ThroughputRow>& throughput,
               const std::vector<RecoveryRow>& recovery) {
  FILE* f = std::fopen("BENCH_recovery.json", "w");
  if (f == nullptr) {
    std::printf("note: could not open BENCH_recovery.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"s10_recovery\",\n");
  std::fprintf(f, "  \"host\": %s,\n", HostJson().c_str());
  std::fprintf(f, "  \"throughput\": [\n");
  for (size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputRow& r = throughput[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"txns\": %zu, \"committed\": %llu, "
                 "\"aborted\": %llu, \"ms\": %.2f, \"txns_per_sec\": %.0f}%s\n",
                 r.mode.c_str(), r.txns,
                 (unsigned long long)r.outcomes.committed(),
                 (unsigned long long)r.outcomes.aborted(), r.ms,
                 r.txns_per_sec(),
                 i + 1 < throughput.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recovery\": [\n");
  for (size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryRow& r = recovery[i];
    auto phase_ms = [&r](RecoveryPhase p) {
      return double(r.timeline.Ns(p)) / 1e6;
    };
    std::fprintf(f,
                 "    {\"logged_txns\": %zu, \"committed\": %llu, "
                 "\"aborted\": %llu, \"winners\": %llu, "
                 "\"redo_records\": %llu, \"recover_ms\": %.2f,\n",
                 r.logged_txns, (unsigned long long)r.outcomes.committed(),
                 (unsigned long long)r.outcomes.aborted(),
                 (unsigned long long)r.winners,
                 (unsigned long long)r.redo_records, r.recover_ms);
    std::fprintf(f,
                 "     \"phases\": {\"scan_ms\": %.3f, \"analysis_ms\": "
                 "%.3f, \"redo_ms\": %.3f, \"undo_ms\": %.3f, "
                 "\"checkpoint_ms\": %.3f, \"finish_ms\": %.3f, "
                 "\"coverage\": %.4f},\n",
                 phase_ms(RecoveryPhase::kScan),
                 phase_ms(RecoveryPhase::kAnalysis),
                 phase_ms(RecoveryPhase::kRedo),
                 phase_ms(RecoveryPhase::kUndo),
                 phase_ms(RecoveryPhase::kCheckpoint),
                 phase_ms(RecoveryPhase::kFinish), r.timeline.Coverage());
    const uint64_t lookups = r.cache.hits + r.cache.misses;
    std::fprintf(f,
                 "     \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"hit_ratio\": %.4f, \"evictions\": %llu, "
                 "\"writebacks\": %llu, \"pin_p50_ns\": %llu, "
                 "\"pin_p99_ns\": %llu}}%s\n",
                 (unsigned long long)r.cache.hits,
                 (unsigned long long)r.cache.misses,
                 lookups > 0 ? double(r.cache.hits) / double(lookups) : 0.0,
                 (unsigned long long)r.cache.evictions,
                 (unsigned long long)r.cache.writebacks,
                 (unsigned long long)r.pin_p50_ns,
                 (unsigned long long)r.pin_p99_ns,
                 i + 1 < recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_recovery.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool recovery_only = false;
  std::string series_path;
  uint64_t series_interval_ms = 5;
  FlagSet flags("s10_recovery",
                "usage: s10_recovery [--recovery-only] [--series=PATH] "
                "[--series-interval=MS]\n");
  flags.Bool("recovery-only", &recovery_only);
  flags.String("series", &series_path);
  flags.Unsigned("series-interval", &series_interval_ms);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (series_interval_ms == 0) series_interval_ms = 5;

  std::printf("S10: durability cost and recovery scaling\n\n");

  Outcomes all;  // every cell's workload, for the Unsupported gate
  std::vector<ThroughputRow> throughput;
  if (!recovery_only) {
    constexpr size_t kTxns = 600;
    constexpr size_t kThreads = 2;
    std::printf("%-10s %6s %10s %12s  %s\n", "mode", "txns", "ms",
                "txns/sec", "outcomes");
    for (const char* mode : {"no-wal", "wal-nosync", "wal-fsync"}) {
      ThroughputRow row = ThroughputCell(mode, kTxns, kThreads);
      std::printf("%-10s %6zu %10.1f %12.0f  %s\n", row.mode.c_str(),
                  row.txns, row.ms, row.txns_per_sec(),
                  row.outcomes.Summary().c_str());
      all.Merge(row.outcomes);
      throughput.push_back(row);
    }
    std::printf("\n");
  }

  std::printf("%-12s %8s %13s %12s %9s %9s  %s\n", "logged_txns", "winners",
              "redo_records", "recover_ms", "redo%", "cache-hit%",
              "outcomes");
  std::vector<RecoveryRow> recovery;
  const std::vector<size_t> cells = {200, 800, 3200};
  for (size_t txns : cells) {
    // The series (when asked for) records the largest cell — the one
    // long enough for per-tick phase/progress gauges to mean anything.
    const bool record = txns == cells.back();
    RecoveryRow row = RecoveryCell(txns, record ? series_path : "",
                                   series_interval_ms);
    const uint64_t lookups = row.cache.hits + row.cache.misses;
    std::printf("%-12zu %8llu %13llu %12.2f %8.1f%% %8.1f%%  %s\n",
                row.logged_txns, (unsigned long long)row.winners,
                (unsigned long long)row.redo_records, row.recover_ms,
                row.timeline.total_ns > 0
                    ? 100.0 * double(row.timeline.Ns(RecoveryPhase::kRedo)) /
                          double(row.timeline.total_ns)
                    : 0.0,
                lookups > 0 ? 100.0 * double(row.cache.hits) / double(lookups)
                            : 0.0,
                row.outcomes.Summary().c_str());
    all.Merge(row.outcomes);
    recovery.push_back(row);
  }

  WriteJson(throughput, recovery);
  std::printf(
      "\nShape check: logging off the commit path is cheap; the fsync\n"
      "dominates durable throughput. Recovery time grows linearly in\n"
      "the epoch's redo records — checkpoint frequency bounds restart\n"
      "time, not correctness.\n");
  // A method the workload calls but nobody registered fails every
  // transaction that reaches it: a broken bench, not a measurement.
  if (const uint64_t n = all.Count(StatusCode::kUnsupported); n > 0) {
    std::fprintf(stderr,
                 "s10_recovery: %llu transactions failed Unsupported "
                 "(a method the workload calls is not registered)\n",
                 (unsigned long long)n);
    return 1;
  }
  return 0;
}
