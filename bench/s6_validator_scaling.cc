// S6 (ablation): cost of the dependency analysis itself. The paper
// notes that "relatively high costs ... of concurrency control will be
// acceptable"; this bench measures how the offline analysis scales with
// history size — transactions, operations, and contention — and how
// many fixpoint rounds the Def 10/11/15 propagation needs.
//
// Since the analysis-pipeline rework the table carries a threads axis:
// t1 is the serial reference path (ValidationOptions::num_threads = 1,
// the pre-rework algorithm, unchanged), t2/t4/t8 select the indexed
// engine — memoized conflict pairs + worklist fixpoint — fanned out
// over a pool. A second table isolates the engine to separate the
// memoization win (indexed at 1 thread) from actual parallelism.
// Every timed run is checked to report *identically* to the reference.
//
// Alongside the human-readable tables the bench writes BENCH_s6.json
// (into the working directory) so the numbers can be tracked across
// revisions by machines.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/encyclopedia.h"
#include "obs/metrics.h"
#include "schedule/validator.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/random.h"
#include "workload/harness.h"
#include "workload/random_history.h"

using namespace oodb;

namespace {

RandomHistory MakeHistory(size_t txns, size_t ops) {
  RandomHistoryConfig config;
  config.num_txns = txns;
  config.ops_per_txn = ops;
  config.num_leaves = 2;
  config.keys_per_leaf = 8;
  config.seed = 42;
  return GenerateRandomHistory(config);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool SameReport(const ValidationReport& a, const ValidationReport& b) {
  return a.oo_serializable == b.oo_serializable &&
         a.conventionally_serializable == b.conventionally_serializable &&
         a.conform == b.conform &&
         a.stats.primitive_conflicts == b.stats.primitive_conflicts &&
         a.stats.inherited_txn_deps == b.stats.inherited_txn_deps &&
         a.stats.stopped_inheritance == b.stats.stopped_inheritance &&
         a.stats.added_deps == b.stats.added_deps &&
         a.stats.fixpoint_rounds == b.stats.fixpoint_rounds &&
         a.stats.unordered_conflicts == b.stats.unordered_conflicts &&
         a.conventional.conflicting_pairs ==
             b.conventional.conflicting_pairs;
}

struct ValidateRow {
  size_t txns, ops, actions, prim_conflicts, rounds;
  double ms[4];  // threads 1 (reference), 2, 4, 8
};

struct EngineRow {
  size_t txns, ops;
  double reference_ms;  // serial reference engine
  double memoized_ms;   // indexed engine, 1 thread: memo + worklist only
  double threaded_ms;   // indexed engine, 4 threads
};

const size_t kThreadAxis[4] = {1, 2, 4, 8};

void PrintScalingTable(std::vector<ValidateRow>* rows) {
  std::printf("S6: dependency-analysis scaling (random histories, "
              "8 keys/leaf, 2 leaves)\n");
  std::printf("t1 = serial reference path; t2/t4/t8 = indexed engine "
              "(memoized + worklist)\n\n");
  std::printf("%6s %6s %10s %12s %8s %10s %10s %10s %10s %9s\n", "txns",
              "ops", "actions", "prim-confl", "rounds", "t1-ms", "t2-ms",
              "t4-ms", "t8-ms", "speedup");
  for (size_t txns : {4, 16, 64, 256}) {
    for (size_t ops : {2, 8}) {
      ValidateRow row{};
      row.txns = txns;
      row.ops = ops;
      ValidationReport reference;
      for (int t = 0; t < 4; ++t) {
        // Validate mutates the system (Def 5 extension), so every
        // timed run gets a fresh same-seed history; generation is not
        // timed.
        RandomHistory h = MakeHistory(txns, ops);
        ValidationOptions options;
        options.num_threads = kThreadAxis[t];
        auto start = std::chrono::steady_clock::now();
        ValidationReport report = Validator::Validate(h.ts.get(), options);
        row.ms[t] = MsSince(start);
        if (t == 0) {
          reference = report;
          row.actions = size_t(h.ts->action_count());
          row.prim_conflicts = report.stats.primitive_conflicts;
          row.rounds = report.stats.fixpoint_rounds;
        } else if (!SameReport(reference, report)) {
          std::printf("FATAL: report mismatch at txns=%zu ops=%zu "
                      "threads=%zu\n",
                      txns, ops, kThreadAxis[t]);
          std::exit(1);
        }
      }
      std::printf("%6zu %6zu %10zu %12zu %8zu %10.2f %10.2f %10.2f "
                  "%10.2f %8.1fx\n",
                  row.txns, row.ops, row.actions, row.prim_conflicts,
                  row.rounds, row.ms[0], row.ms[1], row.ms[2], row.ms[3],
                  row.ms[0] / row.ms[3]);
      rows->push_back(row);
    }
  }
  std::printf(
      "\nShape check: reference cost is dominated by the quadratic\n"
      "number of same-object conflict pairs (prim-confl column) and by\n"
      "full-rescan fixpoint passes; the indexed engine collapses the\n"
      "spec calls into a per-class matrix and reexamines only the delta\n"
      "per wave, so its advantage grows with history size. Fixpoint\n"
      "rounds are identical by construction - waves mirror rescan\n"
      "passes.\n\n");
}

void PrintEngineTable(std::vector<EngineRow>* rows) {
  std::printf("S6b: engine only (no extension/conventional/checks) - "
              "isolating the memoization win from parallelism\n\n");
  std::printf("%6s %6s %14s %13s %13s %9s\n", "txns", "ops", "reference-ms",
              "memoized-ms", "4threads-ms", "memo-win");
  for (size_t txns : {16, 64, 256}) {
    EngineRow row{};
    row.txns = txns;
    row.ops = 8;
    RandomHistory h = MakeHistory(txns, row.ops);
    SystemExtender::Extend(h.ts.get());
    {
      auto start = std::chrono::steady_clock::now();
      DependencyEngine engine(*h.ts);
      if (!engine.Compute().ok()) std::exit(1);
      row.reference_ms = MsSince(start);
    }
    for (int pass = 0; pass < 2; ++pass) {
      DependencyOptions options;
      options.mode = DependencyOptions::Mode::kIndexed;
      options.num_threads = pass == 0 ? 1 : 4;
      auto start = std::chrono::steady_clock::now();
      DependencyEngine engine(*h.ts, options);
      if (!engine.Compute().ok()) std::exit(1);
      (pass == 0 ? row.memoized_ms : row.threaded_ms) = MsSince(start);
    }
    std::printf("%6zu %6zu %14.2f %13.2f %13.2f %8.1fx\n", row.txns,
                row.ops, row.reference_ms, row.memoized_ms,
                row.threaded_ms, row.reference_ms / row.memoized_ms);
    rows->push_back(row);
  }
  std::printf("\n");
}

void WriteJson(const std::vector<ValidateRow>& validate,
               const std::vector<EngineRow>& engine) {
  FILE* f = std::fopen("BENCH_s6.json", "w");
  if (f == nullptr) {
    std::printf("note: could not open BENCH_s6.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"s6_validator_scaling\",\n");
  std::fprintf(f, "  \"thread_axis\": [1, 2, 4, 8],\n");
  std::fprintf(f, "  \"validate\": [\n");
  for (size_t i = 0; i < validate.size(); ++i) {
    const ValidateRow& r = validate[i];
    std::fprintf(f,
                 "    {\"txns\": %zu, \"ops\": %zu, \"actions\": %zu, "
                 "\"prim_conflicts\": %zu, \"fixpoint_rounds\": %zu, "
                 "\"ms\": [%.3f, %.3f, %.3f, %.3f]}%s\n",
                 r.txns, r.ops, r.actions, r.prim_conflicts, r.rounds,
                 r.ms[0], r.ms[1], r.ms[2], r.ms[3],
                 i + 1 < validate.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"engine_only\": [\n");
  for (size_t i = 0; i < engine.size(); ++i) {
    const EngineRow& r = engine[i];
    std::fprintf(f,
                 "    {\"txns\": %zu, \"ops\": %zu, "
                 "\"reference_ms\": %.3f, \"memoized_serial_ms\": %.3f, "
                 "\"indexed_4threads_ms\": %.3f}%s\n",
                 r.txns, r.ops, r.reference_ms, r.memoized_ms,
                 r.threaded_ms, i + 1 < engine.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_s6.json\n\n");
}

// --metrics-json: one registry snapshot covering both halves of the
// pipeline. A small contended encyclopedia run feeds the runtime side
// (lock acquire/wait counters, db.lock.wait_ns histogram), then its own
// history goes through the indexed validator publishing engine metrics
// (dep.memo.hits/misses, dep.stage.*_ns, dep.worklist.*) into the same
// registry. The registry is the caller's (main owns one for the whole
// bench) so a sampler attached to it sees one monotone stream instead
// of counters resetting at the phase boundary.
void WriteMetricsJson(const std::string& path, MetricsRegistry& registry) {
  DatabaseOptions opts;
  opts.lock_options.wait_timeout = std::chrono::milliseconds(300);
  Database db(opts);
  db.AttachObservability(&registry, nullptr);
  Encyclopedia::RegisterMethods(&db);
  ObjectId enc = Encyclopedia::Create(&db, "Enc", /*leaf_capacity=*/32,
                                      /*fanout=*/32, /*items_per_page=*/8);
  HarnessConfig config;
  config.threads = 4;
  config.txns_per_thread = 50;
  config.metrics = &registry;
  (void)Harness::Run(
      &db, config, [enc](size_t thread, size_t index) -> TransactionBody {
        return [enc, thread, index](MethodContext& txn) {
          thread_local Rng rng(thread * 7919 + 3);
          std::string key = "K" + std::to_string(rng.NextBelow(32));
          Status st;
          if (index % 2 == 0) {
            st = txn.Call(enc, Encyclopedia::Insert(key, "v"));
            if (st.code() == StatusCode::kAlreadyExists) st = Status::OK();
          } else {
            Value out;
            st = txn.Call(enc, Encyclopedia::Search(key), &out);
          }
          OODB_RETURN_IF_ERROR(st);
          // Hold the locks briefly so concurrent same-key transactions
          // actually wait and the db.lock.wait_ns histogram fills.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return Status::OK();
        };
      });
  ValidationOptions options;
  options.metrics = &registry;
  options.num_threads = 4;  // indexed engine: memo + worklist counters
  (void)Validator::Validate(&db.ts(), options);
  const bool ok = WriteOut(path, registry.JsonSnapshot()).ok();
  std::printf(ok ? "wrote %s\n\n" : "note: could not write %s\n",
              path.c_str());
}

void BM_ValidateScaling(benchmark::State& state) {
  RandomHistoryConfig config;
  config.num_txns = size_t(state.range(0));
  config.ops_per_txn = 4;
  config.num_leaves = 4;
  config.keys_per_leaf = 16;
  config.seed = 7;
  RandomHistory h = GenerateRandomHistory(config);
  for (auto _ : state) {
    // Validate without mutating the original: dependency engine only.
    DependencyEngine engine(*h.ts);
    benchmark::DoNotOptimize(engine.Compute());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(h.ts->action_count()));
}
BENCHMARK(BM_ValidateScaling)->Arg(4)->Arg(16)->Arg(64);

void BM_ValidateScalingIndexed(benchmark::State& state) {
  RandomHistoryConfig config;
  config.num_txns = size_t(state.range(0));
  config.ops_per_txn = 4;
  config.num_leaves = 4;
  config.keys_per_leaf = 16;
  config.seed = 7;
  RandomHistory h = GenerateRandomHistory(config);
  DependencyOptions options;
  options.mode = DependencyOptions::Mode::kIndexed;
  options.num_threads = size_t(state.range(1));
  for (auto _ : state) {
    DependencyEngine engine(*h.ts, options);
    benchmark::DoNotOptimize(engine.Compute());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(h.ts->action_count()));
}
BENCHMARK(BM_ValidateScalingIndexed)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({64, 8});

void BM_ExtensionOnCleanSystem(benchmark::State& state) {
  RandomHistoryConfig config;
  config.num_txns = 32;
  config.ops_per_txn = 4;
  RandomHistory h = GenerateRandomHistory(config);
  for (auto _ : state) {
    // No cycles to break: measures the scan cost alone.
    benchmark::DoNotOptimize(SystemExtender::NeedsExtension(*h.ts));
  }
}
BENCHMARK(BM_ExtensionOnCleanSystem);

}  // namespace

int main(int argc, char** argv) {
  // benchmark::Initialize rejects flags it does not know, so strip the
  // custom one before handing the rest of argv over.
  std::string metrics_path;
  std::vector<char*> rest = {argv[0]};
  FlagSet flags("s6_validator_scaling",
                "usage: s6_validator_scaling [--metrics-json=PATH] "
                "[--benchmark_...]\n");
  flags.String("metrics-json", &metrics_path);
  flags.PassUnknown(&rest);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  argc = static_cast<int>(rest.size());
  rest.push_back(nullptr);
  argv = rest.data();

  // The bench-wide registry: every phase that publishes metrics shares
  // it, keeping counter streams monotone for any attached sampler.
  MetricsRegistry registry;
  std::vector<ValidateRow> validate_rows;
  std::vector<EngineRow> engine_rows;
  PrintScalingTable(&validate_rows);
  PrintEngineTable(&engine_rows);
  WriteJson(validate_rows, engine_rows);
  if (!metrics_path.empty()) WriteMetricsJson(metrics_path, registry);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
