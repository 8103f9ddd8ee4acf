// S6 (ablation): cost of the dependency analysis itself. The paper
// notes that "relatively high costs ... of concurrency control will be
// acceptable"; this bench measures how the offline analysis scales with
// history size — transactions, operations, and contention — and how
// many fixpoint rounds the Def 10/11/15 propagation needs.
//
// Alongside the human-readable table the bench writes BENCH_s6.json
// (into the working directory) so the numbers can be tracked across
// revisions by machines.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
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

struct ValidateRow {
  size_t txns, ops, actions, prim_conflicts, rounds;
  double ms;
};

void PrintScalingTable(std::vector<ValidateRow>* rows) {
  std::printf("S6: dependency-analysis scaling (random histories, "
              "8 keys/leaf, 2 leaves)\n\n");
  std::printf("%6s %6s %10s %12s %8s %10s\n", "txns", "ops", "actions",
              "prim-confl", "rounds", "ms");
  for (size_t txns : {4, 16, 64, 256}) {
    for (size_t ops : {2, 8}) {
      RandomHistory h = MakeHistory(txns, ops);
      auto start = std::chrono::steady_clock::now();
      ValidationReport report = Validator::Validate(h.ts.get());
      const double ms = MsSince(start);
      ValidateRow row{txns,
                      ops,
                      size_t(h.ts->action_count()),
                      report.stats.primitive_conflicts,
                      report.stats.fixpoint_rounds,
                      ms};
      std::printf("%6zu %6zu %10zu %12zu %8zu %10.2f\n", row.txns,
                  row.ops, row.actions, row.prim_conflicts, row.rounds,
                  row.ms);
      rows->push_back(row);
    }
  }
  std::printf(
      "\nShape check: cost is dominated by the quadratic number of\n"
      "same-object conflict pairs (prim-confl column) and by full-rescan\n"
      "fixpoint passes.\n\n");
}

void WriteJson(const std::vector<ValidateRow>& validate) {
  FILE* f = std::fopen("BENCH_s6.json", "w");
  if (f == nullptr) {
    std::printf("note: could not open BENCH_s6.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"s6_validator_scaling\",\n");
  std::fprintf(f, "  \"validate\": [\n");
  for (size_t i = 0; i < validate.size(); ++i) {
    const ValidateRow& r = validate[i];
    std::fprintf(f,
                 "    {\"txns\": %zu, \"ops\": %zu, \"actions\": %zu, "
                 "\"prim_conflicts\": %zu, \"fixpoint_rounds\": %zu, "
                 "\"ms\": %.3f}%s\n",
                 r.txns, r.ops, r.actions, r.prim_conflicts, r.rounds, r.ms,
                 i + 1 < validate.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_s6.json\n\n");
}

// --metrics-json: one registry snapshot covering both halves of the
// pipeline. A small contended encyclopedia run feeds the runtime side
// (lock acquire/wait counters, db.lock.wait_ns histogram), then its own
// history goes through the validator publishing engine metrics
// (dep.stage.*_ns, dep.* stats) into the same registry. The registry is
// the caller's (main owns one for the whole bench) so a sampler
// attached to it sees one monotone stream instead of counters resetting
// at the phase boundary.
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
  PrintScalingTable(&validate_rows);
  WriteJson(validate_rows);
  if (!metrics_path.empty()) WriteMetricsJson(metrics_path, registry);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
