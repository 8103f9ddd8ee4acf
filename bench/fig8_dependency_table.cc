// Fig 8: "Schedule dependencies of the objects" — the per-object
// dependency table, recomputed mechanically from the Example 4
// execution, plus a benchmark of the table computation on larger
// histories.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "model/extension.h"
#include "schedule/printer.h"
#include "workload/paper_worlds.h"
#include "workload/random_history.h"

using namespace oodb;

namespace {

void PrintFig8() {
  Database db;
  (void)RunExample4(&db);

  SystemExtender::Extend(&db.ts());
  DependencyEngine engine(db.ts());
  if (!engine.Compute().ok()) return;

  std::printf("Fig 8: schedule dependencies of the objects "
              "(Example 4, recomputed)\n\n");
  std::printf("%s\n",
              SchedulePrinter::DependencyTable(db.ts(), engine).c_str());
  std::printf(
      "stats: %zu primitive conflicts (Axiom 1), %zu inherited (Def 10), "
      "%zu stopped at commuting callers,\n       %zu added cross-object "
      "dependencies (Def 15), %zu fixpoint rounds\n",
      engine.stats().primitive_conflicts, engine.stats().inherited_txn_deps,
      engine.stats().stopped_inheritance, engine.stats().added_deps,
      engine.stats().fixpoint_rounds);
  std::printf(
      "\nShape check (vs the paper's table): dependencies appear at the\n"
      "pages and at Leaf11 for the two inserts but vanish at BpTree/Enc\n"
      "level; the insert(DBS)/search(DBS) pair and the mutation/readSeq\n"
      "pairs survive to the top; the change->readSeq dependency shows up\n"
      "as an added dependency (Def 15) because its callers live on\n"
      "different objects.\n\n");
}

void BM_DependencyTable(benchmark::State& state) {
  RandomHistoryConfig config;
  config.num_txns = size_t(state.range(0));
  config.ops_per_txn = 3;
  config.num_leaves = 4;
  config.keys_per_leaf = 32;
  RandomHistory h = GenerateRandomHistory(config);
  for (auto _ : state) {
    DependencyEngine engine(*h.ts);
    if (engine.Compute().ok()) {
      benchmark::DoNotOptimize(
          SchedulePrinter::DependencyTable(*h.ts, engine).size());
    }
  }
}
BENCHMARK(BM_DependencyTable)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  PrintFig8();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
