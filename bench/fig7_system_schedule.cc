// Fig 7 / Example 4: the four top-level transactions on the
// encyclopedia, executed through the real runtime (open nested semantic
// locking), with their call trees and inherited dependencies — plus a
// benchmark of replaying the whole scenario.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "schedule/printer.h"
#include "schedule/validator.h"
#include "workload/paper_worlds.h"

using namespace oodb;

namespace {

/// Runs T1..T4 of Example 4; returns the database for inspection.
std::unique_ptr<Database> Example4Database() {
  auto db = std::make_unique<Database>();
  (void)RunExample4(db.get());
  return db;
}

void PrintFig7() {
  std::unique_ptr<Database> db = Example4Database();
  std::printf("Fig 7: object-oriented transactions of Example 4 "
              "(executed through the runtime)\n\n");
  std::printf("%s\n", SchedulePrinter::AllTrees(db->ts()).c_str());

  ValidationReport report = Validator::Validate(&db->ts());
  std::printf("verdict: %s\n", report.Summary().c_str());
  if (!report.serialization_order.empty()) {
    std::printf("equivalent serial order:");
    for (ActionId t : report.serialization_order) {
      std::printf(" %s", db->ts().action(t).label.c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check: T3 (search DBS) serializes after T1 (insert DBS);\n"
      "T4 (readSeq) after T1 and T2; T1 vs T2 stay unordered - their\n"
      "page conflicts commute at the leaf (Example 1).\n\n");
}

void BM_Example4Replay(benchmark::State& state) {
  for (auto _ : state) {
    std::unique_ptr<Database> db = Example4Database();
    benchmark::DoNotOptimize(db->counters().committed.load());
  }
}
BENCHMARK(BM_Example4Replay);

void BM_Example4Validation(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Database> db = Example4Database();
    state.ResumeTiming();
    ValidationReport report = Validator::Validate(&db->ts());
    benchmark::DoNotOptimize(report.oo_serializable);
  }
}
BENCHMARK(BM_Example4Validation);

}  // namespace

int main(int argc, char** argv) {
  PrintFig7();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
