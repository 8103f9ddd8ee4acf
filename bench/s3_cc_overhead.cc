// S3 (ablation): the cost of semantic concurrency control. Section 1:
// "relatively high costs — compared to conventional transaction systems
// — of concurrency control will be acceptable." This bench quantifies
// those costs on a single thread, where no scheduler ever waits: any
// difference is pure bookkeeping (lock tables, commutativity checks,
// action recording).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "apps/encyclopedia.h"
#include "containers/directory.h"
#include "model/extension.h"
#include "schedule/validator.h"

using namespace oodb;

namespace {

std::unique_ptr<Database> MakeEncDb(SchedulerKind kind, ObjectId* enc) {
  DatabaseOptions opts;
  opts.scheduler = kind;
  auto db = std::make_unique<Database>(opts);
  Encyclopedia::RegisterMethods(db.get());
  *enc = Encyclopedia::Create(db.get(), "Enc", 64, 64, 16);
  for (int i = 0; i < 128; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    (void)db->RunTransaction("seed", [&](MethodContext& txn) {
      return txn.Call(*enc, Encyclopedia::Insert(key, "seed"));
    });
  }
  return db;
}

void BM_EncChange(benchmark::State& state) {
  SchedulerKind kind = static_cast<SchedulerKind>(state.range(0));
  ObjectId enc;
  std::unique_ptr<Database> db = MakeEncDb(kind, &enc);
  int i = 0;
  for (auto _ : state) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i++ % 128);
    benchmark::DoNotOptimize(
        db->RunTransaction("chg", [&](MethodContext& txn) {
          return txn.Call(enc, Encyclopedia::Change(key, "rev"));
        }));
  }
  state.SetLabel(SchedulerKindName(kind));
}
BENCHMARK(BM_EncChange)
    ->Arg(int(SchedulerKind::kNone))
    ->Arg(int(SchedulerKind::kFlat2PL))
    ->Arg(int(SchedulerKind::kOpenNested))
    ->Arg(int(SchedulerKind::kObjectExclusive));

void BM_EncSearch(benchmark::State& state) {
  SchedulerKind kind = static_cast<SchedulerKind>(state.range(0));
  ObjectId enc;
  std::unique_ptr<Database> db = MakeEncDb(kind, &enc);
  int i = 0;
  for (auto _ : state) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i++ % 128);
    Value out;
    benchmark::DoNotOptimize(
        db->RunTransaction("get", [&](MethodContext& txn) {
          return txn.Call(enc, Encyclopedia::Search(key), &out);
        }));
  }
  state.SetLabel(SchedulerKindName(kind));
}
BENCHMARK(BM_EncSearch)
    ->Arg(int(SchedulerKind::kNone))
    ->Arg(int(SchedulerKind::kFlat2PL))
    ->Arg(int(SchedulerKind::kOpenNested));

// Micro: one primitive operation end to end (the smallest transaction).
void BM_DirectoryInsert(benchmark::State& state) {
  SchedulerKind kind = static_cast<SchedulerKind>(state.range(0));
  DatabaseOptions opts;
  opts.scheduler = kind;
  Database db(opts);
  RegisterDirectoryMethods(&db);
  ObjectId dir = CreateDirectory(&db, "D");
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.RunTransaction("ins", [&](MethodContext& txn) {
          return txn.Call(dir, Invocation("insert",
                                          {Value("k" + std::to_string(
                                                     i++ % 1024)),
                                           Value("v")}));
        }));
  }
  state.SetLabel(SchedulerKindName(kind));
}
BENCHMARK(BM_DirectoryInsert)
    ->Arg(int(SchedulerKind::kNone))
    ->Arg(int(SchedulerKind::kOpenNested));

// S3b: the *offline* share of the CC cost — validating the history the
// scheduler actually recorded: the analysis overhead a deployment pays
// per audit, not per transaction.
void BM_ValidateRecordedHistory(benchmark::State& state) {
  ObjectId enc;
  std::unique_ptr<Database> db =
      MakeEncDb(SchedulerKind::kOpenNested, &enc);
  for (int i = 0; i < 256; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i % 128);
    (void)db->RunTransaction("chg", [&](MethodContext& txn) {
      return txn.Call(enc, Encyclopedia::Change(key, "rev"));
    });
  }
  // Extend once up front; validation is then read-only and repeatable.
  SystemExtender::Extend(&db->ts());
  ValidationOptions options;
  options.apply_extension = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Validator::Validate(&db->ts(), options));
  }
}
BENCHMARK(BM_ValidateRecordedHistory);

}  // namespace

int main(int argc, char** argv) {
  std::printf("S3: single-threaded cost of concurrency control "
              "(overhead = semantic CC vs scheduler 'none').\n"
              "Expected shape: none < flat-2pl < open-nested <= "
              "object-exclusive, all within a small constant factor -\n"
              "the 'relatively high but acceptable costs' of section 1.\n\n");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
