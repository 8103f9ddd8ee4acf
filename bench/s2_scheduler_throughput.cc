// S2 (shape experiment): scheduler throughput on the encyclopedia
// workload. The paper's promise is runtime concurrency: open nested
// semantic locking should beat flat page-level 2PL — and crush the
// object-exclusive strawman — on nested workloads with shared pages,
// with the gap growing under contention and thread count.
//
// This is a plain timing harness (no google-benchmark): the harness
// measures wall time, commits, aborts, deadlocks, and lock waits per
// scheduler x thread-count x contention cell.
//
// A final section validates one recorded contended run twice — under
// the hand-written commutativity specs and under the matrices the
// inference engine synthesizes (analysis/spec_synthesis.h, installed
// via TransactionSystem::SetSpecOverride) — and compares dependency-
// edge counts and validation time. --inference-json=PATH dumps that
// comparison (BENCH_inference.json in the repo root is its committed
// snapshot).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/commutativity_inference.h"
#include "analysis/spec_synthesis.h"
#include "apps/encyclopedia.h"
#include "obs/metrics.h"
#include "schedule/validator.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/random.h"
#include "workload/harness.h"

using namespace oodb;

namespace {

constexpr size_t kKeys = 256;

/// A database holding the encyclopedia with kKeys items, preloaded from
/// one thread (no contention).
ObjectId CreatePreloaded(Database* db) {
  Encyclopedia::RegisterMethods(db);
  ObjectId enc = Encyclopedia::Create(db, "Enc", /*leaf_capacity=*/32,
                                      /*fanout=*/32, /*items_per_page=*/8);
  for (size_t i = 0; i < kKeys; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05zu", i);
    (void)db->RunTransaction("seed", [&](MethodContext& txn) {
      return txn.Call(enc, Encyclopedia::Insert(key, "seed"));
    });
  }
  return enc;
}

/// 50% search / 50% change over the preloaded keys, Zipf(theta)-skewed.
/// A nonzero `hold` keeps each transaction open that long after its
/// call (user think time / downstream IO) while its locks are held: the
/// window in which schedulers differ.
TxnFactory SearchChangeMix(ObjectId enc, double theta,
                           std::chrono::microseconds hold) {
  return [=](size_t thread, size_t index) -> TransactionBody {
    return [=](MethodContext& txn) {
      // Harness workers are fresh threads per run, so these start over
      // with every cell.
      thread_local std::unique_ptr<ZipfGenerator> zipf;
      if (!zipf) {
        zipf = std::make_unique<ZipfGenerator>(kKeys, theta, thread * 31 + 7);
      }
      thread_local Rng rng(thread * 1009 + 1);
      char key[16];
      std::snprintf(key, sizeof(key), "k%05llu",
                    (unsigned long long)zipf->Next());
      Status st;
      if (rng.NextDouble() < 0.5) {
        Value out;
        st = txn.Call(enc, Encyclopedia::Search(key), &out);
      } else {
        st = txn.Call(
            enc, Encyclopedia::Change(key, "rev" + std::to_string(index)));
      }
      OODB_RETURN_IF_ERROR(st);
      if (hold.count() > 0) std::this_thread::sleep_for(hold);
      return Status::OK();
    };
  };
}

HarnessResult RunCell(SchedulerKind scheduler, size_t threads,
                      double zipf_theta, size_t txns_per_thread,
                      MetricsRegistry* metrics) {
  DatabaseOptions opts;
  opts.scheduler = scheduler;
  opts.lock_options.wait_timeout = std::chrono::milliseconds(300);
  Database db(opts);
  if (metrics != nullptr) db.AttachObservability(metrics, nullptr);
  ObjectId enc = CreatePreloaded(&db);
  db.counters().Reset();

  HarnessConfig config;
  config.threads = threads;
  config.txns_per_thread = txns_per_thread;
  config.metrics = metrics;
  return Harness::Run(
      &db, config,
      SearchChangeMix(enc, zipf_theta, std::chrono::microseconds(200)));
}

/// One validation cell of the hand-vs-inferred comparison.
struct SpecCell {
  uint64_t validate_ns = 0;
  bool oo_serializable = false;
  DependencyStats stats;

  std::string Json() const {
    return "{\"validate_ns\":" + std::to_string(validate_ns) +
           ",\"oo_serializable\":" +
           (oo_serializable ? std::string("true") : std::string("false")) +
           ",\"primitive_conflicts\":" +
           std::to_string(stats.primitive_conflicts) +
           ",\"inherited_txn_deps\":" +
           std::to_string(stats.inherited_txn_deps) +
           ",\"stopped_inheritance\":" +
           std::to_string(stats.stopped_inheritance) +
           ",\"added_deps\":" + std::to_string(stats.added_deps) +
           ",\"unordered_conflicts\":" +
           std::to_string(stats.unordered_conflicts) + "}";
  }
};

/// Validates the recorded system `reps` times (extension already
/// applied) and keeps the fastest wall time — the numbers CI and the
/// committed BENCH_inference.json snapshot track.
SpecCell TimeValidation(TransactionSystem* ts, size_t reps) {
  SpecCell cell;
  ValidationOptions options;
  options.apply_extension = false;
  for (size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    ValidationReport report = Validator::Validate(ts, options);
    const uint64_t ns =
        uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count());
    if (rep == 0 || ns < cell.validate_ns) cell.validate_ns = ns;
    cell.oo_serializable = report.oo_serializable;
    cell.stats = report.stats;
  }
  return cell;
}

/// Records one contended open-nested run, synthesizes a matrix for
/// every registered type, and validates the same execution under the
/// hand specs and the inferred specs.
std::string RunInferenceComparison(MetricsRegistry* metrics) {
  constexpr size_t kThreads = 4;
  constexpr size_t kTxns = 60;
  static constexpr double kTheta = 0.9;
  constexpr size_t kReps = 5;

  DatabaseOptions opts;
  opts.scheduler = SchedulerKind::kOpenNested;
  opts.lock_options.wait_timeout = std::chrono::milliseconds(300);
  Database db(opts);
  db.AttachObservability(metrics, nullptr);
  ObjectId enc = CreatePreloaded(&db);
  HarnessConfig config;
  config.threads = kThreads;
  config.txns_per_thread = kTxns;
  config.metrics = metrics;
  HarnessResult run = Harness::Run(
      &db, config, SearchChangeMix(enc, kTheta, std::chrono::microseconds(0)));

  // Synthesize matrices for every registered type (Page probes; the
  // composite types delegate to their audited hand specs).
  oodb::analysis::InferenceStats istats;
  std::vector<std::unique_ptr<oodb::analysis::SynthesizedSpec>> specs;
  std::vector<const ObjectType*> types;
  for (const ObjectType* type : db.registry().Types()) {
    oodb::analysis::InferredMatrix matrix =
        oodb::analysis::InferType(type, db.registry());
    istats.Add(matrix);
    specs.push_back(std::make_unique<oodb::analysis::SynthesizedSpec>(
        std::move(matrix)));
    types.push_back(type);
  }

  // Extend once, then time both specs on the identical extended system.
  (void)Validator::Validate(&db.ts());
  SpecCell hand = TimeValidation(&db.ts(), kReps);
  for (size_t i = 0; i < types.size(); ++i) {
    db.ts().SetSpecOverride(types[i], specs[i].get());
  }
  SpecCell inferred = TimeValidation(&db.ts(), kReps);

  std::printf("--- hand spec vs inferred spec (same recorded run: %zu "
              "threads, zipf %.1f, %llu commits) ---\n",
              kThreads, kTheta, (unsigned long long)run.committed);
  std::printf("%-10s %12s %10s %10s %10s %8s %s\n", "spec", "prim.confl",
              "inherited", "stopped", "added", "val.ms", "Def16");
  for (const auto& [name, cell] :
       {std::pair<const char*, const SpecCell&>{"hand", hand},
        {"inferred", inferred}}) {
    std::printf("%-10s %12zu %10zu %10zu %10zu %8.2f %s\n", name,
                cell.stats.primitive_conflicts, cell.stats.inherited_txn_deps,
                cell.stats.stopped_inheritance, cell.stats.added_deps,
                double(cell.validate_ns) / 1e6,
                cell.oo_serializable ? "holds" : "VIOLATED");
  }
  std::printf(
      "The inferred Page matrix commutes different-key writes the hand\n"
      "reader/writer spec refuses, so the primitive conflict relation\n"
      "thins out; both verdicts must agree (soundness).\n\n");

  return "{\"workload\":{\"threads\":" + std::to_string(kThreads) +
         ",\"txns_per_thread\":" + std::to_string(kTxns) +
         ",\"zipf_theta\":" + std::to_string(kTheta) +
         ",\"committed\":" + std::to_string(run.committed) +
         "},\"hand\":" + hand.Json() +
         ",\"inferred\":" + inferred.Json() +
         ",\"inference\":{\"types\":" + std::to_string(istats.types) +
         ",\"types_probed\":" + std::to_string(istats.types_probed) +
         ",\"pairs_probed\":" + std::to_string(istats.pairs_probed) +
         ",\"probe_runs\":" + std::to_string(istats.probe_runs) +
         ",\"entries_tightened\":" +
         std::to_string(istats.entries_tightened) +
         ",\"entries_unsound\":" + std::to_string(istats.entries_unsound) +
         "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --metrics-json=PATH: accumulate every cell's runtime counters and
  // latency histogram into one registry and dump it at exit.
  // --inference-json=PATH: dump the hand-vs-inferred comparison cell.
  std::string metrics_path;
  std::string inference_path;
  FlagSet flags("s2_scheduler_throughput",
                "usage: s2_scheduler_throughput [--metrics-json=PATH] "
                "[--inference-json=PATH]\n");
  flags.String("metrics-json", &metrics_path);
  flags.String("inference-json", &inference_path);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  // ONE registry for every phase of the bench (all scheduler cells and
  // the inference comparison). A sampler attached to it sees monotone
  // counter streams across phase boundaries; per-phase registries would
  // make deltas jump backwards at each phase start (the sampler's
  // debug fold asserts counters never decrease).
  MetricsRegistry registry;
  MetricsRegistry* metrics = &registry;

  constexpr size_t kTxnsPerThread = 60;
  std::printf("S2: encyclopedia workload (50%% search / 50%% change over "
              "256 preloaded items),\n%zu txns per thread, each holding its locks ~200us\n\n",
              kTxnsPerThread);
  for (double theta : {0.0, 0.9}) {
    std::printf("--- contention: zipf theta = %.1f ---\n", theta);
    std::printf("%-18s %8s %s\n", "scheduler", "threads", "result");
    for (SchedulerKind kind :
         {SchedulerKind::kOpenNested, SchedulerKind::kClosedNested,
          SchedulerKind::kFlat2PL, SchedulerKind::kObjectExclusive}) {
      for (size_t threads : {1, 2, 4, 8}) {
        HarnessResult r =
            RunCell(kind, threads, theta, kTxnsPerThread, metrics);
        std::printf("%-18s %8zu %s\n", SchedulerKindName(kind), threads,
                    r.Row().c_str());
      }
    }
    std::printf("\n");
  }
  std::printf(
      "Shape check: open-nested >= flat-2pl >= object-exclusive in\n"
      "throughput at >1 thread; the object-exclusive strawman collapses\n"
      "(every transaction locks Enc until commit), flat 2PL suffers lock\n"
      "waits on shared pages under contention, open nested waits only on\n"
      "genuine same-key conflicts. At 1 thread the three are comparable\n"
      "(the S3 bench isolates the CC overhead).\n\n");
  const std::string inference_json = RunInferenceComparison(metrics);
  if (!inference_path.empty()) {
    Status st = WriteOut(inference_path, inference_json);
    std::printf(st.ok() ? "wrote %s\n" : "note: could not write %s\n",
                inference_path.c_str());
    if (!st.ok()) return 0;
  }
  if (!metrics_path.empty()) {
    Status st = WriteOut(metrics_path, registry.JsonSnapshot());
    std::printf(st.ok() ? "wrote %s\n" : "note: could not write %s\n",
                metrics_path.c_str());
  }
  return 0;
}
