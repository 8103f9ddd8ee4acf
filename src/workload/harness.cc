#include "workload/harness.h"

#include <cstdio>
#include <thread>
#include <vector>

#include "util/stopwatch.h"

namespace oodb {

std::string HarnessResult::Row() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tps=%9.0f commit=%7llu abort=%6llu deadlock=%6llu "
                "waits=%7llu ops=%9llu p50us=%6llu p99us=%7llu",
                Throughput(), (unsigned long long)committed,
                (unsigned long long)aborted, (unsigned long long)deadlocks,
                (unsigned long long)lock_waits,
                (unsigned long long)operations,
                (unsigned long long)(latency_ns.Quantile(0.5) / 1000),
                (unsigned long long)(latency_ns.Quantile(0.99) / 1000));
  return buf;
}

HarnessResult Harness::Run(Database* db, const HarnessConfig& config,
                           const TxnFactory& factory) {
  db->counters().Reset();
  uint64_t waits_before = db->locks().wait_count();

  // One shared thread-safe histogram replaces the old per-thread
  // Histogram-and-Merge dance; the registry's copy (when attached)
  // additionally accumulates across runs for the exported snapshot.
  HistogramMetric latency;
  HistogramMetric* registry_latency =
      config.metrics != nullptr
          ? config.metrics->GetHistogram("harness.latency_ns")
          : nullptr;
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  Stopwatch clock;
  for (size_t t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < config.txns_per_thread; ++i) {
        TransactionBody body = factory(t, i);
        Stopwatch txn_clock;
        // Errors are already counted by the database; the harness just
        // keeps going.
        (void)db->RunTransaction(
            "W" + std::to_string(t) + "_" + std::to_string(i), body);
        uint64_t ns = txn_clock.ElapsedNanos();
        latency.Observe(ns);
        if (registry_latency != nullptr) registry_latency->Observe(ns);
      }
    });
  }
  for (auto& w : workers) w.join();

  HarnessResult result;
  result.seconds = clock.ElapsedSeconds();
  result.committed = db->counters().committed.load();
  result.aborted = db->counters().aborted.load();
  result.deadlocks = db->counters().deadlocks.load();
  result.operations = db->counters().operations.load();
  result.lock_waits = db->locks().wait_count() - waits_before;
  result.latency_ns = latency.Snapshot();
  return result;
}

}  // namespace oodb
