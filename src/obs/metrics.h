// MetricsRegistry: the one reporting surface of the runtime and the
// analysis pipeline.
//
// The registry owns named counters (monotonic), gauges (set/add), and
// fixed-bucket histograms (the hist_layout of util/histogram, so every
// latency distribution in the repository shares one set of bucket
// boundaries). Lookup by name takes a mutex; instrumented code looks a
// metric up once, caches the pointer, and then increments lock-free —
// one relaxed atomic RMW per event, which is the whole cost of an
// attached registry. With no registry attached the instrumented layers
// skip even that (a null-pointer test), so the disabled path is close
// to free; the obs_overhead_smoke binary asserts the bound.
//
// Snapshots (text and JSON) iterate names in sorted order, so exports
// are deterministic given deterministic metric values.
//
// Metric names are part of the repository's stable surface, like
// `oodb lint`'s diagnostic vocabulary: once shipped in a release, a name
// keeps its meaning (see docs/OBSERVABILITY.md for the catalog).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace oodb {

/// A monotonically increasing counter. Thread-safe; increments are one
/// relaxed fetch_add.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A last-value-wins gauge. Thread-safe.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// An immutable copy of a histogram's state, with the derived
/// statistics. What snapshots and the harness report from.
class HistogramSnapshot {
 public:
  HistogramSnapshot() : buckets_(hist_layout::kBucketCount, 0) {}

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  /// Per-bucket occupancy in the shared hist_layout. The sampler diffs
  /// consecutive snapshots bucket-by-bucket to export sparse deltas.
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  double Mean() const { return count_ == 0 ? 0.0 : double(sum_) / double(count_); }
  uint64_t Quantile(double q) const {
    return hist_layout::Quantile(buckets_.data(), count_, max_, q);
  }
  /// "count=... mean=... p50=... p95=... p99=... max=..."
  std::string Summary() const;

 private:
  friend class HistogramMetric;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// A thread-safe histogram in the shared hist_layout. Observation is
/// lock-free (relaxed atomics per bucket); min/max converge via CAS
/// loops. Use util::Histogram instead when single-threaded.
class HistogramMetric {
 public:
  HistogramMetric();

  void Observe(uint64_t value);
  HistogramSnapshot Snapshot() const;

 private:
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Named metrics with deterministic export. Get* registers on first use
/// and returns a pointer stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// A stable view of every registered metric, sorted by name. The
  /// pointers live as long as the registry, so a sampler enumerates
  /// once and re-reads lock-free until Version() changes.
  struct MetricRefs {
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const HistogramMetric*>> histograms;
  };
  MetricRefs Enumerate() const;

  /// Bumped whenever a name registers a new metric; unchanged Version()
  /// means a previously Enumerate()d MetricRefs is still complete.
  uint64_t Version() const { return version_.load(std::memory_order_acquire); }

  /// Convenience for publishing one-shot statistics structs.
  void SetGauge(const std::string& name, int64_t value) {
    GetGauge(name)->Set(value);
  }

  /// "name value" / "name count=... p50=..." lines, sorted by name.
  std::string TextSnapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with names
  /// sorted; histograms export count/sum/min/max/mean and p50/p95/p99.
  std::string JsonSnapshot() const;

 private:
  mutable std::mutex mutex_;
  std::atomic<uint64_t> version_{0};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace oodb
