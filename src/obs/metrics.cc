#include "obs/metrics.h"

#include <cstdio>
#include <sstream>

#include "util/json.h"

namespace oodb {

namespace {

/// Relaxed CAS fold toward a minimum / maximum.
void AtomicMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value < cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (value > cur &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string HistogramSnapshot::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%llu p95=%llu p99=%llu max=%llu",
                static_cast<unsigned long long>(count_), Mean(),
                static_cast<unsigned long long>(Quantile(0.50)),
                static_cast<unsigned long long>(Quantile(0.95)),
                static_cast<unsigned long long>(Quantile(0.99)),
                static_cast<unsigned long long>(max()));
  return buf;
}

HistogramMetric::HistogramMetric() : buckets_(hist_layout::kBucketCount) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void HistogramMetric::Observe(uint64_t value) {
  buckets_[hist_layout::BucketFor(value)].fetch_add(
      1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

HistogramSnapshot HistogramMetric::Snapshot() const {
  // The count is the bucket total of this very read, so a snapshot
  // taken while Observe calls are in flight still has buckets summing
  // exactly to its count (the sampler's series schema requires it).
  HistogramSnapshot snap;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    snap.buckets_[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count_ += snap.buckets_[i];
  }
  snap.sum_ = sum_.load(std::memory_order_relaxed);
  snap.min_ = min_.load(std::memory_order_relaxed);
  snap.max_ = max_.load(std::memory_order_relaxed);
  return snap;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
    version_.fetch_add(1, std::memory_order_release);
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
    version_.fetch_add(1, std::memory_order_release);
  }
  return slot.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<HistogramMetric>();
    version_.fetch_add(1, std::memory_order_release);
  }
  return slot.get();
}

MetricsRegistry::MetricRefs MetricsRegistry::Enumerate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricRefs refs;
  refs.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    refs.counters.emplace_back(name, counter.get());
  }
  refs.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    refs.gauges.emplace_back(name, gauge.get());
  }
  refs.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    refs.histograms.emplace_back(name, histogram.get());
  }
  return refs;
}

std::string MetricsRegistry::TextSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    os << name << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << name << " " << gauge->Value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    os << name << " " << histogram->Snapshot().Summary() << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << counter->Value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << gauge->Value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap = histogram->Snapshot();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %llu, \"sum\": %llu, \"mean\": %.1f, "
                  "\"min\": %llu, \"max\": %llu, \"p50\": %llu, "
                  "\"p95\": %llu, \"p99\": %llu}",
                  static_cast<unsigned long long>(snap.count()),
                  static_cast<unsigned long long>(snap.sum()), snap.Mean(),
                  static_cast<unsigned long long>(snap.min()),
                  static_cast<unsigned long long>(snap.max()),
                  static_cast<unsigned long long>(snap.Quantile(0.50)),
                  static_cast<unsigned long long>(snap.Quantile(0.95)),
                  static_cast<unsigned long long>(snap.Quantile(0.99)));
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << buf;
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace oodb
