#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "util/histogram.h"
#include "util/json.h"

namespace oodb {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
}

TEST(HistogramMetricTest, SnapshotStatistics) {
  HistogramMetric h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 1000u);
  EXPECT_EQ(snap.min(), 1u);
  EXPECT_EQ(snap.max(), 1000u);
  EXPECT_NEAR(snap.Mean(), 500.5, 0.001);
  // Log-bucketed quantiles: within one octave sub-bucket of the truth.
  EXPECT_GE(snap.Quantile(0.5), 400u);
  EXPECT_LE(snap.Quantile(0.5), 640u);
  EXPECT_GE(snap.Quantile(0.99), 900u);
}

TEST(HistogramMetricTest, MatchesUtilHistogramLayout) {
  // Both histogram types share hist_layout, so identical inputs produce
  // identical quantiles.
  HistogramMetric metric;
  Histogram plain;
  for (uint64_t v : {3u, 17u, 129u, 4096u, 70000u, 70000u, 1u << 20}) {
    metric.Observe(v);
    plain.Add(v);
  }
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(metric.Snapshot().Quantile(q), plain.Quantile(q)) << q;
  }
}

TEST(HistogramMetricTest, SnapshotBucketsSumToCountDuringObserves) {
  // A snapshot taken while other threads observe must still be
  // internally consistent: the sampler's series schema requires every
  // tick's bucket deltas to sum exactly to its count delta.
  HistogramMetric h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&h, &stop, w] {
      for (uint64_t v = 0; !stop.load(std::memory_order_relaxed); ++v) {
        h.Observe((v * 7919 + uint64_t(w)) % 100000);
      }
    });
  }
  size_t inconsistent = 0;
  for (int i = 0; i < 5000; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    uint64_t total = 0;
    for (uint64_t b : snap.buckets()) total += b;
    if (total != snap.count()) ++inconsistent;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(inconsistent, 0u);
}

TEST(MetricsRegistryTest, LazyCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x.count");
  Counter* b = registry.GetCounter("x.count");
  EXPECT_EQ(a, b);
  a->Increment(5);
  EXPECT_EQ(registry.GetCounter("x.count")->Value(), 5u);
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x.count")),
            static_cast<void*>(a));  // separate namespaces per kind
}

TEST(MetricsRegistryTest, TextSnapshotSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Increment(3);
  registry.GetCounter("a.first")->Increment(1);
  registry.SetGauge("m.middle", -7);
  registry.GetHistogram("h.lat")->Observe(100);
  std::string text = registry.TextSnapshot();
  size_t a = text.find("a.first");
  size_t z = text.find("z.last");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
  EXPECT_NE(text.find("m.middle -7"), std::string::npos);
  EXPECT_NE(text.find("h.lat"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotShape) {
  MetricsRegistry registry;
  registry.GetCounter("c.one")->Increment(11);
  registry.SetGauge("g.two", 22);
  registry.GetHistogram("h.three")->Observe(33);
  std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.one\": 11"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.two\": 22"), std::string::npos) << json;
  EXPECT_NE(json.find("\"h.three\": {\"count\": 1"), std::string::npos)
      << json;
}

TEST(MetricsRegistryTest, JsonSnapshotEscapesNames) {
  MetricsRegistry registry;
  registry.GetCounter("a\"b\\c")->Increment(4);
  registry.SetGauge("line\nbreak", -5);
  registry.GetHistogram("h\"q")->Observe(6);
  const std::string json = registry.JsonSnapshot();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc)) << json;
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr) << json;
  const JsonValue* counter = counters->Find("a\"b\\c");
  ASSERT_NE(counter, nullptr) << json;
  EXPECT_EQ(counter->u, 4u);
  const JsonValue* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr) << json;
  const JsonValue* gauge = gauges->Find("line\nbreak");
  ASSERT_NE(gauge, nullptr) << json;
  EXPECT_EQ(gauge->i, -5);
  const JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr) << json;
  EXPECT_NE(histograms->Find("h\"q"), nullptr) << json;
}

TEST(MetricsRegistryTest, JsonSnapshotDeterministic) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("b")->Increment(2);
    registry.GetCounter("a")->Increment(1);
    registry.SetGauge("g", 3);
    registry.GetHistogram("h")->Observe(5);
    return registry.JsonSnapshot();
  };
  EXPECT_EQ(build(), build());
}

// The TSan target: many threads hammering one registry — lazy creation
// races, counter/gauge/histogram writes, and concurrent snapshot reads
// all at once.
TEST(MetricsRegistryTest, ConcurrentHammerFromThreads) {
  MetricsRegistry registry;
  constexpr int kWorkers = 8;
  constexpr int kPerWorker = 5000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&registry, w] {
      // Every worker creates-or-gets the same names: first-use races.
      Counter* hits = registry.GetCounter("hammer.hits");
      HistogramMetric* lat = registry.GetHistogram("hammer.lat");
      Gauge* last = registry.GetGauge("hammer.last");
      for (int i = 0; i < kPerWorker; ++i) {
        hits->Increment();
        lat->Observe(uint64_t(w * kPerWorker + i));
        last->Set(i);
        if (i % 1000 == 0) {
          // Concurrent export must be memory-safe mid-traffic.
          (void)registry.TextSnapshot();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(registry.GetCounter("hammer.hits")->Value(),
            uint64_t(kWorkers) * kPerWorker);
  HistogramSnapshot snap = registry.GetHistogram("hammer.lat")->Snapshot();
  EXPECT_EQ(snap.count(), uint64_t(kWorkers) * kPerWorker);
  EXPECT_EQ(snap.min(), 0u);
  EXPECT_EQ(snap.max(), uint64_t(kWorkers) * kPerWorker - 1);
}

}  // namespace
}  // namespace oodb
