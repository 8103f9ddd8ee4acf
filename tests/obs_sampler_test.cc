// The flight recorder's core contract (obs/sampler.h): every delta is
// attributed exactly once. After quiescence, the sum of ring deltas —
// counters, histogram counts, sums, and per-bucket occupancy — equals
// the final registry snapshot exactly, even when the samples were taken
// concurrently with the mutating threads. Run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cc/database.h"
#include "containers/escrow.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/top.h"

namespace oodb {
namespace {

/// Sums every counter delta in `samples` by name.
std::map<std::string, uint64_t> SumCounters(
    const std::vector<Sample>& samples) {
  std::map<std::string, uint64_t> sums;
  for (const Sample& s : samples) {
    for (const auto& [name, delta] : s.counters) sums[name] += delta;
  }
  return sums;
}

struct HistSums {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::map<uint32_t, uint64_t> buckets;
};

std::map<std::string, HistSums> SumHists(const std::vector<Sample>& samples) {
  std::map<std::string, HistSums> sums;
  for (const Sample& s : samples) {
    for (const auto& h : s.hists) {
      HistSums& slot = sums[h.name];
      slot.count += h.count;
      slot.sum += h.sum;
      for (const auto& [bucket, delta] : h.buckets) {
        slot.buckets[bucket] += delta;
      }
    }
  }
  return sums;
}

TEST(SamplerTest, DeltaSumEqualsFinalSnapshotUnderConcurrentMutation) {
  MetricsRegistry registry;
  SamplerOptions options;
  options.logical_clock = true;
  MetricsSampler sampler(&registry, options);

  constexpr size_t kThreads = 4;
  constexpr size_t kIters = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      Counter* mine = registry.GetCounter("c.thread" + std::to_string(t));
      Counter* shared = registry.GetCounter("c.shared");
      HistogramMetric* hist = registry.GetHistogram("h.values");
      Gauge* gauge = registry.GetGauge("g.level");
      for (size_t i = 0; i < kIters; ++i) {
        mine->Increment();
        shared->Increment(2);
        hist->Observe((t * kIters + i) % 100'000);
        gauge->Set(int64_t(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Sample concurrently with the mutators — the property must hold no
  // matter where the tick boundaries land.
  for (int tick = 0; tick < 50; ++tick) {
    sampler.SampleNow();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& w : workers) w.join();
  sampler.SampleNow();  // quiescent: collects every remaining delta

  const std::vector<Sample> series = sampler.Series();
  const auto counter_sums = SumCounters(series);
  EXPECT_EQ(counter_sums.at("c.shared"), 2 * kThreads * kIters);
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counter_sums.at("c.thread" + std::to_string(t)), kIters);
  }

  const auto hist_sums = SumHists(series);
  const HistogramSnapshot final = registry.GetHistogram("h.values")->Snapshot();
  const HistSums& h = hist_sums.at("h.values");
  EXPECT_EQ(h.count, final.count());
  EXPECT_EQ(h.count, kThreads * kIters);
  EXPECT_EQ(h.sum, final.sum());
  // Bucket-level exactness: the sparse deltas rebuild the full final
  // occupancy vector.
  for (size_t b = 0; b < final.buckets().size(); ++b) {
    auto it = h.buckets.find(uint32_t(b));
    const uint64_t summed = it == h.buckets.end() ? 0 : it->second;
    EXPECT_EQ(summed, final.buckets()[b]) << "bucket " << b;
  }

  // The last sample's gauge value is the final registry value.
  ASSERT_FALSE(series.empty());
  int64_t last_gauge = -1;
  for (const auto& [name, value] : series.back().gauges) {
    if (name == "g.level") last_gauge = value;
  }
  EXPECT_EQ(last_gauge, registry.GetGauge("g.level")->Value());

  EXPECT_EQ(sampler.Stats().nonmonotone_counters, 0u);
  EXPECT_EQ(sampler.Stats().dropped_samples, 0u);
}

TEST(SamplerTest, BackgroundThreadPreservesDeltaSum) {
  MetricsRegistry registry;
  SamplerOptions options;
  options.interval = std::chrono::milliseconds(2);
  MetricsSampler sampler(&registry, options);
  sampler.Start();

  Counter* c = registry.GetCounter("c.bg");
  for (size_t i = 0; i < 50'000; ++i) {
    c->Increment();
    if (i % 10'000 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  sampler.Stop();  // takes the final sample

  EXPECT_EQ(SumCounters(sampler.Series()).at("c.bg"), 50'000u);
  EXPECT_GT(sampler.Stats().ticks, 1u);
}

TEST(SamplerTest, MetricsRegisteredMidFlightGetBaselineZero) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, SamplerOptions{});

  registry.GetCounter("c.early")->Increment(5);
  sampler.SampleNow();
  registry.GetCounter("c.early")->Increment(1);
  registry.GetCounter("c.late")->Increment(7);  // registered after tick 1
  sampler.SampleNow();

  const auto sums = SumCounters(sampler.Series());
  EXPECT_EQ(sums.at("c.early"), 6u);
  EXPECT_EQ(sums.at("c.late"), 7u);
}

TEST(SamplerTest, LogicalClockStampsTickIndex) {
  MetricsRegistry registry;
  SamplerOptions options;
  options.logical_clock = true;
  MetricsSampler sampler(&registry, options);
  sampler.SampleNow();
  sampler.SampleNow();
  const std::vector<Sample> series = sampler.Series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].tick, 1u);
  EXPECT_EQ(series[0].ts_ns, 1u);
  EXPECT_EQ(series[1].ts_ns, 2u);
}

TEST(SamplerTest, RingCapacityEvictsOldestAndCounts) {
  MetricsRegistry registry;
  SamplerOptions options;
  options.ring_capacity = 3;
  MetricsSampler sampler(&registry, options);
  for (int i = 0; i < 5; ++i) sampler.SampleNow();
  const std::vector<Sample> series = sampler.Series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series.front().tick, 3u);  // ticks 1 and 2 fell off
  EXPECT_EQ(series.back().tick, 5u);
  EXPECT_EQ(sampler.Stats().dropped_samples, 2u);
}

TEST(SamplerTest, JsonLinesRoundTripThroughParseSeries) {
  MetricsRegistry registry;
  SamplerOptions options;
  options.logical_clock = true;
  options.tag = "round-trip";
  MetricsSampler sampler(&registry, options);

  registry.GetCounter("c.a")->Increment(3);
  registry.GetHistogram("h.x")->Observe(1000);
  registry.GetGauge("g.y")->Set(-4);
  sampler.SampleNow();
  registry.GetCounter("c.a")->Increment(2);
  registry.GetHistogram("h.x")->Observe(2000);
  sampler.SampleNow();

  Result<SeriesData> parsed = ParseSeries(sampler.ToJsonLines());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, 1u);
  EXPECT_TRUE(parsed->logical);
  EXPECT_EQ(parsed->tag, "round-trip");
  ASSERT_EQ(parsed->samples.size(), 2u);

  uint64_t counter_total = 0;
  uint64_t hist_count = 0;
  uint64_t hist_sum = 0;
  for (const SeriesSample& s : parsed->samples) {
    for (const auto& [name, delta] : s.counters) {
      if (name == "c.a") counter_total += delta;
    }
    for (const auto& h : s.hists) {
      if (h.name == "h.x") {
        hist_count += h.count;
        hist_sum += h.sum;
      }
    }
  }
  EXPECT_EQ(counter_total, 5u);
  EXPECT_EQ(hist_count, 2u);
  EXPECT_EQ(hist_sum, 3000u);
  int64_t gauge = 0;
  for (const auto& [name, value] : parsed->samples.back().gauges) {
    if (name == "g.y") gauge = value;
  }
  EXPECT_EQ(gauge, -4);
}

TEST(SamplerTest, ParseSeriesRejectsMalformedInput) {
  EXPECT_FALSE(ParseSeries("").ok());
  EXPECT_FALSE(ParseSeries("{\"type\":\"sample\",\"tick\":1}\n").ok());
  const std::string meta =
      "{\"type\":\"series-meta\",\"version\":1,\"interval_ms\":10,"
      "\"logical\":true,\"tag\":\"t\"}\n";
  EXPECT_TRUE(ParseSeries(meta).ok());
  EXPECT_FALSE(ParseSeries(meta + meta).ok());  // duplicate meta
  EXPECT_FALSE(ParseSeries(meta + "not json\n").ok());
  // Non-contiguous ticks: 1 then 3.
  EXPECT_FALSE(
      ParseSeries(meta + "{\"type\":\"sample\",\"tick\":1,\"ts_ns\":1,"
                         "\"dur_ns\":0,\"counters\":{},\"gauges\":{},"
                         "\"hists\":{}}\n"
                         "{\"type\":\"sample\",\"tick\":3,\"ts_ns\":3,"
                         "\"dur_ns\":0,\"counters\":{},\"gauges\":{},"
                         "\"hists\":{}}\n")
          .ok());
  // Unsupported version.
  EXPECT_FALSE(
      ParseSeries("{\"type\":\"series-meta\",\"version\":2}\n").ok());
}

TEST(SamplerTest, ProbesRunEveryTickBeforeTheFold) {
  MetricsRegistry registry;
  MetricsSampler sampler(&registry, SamplerOptions{});
  int calls = 0;
  sampler.AddProbe("test", [&registry, &calls] {
    ++calls;
    registry.GetGauge("g.probe")->Set(calls);
  });
  sampler.SampleNow();
  sampler.SampleNow();
  EXPECT_EQ(calls, 2);
  // The probe's gauge write lands in the same tick's sample.
  const std::vector<Sample> series = sampler.Series();
  int64_t first = 0;
  for (const auto& [name, value] : series.front().gauges) {
    if (name == "g.probe") first = value;
  }
  EXPECT_EQ(first, 1);
}

TEST(SamplerTest, EpochBatchedDatabaseProbesTrackEpochsAndCommits) {
  // The runtime's probes on the sharded path: 4 shards, epoch-batched
  // history, a flusher advancing epochs while workers commit and the
  // sampler ticks in the background.
  DatabaseOptions db_options;
  db_options.shards = 4;
  db_options.history = HistoryMode::kEpochBatched;
  Database db(db_options);
  MetricsRegistry registry;
  db.AttachObservability(&registry, nullptr);
  RegisterAccountMethods(&db, RWAccountType());
  std::vector<ObjectId> accounts;
  for (int i = 0; i < 8; ++i) {
    accounts.push_back(
        CreateAccount(&db, RWAccountType(), "A" + std::to_string(i), 100));
  }

  SamplerOptions options;
  options.interval = std::chrono::milliseconds(1);
  MetricsSampler sampler(&registry, options);
  db.InstallSamplerProbes(&sampler);
  sampler.Start();

  std::atomic<bool> stop{false};
  std::thread flusher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      db.AdvanceEpoch();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    db.AdvanceEpoch();
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const ObjectId account = accounts[(t + i) % accounts.size()];
        (void)db.RunTransaction("W", [&](MethodContext& txn) {
          return txn.Call(account, Invocation("deposit", {Value(1)}));
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  flusher.join();
  sampler.Stop();

  const std::vector<Sample> series = sampler.Series();
  ASSERT_FALSE(series.empty());
  int64_t last_epoch = 0;
  for (const Sample& s : series) {
    std::map<std::string, int64_t> gauges(s.gauges.begin(), s.gauges.end());
    ASSERT_EQ(gauges.count("epoch.number"), 1u) << "tick " << s.tick;
    ASSERT_EQ(gauges.count("epoch.pending"), 1u) << "tick " << s.tick;
    EXPECT_GE(gauges["epoch.number"], last_epoch) << "tick " << s.tick;
    last_epoch = gauges["epoch.number"];
  }
  EXPECT_GT(last_epoch, 0);
  const uint64_t committed = db.counters().committed.load();
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(SumCounters(series)["db.txn.committed"], committed);
}

}  // namespace
}  // namespace oodb
