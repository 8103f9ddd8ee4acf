// MetricsSampler: the flight recorder.
//
// A registry snapshot answers "what happened over the whole run"; the
// sampler answers "what was happening at second 3". On every tick it
// folds the registry into one Sample — counter *deltas* since the
// previous tick, gauge absolute values, and sparse per-bucket histogram
// deltas — and appends it to a bounded ring. The ring is the time
// series: export it as JSON lines (one sample per line) and feed it to
// `oodb top`, or keep it in memory as a crash-scene record of the last
// N ticks.
//
// Consistency model: bounded staleness, never stop-the-world. The
// instrumented threads only ever touch relaxed atomics, so sampling
// costs them nothing — no barrier, no pause, no lock they can block on.
// The price is that a Sample is not a point-in-time cut: the fold reads
// each metric at a slightly different instant, so a sample may see
// counter increments of a transaction whose histogram observation lands
// in the next tick. Every delta is eventually attributed exactly once
// (the property the sampler correctness test pins down): for any prefix
// of samples, sum(deltas) equals some registry state that really
// existed between tick boundaries, and after quiescence sum(deltas) ==
// the final snapshot, exactly.
//
// Probes: contention snapshots (lock-stripe occupancy, waits-for graph
// size, cache hit ratios, epoch-pipeline depth) are functions the
// owning layers register via AddProbe; the sampler runs them at the
// start of each tick so their gauges land in the same sample as the
// counter deltas. Probes may take fine-grained latches (one lock stripe
// at a time) but must never stop the world.
//
// Self-accounting: the sampler measures its own tick cost into
// SamplerStats (kept out of the registry so series exports stay free of
// observer feedback); the extended obs_overhead_smoke gates
// sum(tick_ns) against wall-time * workers at <= 1%.
//
// Threading: Start() runs one background thread ticking at the
// configured interval; SampleNow() may be called instead (or in
// addition — appends are serialized) for manual, deterministic ticks.
// The logical_clock option stamps samples with their tick index instead
// of wall time, for byte-stable series in tests.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace oodb {

struct SamplerOptions {
  /// Tick period of the background thread (Start()).
  std::chrono::milliseconds interval{10};
  /// Ring capacity: how many recent samples the recorder keeps. Older
  /// samples fall off the front (dropped_samples counts them).
  size_t ring_capacity = 8192;
  /// Stamp samples with the tick index instead of wall nanoseconds
  /// (byte-stable series for deterministic workloads).
  bool logical_clock = false;
  /// Tag carried in the series meta line.
  std::string tag;
};

/// One tick of the flight recorder. Counter and histogram entries are
/// deltas since the previous sample and omit zero rows (a quiet tick is
/// a few bytes); gauges are absolute values, all of them every tick.
struct Sample {
  uint64_t tick = 0;   ///< 1-based tick index
  uint64_t ts_ns = 0;  ///< ns since sampler creation (tick in logical mode)
  uint64_t dur_ns = 0;  ///< cost of taking this sample
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  struct HistDelta {
    std::string name;
    uint64_t count = 0;  ///< observations this tick
    uint64_t sum = 0;    ///< value sum this tick
    /// (bucket index, delta) for buckets that grew this tick; indexes
    /// follow util/histogram's hist_layout.
    std::vector<std::pair<uint32_t, uint64_t>> buckets;
  };
  std::vector<HistDelta> hists;
};

/// Cumulative self-accounting, read at any time.
struct SamplerStats {
  uint64_t ticks = 0;
  uint64_t total_tick_ns = 0;  ///< sum of Sample::dur_ns
  uint64_t max_tick_ns = 0;
  uint64_t dropped_samples = 0;   ///< fell off the ring
  uint64_t nonmonotone_counters = 0;  ///< counter decreases observed
};

class MetricsSampler {
 public:
  explicit MetricsSampler(MetricsRegistry* registry,
                          SamplerOptions options = {});
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  /// Registers a named probe run at the start of every tick (in
  /// registration order), before the registry fold, so the gauges it
  /// sets land in that tick's sample. Register before Start().
  void AddProbe(std::string name, std::function<void()> probe);

  /// Starts the background tick thread. No-op if already running.
  void Start();

  /// Stops the thread and takes one final sample, so every delta since
  /// the last tick is in the ring. No-op if not running.
  void Stop();

  /// Takes one sample right now (probes included) and appends it to the
  /// ring. Serialized against the background thread; usable with or
  /// without Start() — without, the caller owns the cadence.
  Sample SampleNow();

  /// Copy of the ring, oldest first.
  std::vector<Sample> Series() const;

  SamplerStats Stats() const;

  /// The series as JSON lines: one series-meta line, then one sample
  /// line per tick (docs/OBSERVABILITY.md "Time-series schema").
  std::string ToJsonLines() const;
  Status WriteJsonLines(const std::string& path) const;

  /// Renders one sample as its JSON line (used by ToJsonLines; exposed
  /// for streaming exporters).
  static std::string SampleJson(const Sample& sample);

 private:
  /// The fold: runs probes, diffs the registry against baselines, and
  /// appends the sample. Requires tick_mu_.
  Sample Fold();

  /// Re-enumerates the registry when its version changed, carrying
  /// existing baselines over. Requires tick_mu_.
  void RefreshRefs();

  MetricsRegistry* const registry_;
  const SamplerOptions options_;
  const std::chrono::steady_clock::time_point start_;

  /// Serializes ticks (background thread vs SampleNow callers).
  mutable std::mutex tick_mu_;
  std::vector<std::pair<std::string, std::function<void()>>> probes_;
  uint64_t seen_version_ = 0;
  bool enumerated_ = false;
  MetricsRegistry::MetricRefs refs_;
  /// Previous-tick baselines, index-aligned with refs_.
  std::vector<uint64_t> counter_base_;
  std::vector<HistogramSnapshot> hist_base_;
  uint64_t tick_count_ = 0;

  /// The ring and self-stats, under their own mutex so readers
  /// (Series/ToJsonLines) never block a fold longer than one append.
  mutable std::mutex ring_mu_;
  std::deque<Sample> ring_;
  SamplerStats stats_;

  /// Background thread plumbing.
  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_;
  bool running_ = false;
  bool stop_requested_ = false;
};

}  // namespace oodb
