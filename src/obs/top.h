// `oodb top`: the bottleneck inspector over a sampler time-series.
//
// Consumes the JSON-lines series a MetricsSampler exports (live, or
// replayed from a file) and renders two views:
//
//   * RenderScreen — a human "top"-style page: throughput sparkline,
//     per-phase latency breakdown with share bars, hottest lock stripes,
//     top-K hot objects, cache hit ratio, waits-for graph size;
//   * RenderReport — a machine-readable JSON report whose
//     "dominant_phase" field names the phase with the largest share of
//     root-transaction time, plus a "coverage" figure tying the phase
//     sums back to measured end-to-end latency (the acceptance check).
//
// Both renders are pure functions of the parsed series, so a committed
// series file yields byte-stable output (the golden test's contract).

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace oodb {

/// One parsed sample line (mirrors obs/sampler.h Sample).
struct SeriesSample {
  uint64_t tick = 0;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  struct Hist {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<std::pair<uint32_t, uint64_t>> buckets;
  };
  std::vector<Hist> hists;
};

/// A whole parsed series: the meta line plus every sample, in order.
struct SeriesData {
  uint64_t version = 0;
  uint64_t interval_ms = 0;
  bool logical = false;
  std::string tag;
  std::vector<SeriesSample> samples;
};

/// Parses sampler JSON lines. Rejects a missing/duplicate meta line,
/// non-contiguous ticks, and malformed JSON.
Result<SeriesData> ParseSeries(const std::string& jsonl);

struct TopOptions {
  size_t top_k = 8;          ///< hot objects / stripes shown
  size_t sparkline_width = 48;  ///< ticks folded into the sparkline
};

/// The human view of the series (or of its last `window` ticks when
/// window > 0). Deterministic for a fixed series.
std::string RenderScreen(const SeriesData& series, const TopOptions& options,
                         size_t window = 0);

/// The machine view: "oodb-top-report-v1" JSON with throughput, phase
/// shares, dominant_phase, coverage, hot objects/stripes, cache, and
/// waits-for peaks. Deterministic for a fixed series.
std::string RenderReport(const SeriesData& series, const TopOptions& options);

}  // namespace oodb
