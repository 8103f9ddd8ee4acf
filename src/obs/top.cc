#include "obs/top.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/phases.h"
#include "util/histogram.h"
#include "util/json.h"

namespace oodb {

namespace {

// --- aggregation -------------------------------------------------------

/// Everything the renderers need, folded once over the series.
struct Aggregate {
  uint64_t ticks = 0;
  uint64_t first_ts = 0;
  uint64_t last_ts = 0;
  uint64_t sampler_ns = 0;  ///< sum of dur_ns (self-cost)
  std::map<std::string, uint64_t> counters;  ///< summed deltas
  std::map<std::string, int64_t> last_gauges;
  std::map<std::string, int64_t> max_gauges;
  struct Hist {
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> buckets;
    Hist() : buckets(hist_layout::kBucketCount, 0) {}
    uint64_t Quantile(double q) const {
      // The series carries no per-hist max; the top bucket's upper
      // bound is the tightest bound the deltas preserve.
      uint64_t max_bound = 0;
      for (size_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b] != 0) max_bound = hist_layout::BucketUpperBound(b);
      }
      return hist_layout::Quantile(buckets.data(), count, max_bound, q);
    }
  };
  std::map<std::string, Hist> hists;
  /// committed-per-tick, for the sparkline.
  std::vector<uint64_t> committed_per_tick;
};

Aggregate Fold(const SeriesData& series, size_t window) {
  Aggregate agg;
  size_t begin = 0;
  if (window > 0 && series.samples.size() > window) {
    begin = series.samples.size() - window;
  }
  for (size_t idx = begin; idx < series.samples.size(); ++idx) {
    const SeriesSample& s = series.samples[idx];
    if (agg.ticks == 0) agg.first_ts = s.ts_ns;
    agg.last_ts = s.ts_ns;
    ++agg.ticks;
    agg.sampler_ns += s.dur_ns;
    uint64_t committed = 0;
    for (const auto& [name, delta] : s.counters) {
      agg.counters[name] += delta;
      if (name == "db.txn.committed") committed = delta;
    }
    agg.committed_per_tick.push_back(committed);
    for (const auto& [name, value] : s.gauges) {
      agg.last_gauges[name] = value;
      auto [it, inserted] = agg.max_gauges.emplace(name, value);
      if (!inserted && value > it->second) it->second = value;
    }
    for (const auto& hist : s.hists) {
      Aggregate::Hist& slot = agg.hists[hist.name];
      slot.count += hist.count;
      slot.sum += hist.sum;
      for (const auto& [bucket, delta] : hist.buckets) {
        if (bucket < slot.buckets.size()) slot.buckets[bucket] += delta;
      }
    }
  }
  return agg;
}

/// Wall seconds covered by the aggregate (0 in logical mode, where
/// ts_ns is the tick index).
double WallSeconds(const SeriesData& series, const Aggregate& agg) {
  if (series.logical || agg.ticks < 2) return 0;
  return double(agg.last_ts - agg.first_ts) / 1e9;
}

struct PhaseRow {
  std::string name;    ///< taxonomy name ("lock-wait")
  uint64_t sum = 0;
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  double share = 0;    ///< of the six-phase total
};

/// The six phases in taxonomy order, plus the end-to-end total row.
/// Empty when the series carries no phase histograms.
std::vector<PhaseRow> PhaseRows(const Aggregate& agg, uint64_t* total_sum,
                                uint64_t* e2e_sum, uint64_t* e2e_count) {
  *total_sum = 0;
  *e2e_sum = 0;
  *e2e_count = 0;
  std::vector<PhaseRow> rows;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    auto it = agg.hists.find(std::string("phase.") + PhaseSuffix(phase) +
                             "_ns");
    if (it == agg.hists.end()) continue;
    PhaseRow row;
    row.name = PhaseName(phase);
    row.sum = it->second.sum;
    row.count = it->second.count;
    row.p50 = it->second.Quantile(0.50);
    row.p99 = it->second.Quantile(0.99);
    rows.push_back(std::move(row));
    *total_sum += it->second.sum;
  }
  auto total = agg.hists.find("phase.total_ns");
  if (total != agg.hists.end()) {
    *e2e_sum = total->second.sum;
    *e2e_count = total->second.count;
  }
  for (PhaseRow& row : rows) {
    row.share = *total_sum > 0 ? double(row.sum) / double(*total_sum) : 0;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const PhaseRow& a, const PhaseRow& b) {
                     return a.sum > b.sum;
                   });
  return rows;
}

struct StripeRow {
  size_t stripe = 0;
  int64_t held = 0;
  int64_t waiters = 0;
  int64_t waits = 0;
  int64_t wait_ns = 0;
};

std::vector<StripeRow> StripeRows(const Aggregate& agg) {
  std::vector<StripeRow> rows;
  for (const auto& [name, value] : agg.last_gauges) {
    // lock.stripe.<i>.held anchors one row; siblings join it.
    const char* prefix = "lock.stripe.";
    if (name.rfind(prefix, 0) != 0) continue;
    const size_t dot = name.find('.', std::strlen(prefix));
    if (dot == std::string::npos ||
        name.compare(dot, std::string::npos, ".held") != 0) {
      continue;
    }
    StripeRow row;
    row.stripe = std::strtoul(name.c_str() + std::strlen(prefix), nullptr, 10);
    const std::string base = name.substr(0, dot);
    row.held = value;
    auto get = [&agg](const std::string& n) {
      auto it = agg.last_gauges.find(n);
      return it == agg.last_gauges.end() ? int64_t{0} : it->second;
    };
    row.waiters = get(base + ".waiters");
    row.waits = get(base + ".waits");
    row.wait_ns = get(base + ".wait_ns");
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const StripeRow& a, const StripeRow& b) {
              return a.stripe < b.stripe;
            });
  return rows;
}

struct HotRow {
  int64_t id = -1;
  int64_t waits = 0;
};

std::vector<HotRow> HotRows(const Aggregate& agg, size_t top_k) {
  std::vector<HotRow> rows;
  for (size_t k = 0; k < top_k; ++k) {
    const std::string base = "lock.hot." + std::to_string(k);
    auto id = agg.last_gauges.find(base + ".id");
    auto waits = agg.last_gauges.find(base + ".waits");
    if (id == agg.last_gauges.end() || waits == agg.last_gauges.end()) break;
    if (id->second < 0) break;
    rows.push_back(HotRow{id->second, waits->second});
  }
  return rows;
}

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 10'000'000'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fs", double(ns) / 1e9);
  } else if (ns >= 10'000'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fms", double(ns) / 1e6);
  } else if (ns >= 10'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fus", double(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

std::string Bar(double share, size_t width) {
  const size_t fill =
      share <= 0 ? 0 : static_cast<size_t>(share * double(width) + 0.5);
  std::string bar(std::min(fill, width), '#');
  bar.resize(width, '.');
  return bar;
}

std::string Sparkline(const std::vector<uint64_t>& values, size_t width) {
  if (values.empty()) return std::string(width, ' ');
  // Fold ticks into `width` columns (mean per column), then map each
  // column onto a 8-step ASCII ramp against the series max.
  static const char kRamp[] = " .:-=+*#%@";
  const size_t steps = sizeof(kRamp) - 2;
  std::vector<double> columns(std::min(width, values.size()), 0);
  const double per = double(values.size()) / double(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    const size_t lo = static_cast<size_t>(c * per);
    size_t hi = static_cast<size_t>((c + 1) * per);
    if (hi <= lo) hi = lo + 1;
    double sum = 0;
    for (size_t i = lo; i < hi && i < values.size(); ++i) sum += values[i];
    columns[c] = sum / double(hi - lo);
  }
  double max = 0;
  for (double v : columns) max = std::max(max, v);
  std::string out;
  out.reserve(columns.size());
  for (double v : columns) {
    const size_t step =
        max <= 0 ? 0
                 : static_cast<size_t>(v / max * double(steps) + 0.5);
    out.push_back(kRamp[std::min(step, steps)]);
  }
  return out;
}

uint64_t CounterOf(const Aggregate& agg, const char* name) {
  auto it = agg.counters.find(name);
  return it == agg.counters.end() ? 0 : it->second;
}

/// storage.cache.{hits,misses} over the window: summed counter deltas,
/// or the last gauge value older series published; -1 when absent.
int64_t CacheTally(const Aggregate& agg, const char* name) {
  auto cit = agg.counters.find(name);
  if (cit != agg.counters.end()) return static_cast<int64_t>(cit->second);
  auto git = agg.last_gauges.find(name);
  return git == agg.last_gauges.end() ? -1 : git->second;
}

int64_t MaxGauge(const Aggregate& agg, const char* name) {
  auto it = agg.max_gauges.find(name);
  return it == agg.max_gauges.end() ? 0 : it->second;
}

}  // namespace

Result<SeriesData> ParseSeries(const std::string& jsonl) {
  SeriesData series;
  bool saw_meta = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < jsonl.size()) {
    size_t eol = jsonl.find('\n', pos);
    if (eol == std::string::npos) eol = jsonl.size();
    const std::string line = jsonl.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    JsonValue root;
    if (!ParseJson(line, &root) || root.type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("series line " +
                                     std::to_string(line_no) +
                                     ": malformed JSON");
    }
    const JsonValue* type = root.Find("type");
    if (type == nullptr || type->type != JsonValue::Type::kString) {
      return Status::InvalidArgument("series line " +
                                     std::to_string(line_no) +
                                     ": missing \"type\"");
    }
    if (type->str == "series-meta") {
      if (saw_meta) {
        return Status::InvalidArgument("series line " +
                                       std::to_string(line_no) +
                                       ": duplicate series-meta");
      }
      saw_meta = true;
      if (const JsonValue* v = root.Find("version")) series.version = v->u;
      if (const JsonValue* v = root.Find("interval_ms")) {
        series.interval_ms = v->u;
      }
      if (const JsonValue* v = root.Find("logical")) series.logical = v->b;
      if (const JsonValue* v = root.Find("tag")) series.tag = v->str;
      if (series.version != 1) {
        return Status::InvalidArgument(
            "unsupported series version " + std::to_string(series.version));
      }
      continue;
    }
    if (type->str != "sample") {
      return Status::InvalidArgument("series line " +
                                     std::to_string(line_no) +
                                     ": unknown type \"" + type->str + "\"");
    }
    if (!saw_meta) {
      return Status::InvalidArgument(
          "series must start with a series-meta line");
    }
    SeriesSample sample;
    if (const JsonValue* v = root.Find("tick")) sample.tick = v->u;
    if (const JsonValue* v = root.Find("ts_ns")) sample.ts_ns = v->u;
    if (const JsonValue* v = root.Find("dur_ns")) sample.dur_ns = v->u;
    if (const JsonValue* counters = root.Find("counters")) {
      for (const auto& [name, value] : counters->obj) {
        sample.counters.emplace_back(name, value.u);
      }
    }
    if (const JsonValue* gauges = root.Find("gauges")) {
      for (const auto& [name, value] : gauges->obj) {
        sample.gauges.emplace_back(name, value.i);
      }
    }
    if (const JsonValue* hists = root.Find("hists")) {
      for (const auto& [name, value] : hists->obj) {
        SeriesSample::Hist hist;
        hist.name = name;
        if (const JsonValue* v = value.Find("count")) hist.count = v->u;
        if (const JsonValue* v = value.Find("sum")) hist.sum = v->u;
        if (const JsonValue* buckets = value.Find("buckets")) {
          for (const JsonValue& pair : buckets->arr) {
            if (pair.arr.size() == 2) {
              hist.buckets.emplace_back(
                  static_cast<uint32_t>(pair.arr[0].u), pair.arr[1].u);
            }
          }
        }
        sample.hists.push_back(std::move(hist));
      }
    }
    const uint64_t expected = series.samples.empty()
                                  ? sample.tick
                                  : series.samples.back().tick + 1;
    if (sample.tick != expected) {
      return Status::InvalidArgument(
          "series line " + std::to_string(line_no) +
          ": tick " + std::to_string(sample.tick) + ", expected " +
          std::to_string(expected));
    }
    series.samples.push_back(std::move(sample));
  }
  if (!saw_meta) {
    return Status::InvalidArgument("empty series (no series-meta line)");
  }
  return series;
}

std::string RenderScreen(const SeriesData& series, const TopOptions& options,
                         size_t window) {
  const Aggregate agg = Fold(series, window);
  const double seconds = WallSeconds(series, agg);
  std::ostringstream os;

  os << "oodb_top — " << (series.tag.empty() ? "(untagged)" : series.tag)
     << "  [" << agg.ticks << " ticks";
  if (seconds > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ", %.2fs", seconds);
    os << buf;
  }
  os << ", interval " << series.interval_ms << "ms]\n";

  const uint64_t committed = CounterOf(agg, "db.txn.committed");
  const uint64_t aborted = CounterOf(agg, "db.txn.aborted");
  const uint64_t operations = CounterOf(agg, "db.call.operations");
  os << "txns   " << committed << " committed, " << aborted << " aborted, "
     << operations << " operations";
  if (seconds > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "  (%.0f txn/s, %.0f act/s)",
                  double(committed) / seconds, double(operations) / seconds);
    os << buf;
  }
  os << "\n";
  os << "commit/tick [" << Sparkline(agg.committed_per_tick,
                                     options.sparkline_width)
     << "]\n";

  uint64_t phase_sum = 0;
  uint64_t e2e_sum = 0;
  uint64_t e2e_count = 0;
  const std::vector<PhaseRow> phases =
      PhaseRows(agg, &phase_sum, &e2e_sum, &e2e_count);
  if (!phases.empty()) {
    auto e2e = agg.hists.find("phase.total_ns");
    os << "latency";
    if (e2e != agg.hists.end() && e2e->second.count > 0) {
      os << "  p50 " << FormatNs(e2e->second.Quantile(0.50)) << "  p99 "
         << FormatNs(e2e->second.Quantile(0.99));
    }
    os << "\n";
    os << "phase            share                      p50        p99\n";
    for (const PhaseRow& row : phases) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "  %-14s %5.1f%% [%s] %9s %10s\n",
                    row.name.c_str(), row.share * 100,
                    Bar(row.share, 16).c_str(), FormatNs(row.p50).c_str(),
                    FormatNs(row.p99).c_str());
      os << buf;
    }
  }

  const std::vector<StripeRow> stripes = StripeRows(agg);
  if (!stripes.empty()) {
    int64_t max_waits = 0;
    for (const StripeRow& row : stripes) {
      max_waits = std::max(max_waits, row.waits);
    }
    os << "stripes (held/waiters/waits)\n";
    std::vector<StripeRow> hottest = stripes;
    std::stable_sort(hottest.begin(), hottest.end(),
                     [](const StripeRow& a, const StripeRow& b) {
                       return a.waits > b.waits;
                     });
    if (hottest.size() > options.top_k) hottest.resize(options.top_k);
    for (const StripeRow& row : hottest) {
      const double share =
          max_waits > 0 ? double(row.waits) / double(max_waits) : 0;
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "  [%2zu] %4lld held %3lld waiting %8lld waits [%s]\n",
                    row.stripe, static_cast<long long>(row.held),
                    static_cast<long long>(row.waiters),
                    static_cast<long long>(row.waits),
                    Bar(share, 12).c_str());
      os << buf;
    }
  }

  const std::vector<HotRow> hot = HotRows(agg, options.top_k);
  if (!hot.empty()) {
    os << "hot objects (cumulative waits)\n";
    for (const HotRow& row : hot) {
      os << "  obj " << row.id << "  waits=" << row.waits << "\n";
    }
  }

  const int64_t hit_n = CacheTally(agg, "storage.cache.hits");
  const int64_t miss_n = CacheTally(agg, "storage.cache.misses");
  if (hit_n >= 0 && miss_n >= 0) {
    const int64_t total = hit_n + miss_n;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "cache  %lld hits, %lld misses (%.1f%% hit)\n",
                  static_cast<long long>(hit_n),
                  static_cast<long long>(miss_n),
                  total > 0 ? 100.0 * double(hit_n) / double(total) : 0.0);
    os << buf;
  }
  if (agg.max_gauges.count("lock.waitsfor.nodes") != 0) {
    os << "waits-for  peak " << MaxGauge(agg, "lock.waitsfor.nodes")
       << " nodes / " << MaxGauge(agg, "lock.waitsfor.edges") << " edges\n";
  }
  if (agg.max_gauges.count("epoch.pending") != 0) {
    os << "epoch  " << MaxGauge(agg, "epoch.number") << " epochs, peak "
       << MaxGauge(agg, "epoch.pending") << " events pending\n";
  }
  if (agg.ticks > 0) {
    os << "sampler  " << agg.ticks << " ticks, "
       << FormatNs(agg.sampler_ns / agg.ticks) << " avg tick\n";
  }
  return os.str();
}

std::string RenderReport(const SeriesData& series,
                         const TopOptions& options) {
  const Aggregate agg = Fold(series, /*window=*/0);
  const double seconds = WallSeconds(series, agg);
  uint64_t phase_sum = 0;
  uint64_t e2e_sum = 0;
  uint64_t e2e_count = 0;
  const std::vector<PhaseRow> phases =
      PhaseRows(agg, &phase_sum, &e2e_sum, &e2e_count);

  std::ostringstream os;
  char buf[128];
  os << "{\n  \"format\": \"oodb-top-report-v1\",\n";
  os << "  \"tag\": \"" << JsonEscape(series.tag) << "\",\n";
  os << "  \"ticks\": " << agg.ticks << ",\n";
  os << "  \"interval_ms\": " << series.interval_ms << ",\n";
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  os << "  \"seconds\": " << buf << ",\n";

  const uint64_t committed = CounterOf(agg, "db.txn.committed");
  const uint64_t operations = CounterOf(agg, "db.call.operations");
  os << "  \"throughput\": {\"committed\": " << committed
     << ", \"aborted\": " << CounterOf(agg, "db.txn.aborted")
     << ", \"operations\": " << operations;
  if (seconds > 0) {
    std::snprintf(buf, sizeof(buf), "%.1f", double(committed) / seconds);
    os << ", \"txn_per_sec\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.1f", double(operations) / seconds);
    os << ", \"act_per_sec\": " << buf;
  }
  os << "},\n";

  os << "  \"phases\": {";
  bool first = true;
  for (const PhaseRow& row : phases) {
    std::snprintf(buf, sizeof(buf), "%.4f", row.share);
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(row.name)
       << "\": {\"sum_ns\": " << row.sum << ", \"count\": " << row.count
       << ", \"share\": " << buf << ", \"p50_ns\": " << row.p50
       << ", \"p99_ns\": " << row.p99 << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  if (!phases.empty()) {
    // PhaseRows sorts by sum descending, so the dominant phase leads.
    os << "  \"dominant_phase\": \"" << JsonEscape(phases.front().name)
       << "\",\n";
    os << "  \"phase_sum_ns\": " << phase_sum << ",\n";
    os << "  \"e2e_sum_ns\": " << e2e_sum << ",\n";
    os << "  \"e2e_count\": " << e2e_count << ",\n";
    // The acceptance figure: phase sums over measured end-to-end time.
    // Execute-as-residual makes this 1.0 up to clamping.
    std::snprintf(buf, sizeof(buf), "%.4f",
                  e2e_sum > 0 ? double(phase_sum) / double(e2e_sum) : 0.0);
    os << "  \"coverage\": " << buf << ",\n";
  }

  const std::vector<HotRow> hot = HotRows(agg, options.top_k);
  os << "  \"hot_objects\": [";
  for (size_t i = 0; i < hot.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "{\"id\": " << hot[i].id
       << ", \"waits\": " << hot[i].waits << "}";
  }
  os << "],\n";

  std::vector<StripeRow> stripes = StripeRows(agg);
  std::stable_sort(stripes.begin(), stripes.end(),
                   [](const StripeRow& a, const StripeRow& b) {
                     return a.waits > b.waits;
                   });
  if (stripes.size() > options.top_k) stripes.resize(options.top_k);
  os << "  \"hot_stripes\": [";
  for (size_t i = 0; i < stripes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "{\"stripe\": " << stripes[i].stripe
       << ", \"held\": " << stripes[i].held
       << ", \"waiters\": " << stripes[i].waiters
       << ", \"waits\": " << stripes[i].waits
       << ", \"wait_ns\": " << stripes[i].wait_ns << "}";
  }
  os << "],\n";

  const int64_t hits = CacheTally(agg, "storage.cache.hits");
  const int64_t misses = CacheTally(agg, "storage.cache.misses");
  if (hits >= 0 && misses >= 0) {
    const int64_t total = hits + misses;
    std::snprintf(buf, sizeof(buf), "%.4f",
                  total > 0 ? double(hits) / double(total) : 0.0);
    os << "  \"cache\": {\"hits\": " << hits << ", \"misses\": " << misses
       << ", \"hit_ratio\": " << buf << "},\n";
  }
  os << "  \"waits_for\": {\"peak_nodes\": "
     << MaxGauge(agg, "lock.waitsfor.nodes")
     << ", \"peak_edges\": " << MaxGauge(agg, "lock.waitsfor.edges")
     << "},\n";

  os << "  \"sampler\": {\"ticks\": " << agg.ticks
     << ", \"total_tick_ns\": " << agg.sampler_ns << "}\n";
  os << "}\n";
  return os.str();
}

}  // namespace oodb
