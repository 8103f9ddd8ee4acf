#include "obs/sampler.h"

#include <cassert>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "util/io.h"
#include "util/json.h"

namespace oodb {

namespace {

uint64_t NowNsSince(std::chrono::steady_clock::time_point base) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base)
          .count());
}

}  // namespace

MetricsSampler::MetricsSampler(MetricsRegistry* registry,
                               SamplerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::AddProbe(std::string name,
                              std::function<void()> probe) {
  std::lock_guard<std::mutex> lock(tick_mu_);
  probes_.emplace_back(std::move(name), std::move(probe));
}

void MetricsSampler::RefreshRefs() {
  const uint64_t version = registry_->Version();
  if (enumerated_ && version == seen_version_) return;

  MetricsRegistry::MetricRefs fresh = registry_->Enumerate();

  // Carry baselines over by name; metrics registered since the last
  // tick start from zero, so their whole current value is this tick's
  // delta (it all happened since then).
  std::unordered_map<std::string, uint64_t> old_counters;
  for (size_t i = 0; i < refs_.counters.size(); ++i) {
    old_counters[refs_.counters[i].first] = counter_base_[i];
  }
  std::unordered_map<std::string, const HistogramSnapshot*> old_hists;
  for (size_t i = 0; i < refs_.histograms.size(); ++i) {
    old_hists[refs_.histograms[i].first] = &hist_base_[i];
  }

  std::vector<uint64_t> counter_base(fresh.counters.size(), 0);
  for (size_t i = 0; i < fresh.counters.size(); ++i) {
    auto it = old_counters.find(fresh.counters[i].first);
    if (it != old_counters.end()) counter_base[i] = it->second;
  }
  std::vector<HistogramSnapshot> hist_base(fresh.histograms.size());
  for (size_t i = 0; i < fresh.histograms.size(); ++i) {
    auto it = old_hists.find(fresh.histograms[i].first);
    if (it != old_hists.end()) hist_base[i] = *it->second;
  }

  refs_ = std::move(fresh);
  counter_base_ = std::move(counter_base);
  hist_base_ = std::move(hist_base);
  seen_version_ = version;
  enumerated_ = true;
}

Sample MetricsSampler::Fold() {
  const uint64_t fold_start = NowNsSince(start_);
  for (auto& [name, probe] : probes_) {
    (void)name;
    probe();
  }
  RefreshRefs();

  Sample sample;
  sample.tick = ++tick_count_;
  sample.ts_ns = options_.logical_clock ? sample.tick : NowNsSince(start_);

  uint64_t nonmonotone = 0;
  for (size_t i = 0; i < refs_.counters.size(); ++i) {
    const uint64_t value = refs_.counters[i].second->Value();
    if (value < counter_base_[i]) {
      // Counters are monotone by contract; a decrease means some layer
      // rebuilt "its" registry mid-run (the bug the s2/s6 single-
      // registry fix removed) or reused a name for a non-counter.
      ++nonmonotone;
      assert(false && "counter decreased between sampler ticks");
      counter_base_[i] = value;
      continue;
    }
    const uint64_t delta = value - counter_base_[i];
    counter_base_[i] = value;
    if (delta != 0) {
      sample.counters.emplace_back(refs_.counters[i].first, delta);
    }
  }

  sample.gauges.reserve(refs_.gauges.size());
  for (const auto& [name, gauge] : refs_.gauges) {
    sample.gauges.emplace_back(name, gauge->Value());
  }

  for (size_t i = 0; i < refs_.histograms.size(); ++i) {
    HistogramSnapshot snap = refs_.histograms[i].second->Snapshot();
    const HistogramSnapshot& base = hist_base_[i];
    if (snap.count() == base.count() && snap.sum() == base.sum()) {
      hist_base_[i] = std::move(snap);
      continue;
    }
    Sample::HistDelta delta;
    delta.name = refs_.histograms[i].first;
    delta.count = snap.count() - base.count();
    delta.sum = snap.sum() - base.sum();
    const auto& now_buckets = snap.buckets();
    const auto& base_buckets = base.buckets();
    for (size_t b = 0; b < now_buckets.size(); ++b) {
      if (now_buckets[b] != base_buckets[b]) {
        delta.buckets.emplace_back(static_cast<uint32_t>(b),
                                   now_buckets[b] - base_buckets[b]);
      }
    }
    sample.hists.push_back(std::move(delta));
    hist_base_[i] = std::move(snap);
  }

  sample.dur_ns = NowNsSince(start_) - fold_start;

  {
    std::lock_guard<std::mutex> ring(ring_mu_);
    ring_.push_back(sample);
    while (ring_.size() > options_.ring_capacity) {
      ring_.pop_front();
      ++stats_.dropped_samples;
    }
    ++stats_.ticks;
    stats_.total_tick_ns += sample.dur_ns;
    if (sample.dur_ns > stats_.max_tick_ns) {
      stats_.max_tick_ns = sample.dur_ns;
    }
    stats_.nonmonotone_counters += nonmonotone;
  }
  return sample;
}

Sample MetricsSampler::SampleNow() {
  std::lock_guard<std::mutex> lock(tick_mu_);
  return Fold();
}

void MetricsSampler::Start() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(wake_mu_);
    while (!stop_requested_) {
      if (wake_.wait_for(lock, options_.interval,
                         [this] { return stop_requested_; })) {
        break;
      }
      lock.unlock();
      SampleNow();
      lock.lock();
    }
  });
}

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    running_ = false;
  }
  // The final fold publishes everything since the last periodic tick,
  // so a stopped sampler's series accounts for the whole run.
  SampleNow();
}

std::vector<Sample> MetricsSampler::Series() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return {ring_.begin(), ring_.end()};
}

SamplerStats MetricsSampler::Stats() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return stats_;
}

std::string MetricsSampler::SampleJson(const Sample& sample) {
  std::ostringstream os;
  os << "{\"type\":\"sample\",\"tick\":" << sample.tick
     << ",\"ts_ns\":" << sample.ts_ns << ",\"dur_ns\":" << sample.dur_ns
     << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, delta] : sample.counters) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << delta;
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : sample.gauges) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "},\"hists\":{";
  first = true;
  for (const auto& hist : sample.hists) {
    os << (first ? "" : ",") << "\"" << JsonEscape(hist.name)
       << "\":{\"count\":" << hist.count << ",\"sum\":" << hist.sum
       << ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [bucket, delta] : hist.buckets) {
      os << (first_bucket ? "" : ",") << "[" << bucket << "," << delta
         << "]";
      first_bucket = false;
    }
    os << "]}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string MetricsSampler::ToJsonLines() const {
  std::ostringstream os;
  os << "{\"type\":\"series-meta\",\"version\":1,\"interval_ms\":"
     << options_.interval.count() << ",\"logical\":"
     << (options_.logical_clock ? "true" : "false") << ",\"tag\":\""
     << JsonEscape(options_.tag) << "\"}\n";
  std::lock_guard<std::mutex> lock(ring_mu_);
  for (const Sample& sample : ring_) {
    os << SampleJson(sample) << "\n";
  }
  return os.str();
}

Status MetricsSampler::WriteJsonLines(const std::string& path) const {
  return WriteOut(path, ToJsonLines());
}

}  // namespace oodb
