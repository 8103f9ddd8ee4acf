#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "util/json.h"

namespace oodb {

namespace {

uint64_t WallNanos() {
  using Clock = std::chrono::steady_clock;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Ids print as signed so UINT64_MAX (no parent / no object) reads -1.
long long AsSigned(uint64_t v) {
  return v == UINT64_MAX ? -1 : static_cast<long long>(v);
}

}  // namespace

Tracer::Tracer(TracerOptions options) : options_(std::move(options)) {
  if (!options_.golden) wall_base_ = WallNanos();
}

uint64_t Tracer::NowNs() {
  if (options_.golden) {
    return logical_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return WallNanos() - wall_base_;
}

uint32_t Tracer::ThreadId() {
  if (options_.golden) return 0;
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Tracer::RecordSpan(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Tracer::RecordInstant(std::string name, uint64_t ts,
                           std::string detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  instants_.push_back(TraceInstant{std::move(name), ts, std::move(detail)});
}

std::vector<TraceSpan> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

void Tracer::SortedEvents(std::vector<const TraceSpan*>* spans,
                          std::vector<const TraceInstant*>* instants) const {
  spans->reserve(spans_.size());
  for (const TraceSpan& s : spans_) spans->push_back(&s);
  std::sort(spans->begin(), spans->end(),
            [](const TraceSpan* a, const TraceSpan* b) {
              return a->start != b->start ? a->start < b->start
                                          : a->id < b->id;
            });
  instants->reserve(instants_.size());
  for (const TraceInstant& i : instants_) instants->push_back(&i);
  std::sort(instants->begin(), instants->end(),
            [](const TraceInstant* a, const TraceInstant* b) {
              return a->ts != b->ts ? a->ts < b->ts : a->name < b->name;
            });
}

std::string Tracer::ToJsonLines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const TraceSpan*> spans;
  std::vector<const TraceInstant*> instants;
  SortedEvents(&spans, &instants);

  std::ostringstream os;
  os << "{\"type\":\"meta\",\"version\":1,\"golden\":"
     << (options_.golden ? "true" : "false") << ",\"tag\":\""
     << JsonEscape(options_.tag) << "\"}\n";
  for (const TraceInstant* i : instants) {
    os << "{\"type\":\"instant\",\"name\":\"" << JsonEscape(i->name)
       << "\",\"ts\":" << i->ts << ",\"detail\":\"" << JsonEscape(i->detail)
       << "\"}\n";
  }
  for (const TraceSpan* s : spans) {
    os << "{\"type\":\"span\",\"id\":" << s->id
       << ",\"parent\":" << AsSigned(s->parent) << ",\"name\":\""
       << JsonEscape(s->name) << "\",\"object\":" << AsSigned(s->object)
       << ",\"txn\":" << s->txn << ",\"level\":" << s->level
       << ",\"tid\":" << s->tid << ",\"start\":" << s->start
       << ",\"end\":" << s->end << ",\"outcome\":\"" << JsonEscape(s->outcome)
       << "\"";
    // Phase breakdowns are wall-clock ns, so golden (logical-clock)
    // traces omit them to stay byte-stable.
    if (!s->phases.empty() && !options_.golden) {
      os << ",\"phases\":" << s->phases;
    }
    os << "}\n";
  }
  return os.str();
}

std::string Tracer::ToChromeTrace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const TraceSpan*> spans;
  std::vector<const TraceInstant*> instants;
  SortedEvents(&spans, &instants);

  // In golden mode logical ticks are exported verbatim as microseconds;
  // in wall mode nanoseconds are converted. Both keep containment.
  auto ts_of = [this](uint64_t ns) -> double {
    return options_.golden ? double(ns) : double(ns) / 1000.0;
  };

  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"oodb"
     << (options_.tag.empty() ? "" : " ") << JsonEscape(options_.tag) << "\"}}";
  char buf[64];
  for (const TraceInstant* i : instants) {
    std::snprintf(buf, sizeof(buf), "%.3f", ts_of(i->ts));
    os << ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":" << buf
       << ",\"s\":\"g\",\"name\":\"" << JsonEscape(i->name)
       << "\",\"args\":{\"detail\":\"" << JsonEscape(i->detail) << "\"}}";
  }
  for (const TraceSpan* s : spans) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s->tid << ",\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f", ts_of(s->start));
    os << buf << ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  ts_of(s->end) - ts_of(s->start));
    os << buf << ",\"name\":\"" << JsonEscape(s->name)
       << "\",\"args\":{\"id\":" << s->id
       << ",\"parent\":" << AsSigned(s->parent)
       << ",\"object\":" << AsSigned(s->object) << ",\"txn\":" << s->txn
       << ",\"level\":" << s->level << ",\"outcome\":\""
       << JsonEscape(s->outcome) << "\"}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace oodb
