#include "obs/trace_check.h"

#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/top.h"
#include "util/histogram.h"
#include "util/json.h"

namespace oodb {

namespace {

/// Member `key` of a parsed line as a number. False if absent or not a
/// number.
bool IntMember(const JsonValue& line, const char* key, long long* out) {
  const JsonValue* v = line.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return false;
  *out = v->i;
  return true;
}

/// Member `key` of a parsed line as a string. False if absent or not a
/// string.
bool StringMember(const JsonValue& line, const char* key, std::string* out) {
  const JsonValue* v = line.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kString) return false;
  *out = v->str;
  return true;
}

struct SpanRow {
  long long parent, txn, level;
  long long start, end;
};

Status Fail(size_t line_no, const std::string& what) {
  return Status::InvalidArgument("trace line " + std::to_string(line_no) +
                                 ": " + what);
}

}  // namespace

Status ValidateTraceLines(const std::string& jsonl) {
  std::istringstream in(jsonl);
  std::string text;
  size_t line_no = 0;
  std::unordered_map<long long, SpanRow> spans;
  // Two passes over the same document: the first collects spans (the
  // export sorts by start time, which is not topological for parents —
  // a parent *ends* after but *starts* before its children, so parents
  // do come first; still, collecting up front keeps the checker
  // order-independent), the second verifies parent linkage.
  std::vector<std::pair<size_t, long long>> to_check;  // (line, id)

  while (std::getline(in, text)) {
    ++line_no;
    if (text.empty()) continue;
    JsonValue line;
    if (!ParseJson(text, &line) || line.type != JsonValue::Type::kObject) {
      return Fail(line_no, "malformed JSON");
    }
    std::string type;
    if (!StringMember(line, "type", &type)) {
      return Fail(line_no, "missing \"type\"");
    }
    if (line_no == 1) {
      if (type != "meta") return Fail(line_no, "first line must be meta");
      long long version;
      if (!IntMember(line, "version", &version)) {
        return Fail(line_no, "meta without version");
      }
      continue;
    }
    if (type == "meta") return Fail(line_no, "duplicate meta record");
    if (type == "instant") {
      std::string name;
      long long ts;
      if (!StringMember(line, "name", &name) || name.empty()) {
        return Fail(line_no, "instant without name");
      }
      if (!IntMember(line, "ts", &ts) || ts < 0) {
        return Fail(line_no, "instant without ts");
      }
      continue;
    }
    if (type != "span") return Fail(line_no, "unknown type '" + type + "'");

    long long id, object, tid;
    SpanRow row;
    std::string name, outcome;
    if (!IntMember(line, "id", &id)) return Fail(line_no, "span without id");
    if (!IntMember(line, "parent", &row.parent) ||
        !IntMember(line, "object", &object) ||
        !IntMember(line, "txn", &row.txn) ||
        !IntMember(line, "level", &row.level) ||
        !IntMember(line, "tid", &tid) ||
        !IntMember(line, "start", &row.start) ||
        !IntMember(line, "end", &row.end)) {
      return Fail(line_no, "span missing a required numeric field");
    }
    if (!StringMember(line, "name", &name) || name.empty()) {
      return Fail(line_no, "span without name");
    }
    if (!StringMember(line, "outcome", &outcome) || outcome.empty()) {
      return Fail(line_no, "span without outcome");
    }
    if (row.start > row.end) return Fail(line_no, "span with start > end");
    if (row.level < 0) return Fail(line_no, "negative level");
    if (row.level == 0 && row.parent != -1) {
      return Fail(line_no, "level-0 span with a parent");
    }
    if (row.level > 0 && row.parent == -1) {
      return Fail(line_no, "nested span without parent");
    }
    if (!spans.emplace(id, row).second) {
      return Fail(line_no, "duplicate span id " + std::to_string(id));
    }
    if (row.parent != -1) to_check.emplace_back(line_no, id);
  }
  if (line_no == 0) return Status::InvalidArgument("trace: empty document");

  for (const auto& [at, id] : to_check) {
    const SpanRow& child = spans.at(id);
    auto it = spans.find(child.parent);
    if (it == spans.end()) {
      return Fail(at, "parent " + std::to_string(child.parent) +
                          " has no span");
    }
    const SpanRow& parent = it->second;
    if (child.start < parent.start || child.end > parent.end) {
      return Fail(at, "span escapes its parent's time window");
    }
    if (child.txn != parent.txn) {
      return Fail(at, "span and parent disagree on txn");
    }
    if (child.level != parent.level + 1) {
      return Fail(at, "span level is not parent level + 1");
    }
  }
  return Status::OK();
}

Status ValidateSeriesLines(const std::string& jsonl) {
  // ParseSeries already enforces the document structure: one meta line
  // first, known version, contiguous 1-based ticks, flat JSON samples.
  Result<SeriesData> series = ParseSeries(jsonl);
  if (!series.ok()) return series.status();
  for (size_t i = 0; i < series->samples.size(); ++i) {
    const SeriesSample& sample = series->samples[i];
    for (const SeriesSample::Hist& hist : sample.hists) {
      uint64_t bucket_total = 0;
      for (const auto& [bucket, delta] : hist.buckets) {
        if (bucket >= hist_layout::kBucketCount) {
          return Status::InvalidArgument(
              "series tick " + std::to_string(sample.tick) + ": hist '" +
              hist.name + "' bucket " + std::to_string(bucket) +
              " outside layout (" +
              std::to_string(hist_layout::kBucketCount) + " buckets)");
        }
        bucket_total += delta;
      }
      // Every observation lands in exactly one bucket, so the per-tick
      // count delta must equal the sum of the bucket deltas.
      if (bucket_total != hist.count) {
        return Status::InvalidArgument(
            "series tick " + std::to_string(sample.tick) + ": hist '" +
            hist.name + "' count " + std::to_string(hist.count) +
            " != bucket delta sum " + std::to_string(bucket_total));
      }
    }
  }
  return Status::OK();
}

}  // namespace oodb
