#include "storage/walinspect.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "util/json.h"

namespace oodb {

namespace {

size_t KindIndex(WalRecordType type) {
  return static_cast<size_t>(type) - 1;
}

}  // namespace

bool WalInspectMatch(const WalRecord& rec, const WalInspectOptions& options) {
  if (options.has_txn && rec.txn != options.txn) return false;
  if (!options.object.empty() && rec.root != options.object) return false;
  if (!options.kind.empty() && options.kind != WalRecordTypeName(rec.type)) {
    return false;
  }
  return rec.lsn >= options.from_lsn && rec.lsn <= options.to_lsn;
}

WalInspectStats ComputeWalStats(const WalScanResult& scan,
                                const WalInspectOptions& options) {
  WalInspectStats stats;
  for (const WalScannedRecord& rec : scan.records) {
    if (!WalInspectMatch(rec.record, options)) continue;
    WalInspectStats::Row& row = stats.kinds[KindIndex(rec.record.type)];
    row.count += 1;
    row.bytes += rec.frame_bytes;
    stats.total.count += 1;
    stats.total.bytes += rec.frame_bytes;
  }
  return stats;
}

std::string WalRecordLine(const WalScannedRecord& rec) {
  return rec.record.ToString() + " off=" + std::to_string(rec.offset) +
         " len=" + std::to_string(rec.frame_bytes);
}

std::string WalRecordJson(const WalScannedRecord& rec) {
  const WalRecord& r = rec.record;
  std::ostringstream os;
  os << "{\"lsn\": " << r.lsn << ", \"kind\": \"" << WalRecordTypeName(r.type)
     << "\", \"txn\": " << r.txn << ", \"off\": " << rec.offset
     << ", \"len\": " << rec.frame_bytes;
  switch (r.type) {
    case WalRecordType::kBegin:
      os << ", \"name\": \"" << JsonEscape(r.txn_name) << "\"";
      break;
    case WalRecordType::kOp:
      os << ", \"object\": \"" << JsonEscape(r.root) << "\""
         << ", \"invocation\": \"" << JsonEscape(r.op.ToString()) << "\"";
      if (r.has_comp) {
        os << ", \"compensation\": \"" << JsonEscape(r.comp.ToString())
           << "\"";
      }
      break;
    case WalRecordType::kClr:
      os << ", \"object\": \"" << JsonEscape(r.root) << "\""
         << ", \"compensation\": \"" << JsonEscape(r.comp.ToString()) << "\""
         << ", \"undoes_lsn\": " << r.undoes_lsn;
      break;
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      break;
  }
  os << "}";
  return os.str();
}

namespace {

std::string TornLine(const WalScanResult& scan) {
  if (scan.torn == WalTornKind::kNone) return "tail: clean";
  return "torn tail: " + std::to_string(scan.torn_bytes) +
         " bytes at offset " + std::to_string(scan.torn_offset) + " (" +
         WalTornKindName(scan.torn) + ")";
}

}  // namespace

std::string RenderWalText(const std::string& label, const WalScanResult& scan,
                          const WalInspectOptions& options) {
  std::ostringstream os;
  os << "wal " << label << ": first_lsn=" << scan.first_lsn
     << " intact_records=" << scan.records.size()
     << " valid_bytes=" << scan.valid_bytes
     << " file_bytes=" << scan.file_bytes << "\n";
  size_t shown = 0;
  for (const WalScannedRecord& rec : scan.records) {
    if (!WalInspectMatch(rec.record, options)) continue;
    os << WalRecordLine(rec) << "\n";
    ++shown;
  }
  os << TornLine(scan) << "\n";
  os << "shown: " << shown << " of " << scan.records.size() << " records\n";
  return os.str();
}

std::string RenderWalStats(const std::string& label,
                           const WalScanResult& scan,
                           const WalInspectOptions& options) {
  const WalInspectStats stats = ComputeWalStats(scan, options);
  std::ostringstream os;
  os << "wal " << label << " stats\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-8s %8s %8s %12s %8s %8s\n", "kind",
                "count", "count%", "bytes", "bytes%", "avg");
  os << buf;
  auto row = [&](const char* name, const WalInspectStats::Row& r) {
    const double count_share =
        stats.total.count > 0 ? 100.0 * double(r.count) / double(stats.total.count)
                              : 0.0;
    const double byte_share =
        stats.total.bytes > 0 ? 100.0 * double(r.bytes) / double(stats.total.bytes)
                              : 0.0;
    const double avg = r.count > 0 ? double(r.bytes) / double(r.count) : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%-8s %8" PRIu64 " %8.2f %12" PRIu64 " %8.2f %8.1f\n",
                  name, r.count, count_share, r.bytes, byte_share, avg);
    os << buf;
  };
  for (size_t i = 0; i < 5; ++i) {
    row(WalRecordTypeName(static_cast<WalRecordType>(i + 1)), stats.kinds[i]);
  }
  row("total", stats.total);
  os << TornLine(scan) << "\n";
  return os.str();
}

std::string RenderWalJson(const std::string& label, const WalScanResult& scan,
                          const WalInspectOptions& options) {
  const WalInspectStats stats = ComputeWalStats(scan, options);
  std::ostringstream os;
  os << "{\n  \"format\": \"oodb-walinspect-v1\",\n";
  os << "  \"wal\": \"" << JsonEscape(label) << "\",\n";
  os << "  \"first_lsn\": " << scan.first_lsn << ",\n";
  os << "  \"next_lsn\": " << scan.next_lsn << ",\n";
  os << "  \"file_bytes\": " << scan.file_bytes << ",\n";
  os << "  \"valid_bytes\": " << scan.valid_bytes << ",\n";
  os << "  \"intact_records\": " << scan.records.size() << ",\n";
  os << "  \"records\": [";
  size_t shown = 0;
  for (const WalScannedRecord& rec : scan.records) {
    if (!WalInspectMatch(rec.record, options)) continue;
    os << (shown == 0 ? "" : ",") << "\n    " << WalRecordJson(rec);
    ++shown;
  }
  os << (shown == 0 ? "" : "\n  ") << "],\n";
  os << "  \"shown\": " << shown << ",\n";
  os << "  \"torn\": {\"kind\": \"" << WalTornKindName(scan.torn)
     << "\", \"offset\": " << scan.torn_offset
     << ", \"bytes\": " << scan.torn_bytes << "},\n";
  os << "  \"stats\": {";
  for (size_t i = 0; i < 5; ++i) {
    os << "\n    \"" << WalRecordTypeName(static_cast<WalRecordType>(i + 1))
       << "\": {\"count\": " << stats.kinds[i].count
       << ", \"bytes\": " << stats.kinds[i].bytes << "},";
  }
  os << "\n    \"total\": {\"count\": " << stats.total.count
     << ", \"bytes\": " << stats.total.bytes << "}\n  }\n}\n";
  return os.str();
}

}  // namespace oodb
