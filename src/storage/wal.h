// Write-ahead log of object-level *logical* operations.
//
// Following Malta & Martinez's recoverable-ADT rule, records describe
// invocations on persistent root objects — insert("k","v") on directory
// "D" — never page images. Redo re-executes the invocation through the
// real method implementation; undo executes the compensating invocation
// the method registered (the same one Database::CompensateChildren runs
// on a live abort). Logging at the object level is what lets concurrent
// commuting writers share pages without forcing each other's undo.
//
// One Wal instance is one *epoch*: the records since the checkpoint
// that opened it. A checkpoint writes a consistent image, flips the
// store meta to a new epoch, and starts a fresh file; LSNs keep
// increasing across epochs (the meta carries the next LSN forward).
//
// On-disk layout: a 16-byte header (magic + first LSN), then records of
// the form [u32 payload_len][u32 crc32(payload)][payload]. A scan stops
// at the first short or corrupt record — the torn tail a crash leaves —
// and everything before it is trusted.
//
// Crash injection: the options can arm a SIGKILL that fires immediately
// after the Nth record (or the record crossing a byte offset) reaches
// the file, which is how the crash harness kills a child mid-workload
// at a reproducible point.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "model/invocation.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace oodb {

enum class WalRecordType : uint8_t {
  kBegin = 1,   ///< top-level transaction started
  kOp = 2,      ///< completed mutating action on a persistent root
  kCommit = 3,  ///< top-level commit (the log is forced with it)
  kAbort = 4,   ///< top-level abort after its compensations ran
  kClr = 5,     ///< compensation applied by recovery (undo progress)
};

const char* WalRecordTypeName(WalRecordType type);

struct WalRecord {
  WalRecordType type = WalRecordType::kOp;
  uint64_t lsn = 0;        ///< assigned by Append
  uint64_t txn = 0;        ///< top-level transaction id (epoch-local)
  std::string txn_name;    ///< kBegin only (diagnostics)
  std::string root;        ///< persistent root name (kOp / kClr)
  Invocation op;           ///< kOp: the logical redo invocation
  bool has_comp = false;   ///< kOp: a compensating invocation follows
  Invocation comp;         ///< kOp: logical undo; kClr: what was applied
  uint64_t undoes_lsn = 0; ///< kClr: the op record this compensates

  /// "lsn=7 op txn=3 D.insert("k", "v") / undo remove("k")".
  std::string ToString() const;
};

/// Why a scan stopped before the end of the file.
enum class WalTornKind : uint8_t {
  kNone = 0,       ///< clean tail: the file ends on a record boundary
  kShortHeader,    ///< fewer than 8 frame-header bytes remain
  kShortPayload,   ///< the frame header promises more bytes than exist
  kBadCrc,         ///< payload present but its CRC32 does not match
  kBadPayload,     ///< CRC ok but the payload does not decode
};

const char* WalTornKindName(WalTornKind kind);

/// One decoded record plus where its frame sits in the file.
struct WalScannedRecord {
  WalRecord record;
  uint64_t offset = 0;       ///< absolute file offset of the frame
  uint32_t frame_bytes = 0;  ///< 8-byte frame header + payload
};

/// Everything a detailed scan learns about one epoch file.
struct WalScanResult {
  uint64_t first_lsn = 1;    ///< from the epoch header
  uint64_t file_bytes = 0;   ///< total size on disk
  uint64_t valid_bytes = 0;  ///< intact record-region bytes (excl. header)
  uint64_t next_lsn = 1;     ///< after the last intact record
  std::vector<WalScannedRecord> records;
  /// The torn tail: everything after the valid prefix.
  WalTornKind torn = WalTornKind::kNone;
  uint64_t torn_offset = 0;  ///< absolute offset of the first bad byte
  uint64_t torn_bytes = 0;   ///< file_bytes - torn_offset (0 when clean)
};

struct WalOptions {
  /// Force (fsync) the file on LogCommit. Off = buffered durability:
  /// commits survive process death but not power loss.
  bool fsync = true;

  /// Crash injection: when >= 0, raise SIGKILL right after the Nth
  /// successful append (1-based) reaches the file. Counts appends over
  /// the Wal instance's whole lifetime, across epoch rotations, so a
  /// sweep point can land after a mid-run checkpoint.
  int64_t crash_after_appends = -1;
};

/// Append side of one WAL epoch file. Thread-safe.
class Wal {
 public:
  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Creates (truncating) `path` and writes the epoch header. LSNs
  /// assigned by this instance start at `first_lsn`.
  Status Create(const std::string& path, uint64_t first_lsn,
                WalOptions options = {});

  /// Re-opens an existing epoch file for append after recovery scanned
  /// it: the file is truncated to `valid_bytes` (dropping the torn
  /// tail) and LSNs continue at `next_lsn`.
  Status OpenForAppend(const std::string& path, uint64_t valid_bytes,
                       uint64_t next_lsn, WalOptions options = {});

  void Close();
  bool IsOpen() const { return fd_ >= 0; }

  /// Appends `rec` (its lsn field is assigned here) and returns the
  /// LSN. The record is in the OS file after this returns; it is on
  /// disk only after the next Force.
  Result<uint64_t> Append(WalRecord rec);

  /// fsync (when the options enable it). Observes wal.fsync_ns.
  Status Force();

  uint64_t next_lsn() const;
  uint64_t appended_records() const;
  uint64_t appended_bytes() const;  ///< excludes the header

  void AttachMetrics(MetricsRegistry* registry);

  /// Reads every intact record of `path` in order. Returns the records,
  /// plus the byte offset of the first torn/corrupt one via
  /// `valid_bytes` (the whole file when clean) and the next LSN after
  /// the last intact record via `next_lsn` (first_lsn of the header
  /// when empty). Missing file => NotFound.
  static Status Scan(const std::string& path, std::vector<WalRecord>* out,
                     uint64_t* valid_bytes = nullptr,
                     uint64_t* next_lsn = nullptr);

  /// Scan with full framing detail: per-record byte offsets and sizes,
  /// plus an explicit classification of the torn tail. Scan() is a thin
  /// wrapper over this, so the inspector (`oodb walinspect`) and
  /// recovery read one log with one decoder and can never disagree on
  /// where the valid prefix ends.
  static Status ScanDetailed(const std::string& path, WalScanResult* out);

 private:
  Status WriteHeader(uint64_t first_lsn);
  void MaybeCrash();  ///< requires mutex_ held; does not return if armed

  WalOptions options_;
  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string path_;
  uint64_t next_lsn_ = 1;
  uint64_t records_ = 0;  ///< this epoch
  uint64_t bytes_ = 0;    ///< this epoch
  uint64_t lifetime_records_ = 0;  ///< across Create/OpenForAppend calls

  Counter* m_appends_ = nullptr;
  Counter* m_bytes_ = nullptr;
  Counter* m_forces_ = nullptr;
  HistogramMetric* m_fsync_ns_ = nullptr;
};

}  // namespace oodb
