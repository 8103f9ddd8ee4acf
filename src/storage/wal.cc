#include "storage/wal.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>

#include "storage/serde.h"

namespace oodb {

namespace {

constexpr char kWalMagic[8] = {'O', 'O', 'D', 'B', 'W', 'A', 'L', '1'};
constexpr size_t kWalHeaderSize = 16;  // magic + u64 first_lsn

std::string EncodePayload(const WalRecord& rec) {
  BlobWriter w;
  w.U8(static_cast<uint8_t>(rec.type));
  w.U64(rec.lsn);
  w.U64(rec.txn);
  switch (rec.type) {
    case WalRecordType::kBegin:
      w.Str(rec.txn_name);
      break;
    case WalRecordType::kOp:
      w.Str(rec.root);
      w.Invoke(rec.op);
      w.U8(rec.has_comp ? 1 : 0);
      if (rec.has_comp) w.Invoke(rec.comp);
      break;
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kClr:
      w.Str(rec.root);
      w.Invoke(rec.comp);
      w.U64(rec.undoes_lsn);
      break;
  }
  return w.Take();
}

bool DecodePayload(const std::string& payload, WalRecord* rec) {
  BlobReader r(payload);
  uint8_t type;
  if (!r.U8(&type) || !r.U64(&rec->lsn) || !r.U64(&rec->txn)) return false;
  if (type < 1 || type > 5) return false;
  rec->type = static_cast<WalRecordType>(type);
  switch (rec->type) {
    case WalRecordType::kBegin:
      return r.Str(&rec->txn_name) && r.Done();
    case WalRecordType::kOp: {
      uint8_t has_comp;
      if (!r.Str(&rec->root) || !r.Invoke(&rec->op) || !r.U8(&has_comp)) {
        return false;
      }
      rec->has_comp = has_comp != 0;
      if (rec->has_comp && !r.Invoke(&rec->comp)) return false;
      return r.Done();
    }
    case WalRecordType::kCommit:
    case WalRecordType::kAbort:
      return r.Done();
    case WalRecordType::kClr:
      return r.Str(&rec->root) && r.Invoke(&rec->comp) &&
             r.U64(&rec->undoes_lsn) && r.Done();
  }
  return false;
}

}  // namespace

const char* WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kBegin:
      return "begin";
    case WalRecordType::kOp:
      return "op";
    case WalRecordType::kCommit:
      return "commit";
    case WalRecordType::kAbort:
      return "abort";
    case WalRecordType::kClr:
      return "clr";
  }
  return "?";
}

std::string WalRecord::ToString() const {
  std::string out = "lsn=" + std::to_string(lsn) + " " +
                    WalRecordTypeName(type) + " txn=" + std::to_string(txn);
  switch (type) {
    case WalRecordType::kBegin:
      out += " '" + txn_name + "'";
      break;
    case WalRecordType::kOp:
      out += " " + root + "." + op.ToString();
      if (has_comp) out += " / undo " + comp.ToString();
      break;
    case WalRecordType::kClr:
      out += " " + root + "." + comp.ToString() + " undoes lsn=" +
             std::to_string(undoes_lsn);
      break;
    default:
      break;
  }
  return out;
}

Wal::~Wal() { Close(); }

Status Wal::WriteHeader(uint64_t first_lsn) {
  BlobWriter w;
  for (char c : kWalMagic) w.U8(static_cast<uint8_t>(c));
  w.U64(first_lsn);
  const std::string& h = w.blob();
  if (::write(fd_, h.data(), h.size()) !=
      static_cast<ssize_t>(h.size())) {
    return Status::Internal(std::string("wal header write failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status Wal::Create(const std::string& path, uint64_t first_lsn,
                   WalOptions options) {
  Close();
  options_ = options;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::Internal("open wal '" + path +
                            "' failed: " + std::strerror(errno));
  }
  path_ = path;
  next_lsn_ = first_lsn;
  records_ = 0;
  bytes_ = 0;
  return WriteHeader(first_lsn);
}

Status Wal::OpenForAppend(const std::string& path, uint64_t valid_bytes,
                          uint64_t next_lsn, WalOptions options) {
  Close();
  options_ = options;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::Internal("open wal '" + path +
                            "' failed: " + std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(kWalHeaderSize + valid_bytes)) !=
      0) {
    return Status::Internal(std::string("wal truncate failed: ") +
                            std::strerror(errno));
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return Status::Internal(std::string("wal seek failed: ") +
                            std::strerror(errno));
  }
  path_ = path;
  next_lsn_ = next_lsn;
  records_ = 0;
  bytes_ = valid_bytes;
  return Status::OK();
}

void Wal::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Wal::MaybeCrash() {
  if (options_.crash_after_appends >= 0 &&
      lifetime_records_ >=
          static_cast<uint64_t>(options_.crash_after_appends)) {
    // The harness's injected power cut: no destructors, no flushes.
    ::raise(SIGKILL);
  }
}

Result<uint64_t> Wal::Append(WalRecord rec) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (fd_ < 0) return Status::Internal("append to closed wal");
  rec.lsn = next_lsn_;
  const std::string payload = EncodePayload(rec);
  BlobWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload));
  const std::string head = frame.Take();
  std::string buf = head + payload;
  if (::write(fd_, buf.data(), buf.size()) !=
      static_cast<ssize_t>(buf.size())) {
    return Status::Internal(std::string("wal append failed: ") +
                            std::strerror(errno));
  }
  ++next_lsn_;
  ++records_;
  ++lifetime_records_;
  bytes_ += buf.size();
  if (m_appends_) m_appends_->Increment();
  if (m_bytes_) m_bytes_->Increment(buf.size());
  MaybeCrash();
  return rec.lsn;
}

Status Wal::Force() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (fd_ < 0) return Status::Internal("force on closed wal");
  if (!options_.fsync) return Status::OK();
  auto start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    return Status::Internal(std::string("wal fsync failed: ") +
                            std::strerror(errno));
  }
  if (m_forces_) m_forces_->Increment();
  if (m_fsync_ns_) {
    m_fsync_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  return Status::OK();
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return next_lsn_;
}

uint64_t Wal::appended_records() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return records_;
}

uint64_t Wal::appended_bytes() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return bytes_;
}

void Wal::AttachMetrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (registry == nullptr) {
    m_appends_ = m_bytes_ = m_forces_ = nullptr;
    m_fsync_ns_ = nullptr;
    return;
  }
  m_appends_ = registry->GetCounter("wal.appends");
  m_bytes_ = registry->GetCounter("wal.bytes");
  m_forces_ = registry->GetCounter("wal.forces");
  m_fsync_ns_ = registry->GetHistogram("wal.fsync_ns");
}

const char* WalTornKindName(WalTornKind kind) {
  switch (kind) {
    case WalTornKind::kNone:
      return "clean";
    case WalTornKind::kShortHeader:
      return "short-header";
    case WalTornKind::kShortPayload:
      return "short-payload";
    case WalTornKind::kBadCrc:
      return "bad-crc";
    case WalTornKind::kBadPayload:
      return "bad-payload";
  }
  return "?";
}

Status Wal::ScanDetailed(const std::string& path, WalScanResult* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no wal file '" + path + "'");
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (data.size() < kWalHeaderSize ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a wal file");
  }
  *out = WalScanResult{};
  out->file_bytes = data.size();
  BlobReader header(data.data() + sizeof(kWalMagic), 8);
  header.U64(&out->first_lsn);

  uint64_t last_lsn = out->first_lsn - 1;
  size_t pos = kWalHeaderSize;
  while (pos < data.size()) {
    // [u32 len][u32 crc][payload]; any mismatch is the torn tail.
    if (pos + 8 > data.size()) {
      out->torn = WalTornKind::kShortHeader;
      break;
    }
    BlobReader head(data.data() + pos, 8);
    uint32_t len = 0, crc = 0;
    head.U32(&len);
    head.U32(&crc);
    if (pos + 8 + len > data.size()) {
      out->torn = WalTornKind::kShortPayload;
      break;
    }
    if (Crc32(data.data() + pos + 8, len) != crc) {
      out->torn = WalTornKind::kBadCrc;
      break;
    }
    WalScannedRecord scanned;
    if (!DecodePayload(std::string(data, pos + 8, len), &scanned.record)) {
      out->torn = WalTornKind::kBadPayload;
      break;
    }
    scanned.offset = pos;
    scanned.frame_bytes = 8 + len;
    last_lsn = scanned.record.lsn;
    out->records.push_back(std::move(scanned));
    pos += 8 + len;
  }
  out->valid_bytes = pos - kWalHeaderSize;
  out->next_lsn = last_lsn + 1;
  if (out->torn != WalTornKind::kNone) {
    out->torn_offset = pos;
    out->torn_bytes = data.size() - pos;
  }
  return Status::OK();
}

Status Wal::Scan(const std::string& path, std::vector<WalRecord>* out,
                 uint64_t* valid_bytes, uint64_t* next_lsn) {
  WalScanResult scan;
  OODB_RETURN_IF_ERROR(ScanDetailed(path, &scan));
  out->clear();
  out->reserve(scan.records.size());
  for (WalScannedRecord& rec : scan.records) {
    out->push_back(std::move(rec.record));
  }
  if (valid_bytes != nullptr) *valid_bytes = scan.valid_bytes;
  if (next_lsn != nullptr) *next_lsn = scan.next_lsn;
  return Status::OK();
}

}  // namespace oodb
