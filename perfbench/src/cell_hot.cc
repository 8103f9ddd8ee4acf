// cell-hot: the contended Cell mix of the s11 throughput bench.
//
// 64 primitive Cells, Zipf(0.99) keys, 4 sorted distinct keys per
// transaction (sorted, so lock ordering keeps it deadlock-free), each
// op 20% put / 20% get / 60% add; 8 shards, epoch-batched history, no
// WAL. Call depth is 1, so the lock manager and commit publication do
// most of the work and dispatch, containers, schedule and storage almost
// none. A transaction is a read when all its ops are gets.

#include <algorithm>

#include "common.h"
#include "model/type_registry.h"
#include "util/random.h"

namespace perfbench {
namespace {

using oodb::Invocation;
using oodb::MethodContext;
using oodb::ObjectId;
using oodb::Value;

constexpr uint64_t kCells = 64;
constexpr double kTheta = 0.99;
constexpr int kOpsPerTxn = 4;
constexpr double kPutFraction = 0.20;
constexpr double kGetFraction = 0.20;
/// Generated transactions per client; the stream repeats after that.
constexpr size_t kStreamTxns = size_t{1} << 16;
/// The certified window after the timed phase. Every Cell op conflicts
/// with most others on its hot cell, so validation cost grows with the
/// square of the window: 2000 transactions take seconds.
constexpr uint64_t kAuditTxns = 500;
/// The window's inputs are the same on every run, so certify_ms compares
/// like with like.
constexpr uint64_t kAuditSeed = 0xA0D17;

struct CellState : public oodb::ObjectState {
  int64_t value = 0;
};

/// get/get and add/add commute; put conflicts with everything.
const oodb::ObjectType* CellType() {
  static const oodb::ObjectType* type = [] {
    auto spec = std::make_unique<oodb::MatrixCommutativity>();
    spec->SetCommutes("get", "get");
    spec->SetCommutes("add", "add");
    return new oodb::ObjectType("Cell", std::move(spec), /*primitive=*/true);
  }();
  return type;
}

void RegisterCellMethods(oodb::Database* db) {
  oodb::TypeRegistry::Global().Register(CellType());
  oodb::MethodTraits observer;
  observer.observer = true;
  db->Register(CellType(), "get",
               [](MethodContext& ctx, const oodb::ValueList&, Value* result) {
                 *result = Value(ctx.state<CellState>()->value);
                 return Status::OK();
               },
               observer);
  db->Register(CellType(), "add",
               [](MethodContext& ctx, const oodb::ValueList& params, Value*) {
                 ctx.state<CellState>()->value += params[0].AsInt();
                 ctx.SetCompensation(
                     Invocation("add", {Value(-params[0].AsInt())}));
                 return Status::OK();
               });
  db->Register(CellType(), "put",
               [](MethodContext& ctx, const oodb::ValueList& params, Value*) {
                 auto* cell = ctx.state<CellState>();
                 ctx.SetCompensation(Invocation("put", {Value(cell->value)}));
                 cell->value = params[0].AsInt();
                 return Status::OK();
               });
}

enum class Op : uint8_t { kGet, kPut, kAdd };

struct CellTxn {
  uint8_t n = 0;
  uint8_t key[kOpsPerTxn] = {};
  Op op[kOpsPerTxn] = {};
  bool write = false;
};

/// `n` transactions of client `client`'s stream.
std::vector<CellTxn> Generate(uint64_t seed, size_t client, size_t n) {
  oodb::ZipfGenerator zipf(kCells, kTheta,
                           seed * 0x9E3779B97F4A7C15ULL + client);
  oodb::Rng rng(seed * 1000003 + client);
  std::vector<CellTxn> stream(n);
  std::vector<uint64_t> keys;
  for (CellTxn& t : stream) {
    keys.resize(kOpsPerTxn);
    for (uint64_t& k : keys) k = zipf.Next();
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    t.n = static_cast<uint8_t>(keys.size());
    for (size_t j = 0; j < keys.size(); ++j) {
      const double dice = rng.NextDouble();
      t.key[j] = static_cast<uint8_t>(keys[j]);
      t.op[j] = dice < kPutFraction                  ? Op::kPut
                : dice < kPutFraction + kGetFraction ? Op::kGet
                                                     : Op::kAdd;
      t.write = t.write || t.op[j] != Op::kGet;
    }
  }
  return stream;
}

class CellHot : public EpochWorkload {
 public:
  explicit CellHot(const Config& config)
      : EpochWorkload(config),
        next_(config.clients),
        audit_next_(config.clients),
        calls_("cell", config.clients) {
    const uint64_t audit_per_client =
        std::max<uint64_t>(1, kAuditTxns / config.clients);
    for (size_t c = 0; c < config.clients; ++c) {
      streams_.push_back(Generate(config.seed, c, kStreamTxns));
      audits_.push_back(Generate(kAuditSeed, c, audit_per_client));
    }
  }

  Status Setup() override {
    NewDatabase();
    RegisterCellMethods(db_.get());
    cells_.clear();
    for (uint64_t k = 0; k < kCells; ++k) {
      std::string name = "c";
      name += std::to_string(k);
      cells_.push_back(db_->CreateObject(CellType(), std::move(name),
                                         std::make_unique<CellState>()));
    }
    // Preload: every cell's initial value through a committed put.
    for (uint64_t k = 0; k < kCells; ++k) {
      OODB_RETURN_IF_ERROR(
          db_->RunTransaction("preload", [&](MethodContext& txn) {
            return txn.Call(cells_[k],
                            Invocation("put", {Value(int64_t(k))}));
          }));
    }
    EndSetup();
    return Status::OK();
  }

  TxnResult Txn(size_t client) override {
    return Run(client,
               streams_[client][next_[client].value++ % kStreamTxns]);
  }

  void LayerMetrics(const PhaseStats& timed, Report* report) override {
    EpochWorkload::LayerMetrics(timed, report);
    report->Idle(kEncMetrics);
  }

  void Finish(const PhaseStats& timed, Report* report) override {
    PhaseStats audit = Audit(
        kAuditTxns,
        [this](size_t c) {
          const std::vector<CellTxn>& audit = audits_[c];
          return Run(c, audit[audit_next_[c].value++ % audit.size()]);
        },
        report);
    // Gate: every commit the clients saw is one the runtime counted.
    const uint64_t seen = timed.committed + audit.committed;
    const uint64_t counted = db_->counters().committed.load();
    if (seen != counted) {
      report->Violation("clients counted " + std::to_string(seen) +
                        " commits, RunCounters::committed says " +
                        std::to_string(counted));
    }
  }

 private:
  TxnResult Run(size_t client, const CellTxn& t) {
    Spans::Scope span("txn", /*root=*/true);
    Status st = db_->RunTransaction("cell", [&](MethodContext& txn) {
      for (size_t j = 0; j < t.n; ++j) {
        const ObjectId cell = cells_[t.key[j]];
        Status op;
        switch (t.op[j]) {
          case Op::kGet:
            op = calls_.Call(client, txn, cell, Invocation("get"));
            break;
          case Op::kPut:
            op = calls_.Call(client, txn, cell,
                             Invocation("put", {Value(int64_t(t.key[j]))}));
            break;
          case Op::kAdd:
            op = calls_.Call(client, txn, cell, Invocation("add", {Value(1)}));
            break;
        }
        OODB_RETURN_IF_ERROR(op);
      }
      return Status::OK();
    });
    return TxnResult{st, t.write};
  }

  std::vector<std::vector<CellTxn>> streams_;
  std::vector<std::vector<CellTxn>> audits_;
  std::vector<ClientCounter> next_;
  std::vector<ClientCounter> audit_next_;
  CallSite calls_;
  std::vector<ObjectId> cells_;
};

}  // namespace

std::unique_ptr<Workload> MakeCellHot(const Config& config) {
  return std::make_unique<CellHot>(config);
}

}  // namespace perfbench
