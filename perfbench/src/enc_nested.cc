// enc-nested: the paper's Fig 2 encyclopedia (Enc -> BpTree -> Node ->
// Leaf -> LeafPage, items sharing item pages).
//
// 50k preloaded items, uniform keys, 60% search / 40% change; same
// runtime configuration as cell-hot. Deep call trees make dispatch,
// nested lock acquire and lock pass-up dominate, with little lock
// waiting. After the timed phase one client inserts a fixed number of
// fresh keys, then a fixed audit (Zipf 0.9, 50% search / 50% change) is
// recorded and certified: the only workload where the validator does
// substantial work.
//
// Inserts run on one client because concurrent ones occasionally fail:
// an insert that deadlocks after adding its key to the tree is retried,
// and the retry finds that key, which the aborted attempt did not take
// out (AlreadyExists). A lone client never deadlocks, so no operation of
// this workload fails.

#include <cstdio>

#include "apps/encyclopedia.h"
#include "common.h"
#include "containers/bptree_inspect.h"
#include "util/random.h"

namespace perfbench {
namespace {

using oodb::Encyclopedia;
using oodb::MethodContext;
using oodb::Value;

constexpr uint32_t kPreload = 50000;
constexpr double kSearchFraction = 0.60;  // the rest change
constexpr size_t kStreamOps = size_t{1} << 16;
constexpr uint64_t kInsertTxns = 2000;
constexpr uint64_t kAuditTxns = 2000;
constexpr double kAuditTheta = 0.9;
/// The audit's inputs are the same on every run, so certify_ms compares
/// like with like.
constexpr uint64_t kAuditSeed = 0xA0D17;

enum class Op : uint8_t { kSearch, kChange, kInsert };

struct EncOp {
  Op op;
  uint32_t key;  ///< index of a preloaded key
};

std::string Key(uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06u", i);
  return buf;
}

class EncNested : public EpochWorkload {
 public:
  explicit EncNested(const Config& config)
      : EpochWorkload(config),
        streams_(config.clients),
        audits_(config.clients),
        next_(config.clients),
        audit_next_(config.clients),
        search_("apps.enc.search_us", config.clients),
        change_("apps.enc.change_us", config.clients),
        insert_("apps.enc.insert_us", config.clients) {
    const uint64_t audit_per_client =
        std::max<uint64_t>(1, kAuditTxns / config.clients);
    for (size_t c = 0; c < config.clients; ++c) {
      oodb::Rng rng(config.seed * 1000003 + c);
      streams_[c].resize(kStreamOps);
      for (EncOp& e : streams_[c]) {
        e.op = rng.NextDouble() < kSearchFraction ? Op::kSearch : Op::kChange;
        e.key = static_cast<uint32_t>(rng.NextBelow(kPreload));
      }
      oodb::ZipfGenerator zipf(kPreload, kAuditTheta,
                               kAuditSeed * 0x9E3779B97F4A7C15ULL + c);
      oodb::Rng audit_rng(kAuditSeed * 1000003 + c);
      for (uint64_t i = 0; i < audit_per_client; ++i) {
        audits_[c].push_back(EncOp{
            audit_rng.NextBool() ? Op::kSearch : Op::kChange,
            static_cast<uint32_t>(zipf.Next())});
      }
    }
    // Seeded apart from the clients' streams, which use c < clients.
    oodb::Rng insert_rng(config.seed * 1000003 + config.clients);
    for (uint64_t i = 0; i < kInsertTxns; ++i) {
      inserts_.push_back(EncOp{
          Op::kInsert, static_cast<uint32_t>(insert_rng.NextBelow(kPreload))});
    }
  }

  Status Setup() override {
    NewDatabase();
    Encyclopedia::RegisterMethods(db_.get());
    enc_ = Encyclopedia::Create(db_.get(), "Enc");
    for (uint32_t i = 0; i < kPreload; ++i) {
      const std::string key = Key(i);
      OODB_RETURN_IF_ERROR(
          db_->RunTransaction("preload", [&](MethodContext& txn) {
            return txn.Call(enc_, Encyclopedia::Insert(key, "item-" + key));
          }));
      if (i % 1024 == 0) db_->AdvanceEpoch();
    }
    EndSetup();
    return Status::OK();
  }

  TxnResult Txn(size_t client) override {
    const EncOp& e = streams_[client][next_[client].value++ % kStreamOps];
    return Run(client, e);
  }

  void LayerMetrics(const PhaseStats& timed, Report* report) override {
    EpochWorkload::LayerMetrics(timed, report);
    for (CallSite* site : {&search_, &change_}) {
      report->Set(site->metric(), site->P50Us(), "us");
    }
  }

  void Finish(const PhaseStats&, Report* report) override {
    // The inserts: one client, with the flusher the runtime needs.
    flusher_->Start();
    report->CountPhase(RunClients(1, 0, kInsertTxns, nullptr, [this](size_t c) {
      return Run(c, inserts_[insert_next_]);
    }));
    flusher_->Stop();
    if (Spans::enabled()) {
      report->Set(insert_.metric(), insert_.P50Us(), "us");
    }
    Audit(
        kAuditTxns,
        [this](size_t c) {
          const std::vector<EncOp>& audit = audits_[c];
          return Run(c, audit[audit_next_[c].value++ % audit.size()]);
        },
        report);
    // Gate: every preloaded key and every committed insert is in the
    // tree, and the tree's B-link invariants hold.
    const oodb::ObjectId tree = db_->StateOf<oodb::EncState>(enc_)->tree;
    oodb::BpTreeInspection inspection = oodb::InspectBpTree(db_.get(), tree);
    if (!inspection.ok) {
      report->Violation("B+ tree invariants: " + inspection.problems[0]);
    }
    size_t missing = 0;
    std::string example;
    auto check = [&](const std::string& key) {
      if (inspection.contents.count(key) == 0) {
        if (missing++ == 0) example = key;
      }
    };
    for (uint32_t i = 0; i < kPreload; ++i) check(Key(i));
    for (const std::string& key : inserted_) check(key);
    std::printf("enc: %zu items in the tree (depth %zu), %zu inserted by "
                "committed transactions\n",
                inspection.contents.size(), inspection.depth,
                inserted_.size());
    if (missing > 0) {
      report->Violation(std::to_string(missing) +
                        " committed keys are missing from the tree, e.g. " +
                        example);
    }
  }

 private:
  TxnResult Run(size_t client, const EncOp& e) {
    Spans::Scope span("txn", /*root=*/true);
    Status st;
    switch (e.op) {
      case Op::kSearch:
        st = db_->RunTransaction("search", [&](MethodContext& txn) {
          Value out;
          return search_.Call(client, txn, enc_,
                              Encyclopedia::Search(Key(e.key)), &out);
        });
        break;
      case Op::kChange:
        st = db_->RunTransaction("change", [&](MethodContext& txn) {
          return change_.Call(client, txn, enc_,
                              Encyclopedia::Change(Key(e.key), "changed"));
        });
        break;
      case Op::kInsert: {
        // A fresh key sorted right after a uniform preloaded one, so
        // inserts spread over the whole tree.
        const std::string key =
            Key(e.key) + "-" + std::to_string(insert_next_++);
        st = db_->RunTransaction("insert", [&](MethodContext& txn) {
          return insert_.Call(client, txn, enc_,
                              Encyclopedia::Insert(key, "item-" + key));
        });
        if (st.ok()) inserted_.push_back(key);
        break;
      }
    }
    return TxnResult{st, e.op != Op::kSearch};
  }

  std::vector<std::vector<EncOp>> streams_;
  std::vector<std::vector<EncOp>> audits_;
  std::vector<EncOp> inserts_;
  std::vector<ClientCounter> next_;
  std::vector<ClientCounter> audit_next_;
  /// The next insert and the keys of the committed ones; only the one
  /// inserting client touches them.
  uint64_t insert_next_ = 0;
  std::vector<std::string> inserted_;
  CallSite search_, change_, insert_;
  oodb::ObjectId enc_;
};

}  // namespace

std::unique_ptr<Workload> MakeEncNested(const Config& config) {
  return std::make_unique<EncNested>(config);
}

}  // namespace perfbench
