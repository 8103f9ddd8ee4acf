// The validator's one verdict path against a brute-force oracle, over
// random histories of three shapes:
//
//   * atomic leaf operations (what per-operation latching produces):
//     mostly accepted;
//   * freely interleaved primitives: mostly rejected by Def 13 (ii);
//   * atomic histories whose primitive timestamps are then shuffled,
//     so execution contradicts each transaction's sequential
//     precedence and Def 7 fails.
//
// The oracle recomputes `conform`, `oo_serializable` and the diagnostic
// lines without any of the validator's shortcuts: Def 7 is the
// quadratic MustPrecede/timestamp scan over every pair of executed
// primitives of a transaction, and Defs 13/16 run FindShortestCycle on
// every relation of every ObjectSchedule, cyclic or not. The validator
// instead screens conformance in linear time and searches for cycles
// only where a single combined traversal found one; both must agree
// with the oracle line for line.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "schedule/validator.h"
#include "util/random.h"
#include "workload/random_history.h"

namespace oodb {
namespace {

struct Oracle {
  bool conform = true;
  bool oo_serializable = true;
  std::vector<std::string> diagnostics;
};

std::string Render(const TransactionSystem& ts,
                   const std::vector<Digraph::NodeId>& cycle) {
  std::string out;
  for (size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) out += " -> ";
    out += ts.Describe(ActionId(cycle[i]));
  }
  return out;
}

/// `ts` must already be extended (Validate does that in place).
Oracle ComputeOracle(const TransactionSystem& ts) {
  Oracle oracle;
  DependencyEngine engine(ts);
  EXPECT_TRUE(engine.Compute().ok());
  for (const ObjectSchedule& sch : engine.schedules()) {
    const std::string prefix = "object " + ts.object(sch.object).name + ": ";
    if (auto cycle = sch.txn_deps.FindShortestCycle()) {
      oracle.diagnostics.push_back(
          prefix + "transaction dependency cycle (Def 13 i): " +
          Render(ts, *cycle));
    }
    if (auto cycle = sch.action_deps.FindShortestCycle()) {
      oracle.diagnostics.push_back(
          prefix + "contradicting action dependencies (Def 13 ii): " +
          Render(ts, *cycle));
    }
    if (sch.added_deps.EdgeCount() == 0) continue;
    if (auto cycle = sch.action_deps.FindShortestCycleWith(sch.added_deps)) {
      oracle.diagnostics.push_back(
          prefix + "added-dependency contradiction (Def 16 ii): " +
          Render(ts, *cycle));
    }
  }
  oracle.oo_serializable = oracle.diagnostics.empty();

  // Def 7: MustPrecede(a, b) => timestamp(a) < timestamp(b) for every
  // ordered pair of executed primitives of one transaction; tops in id
  // order, primitives in object order.
  std::map<uint64_t, std::vector<ActionId>> prims_by_top;
  for (ObjectId o : ts.Objects()) {
    for (ActionId a : ts.ActionsOn(o)) {
      const ActionRecord& rec = ts.action(a);
      if (rec.is_virtual || !ts.IsPrimitive(a) || rec.timestamp == 0) {
        continue;
      }
      prims_by_top[rec.top_level.value].push_back(a);
    }
  }
  for (const auto& [top, prims] : prims_by_top) {
    for (ActionId a : prims) {
      for (ActionId b : prims) {
        if (a == b || !ts.MustPrecede(a, b)) continue;
        if (ts.action(a).timestamp <= ts.action(b).timestamp) continue;
        oracle.conform = false;
        oracle.diagnostics.push_back("conformance violation: " +
                                     ts.Describe(a) + " must precede " +
                                     ts.Describe(b) +
                                     " but executed after it");
      }
    }
  }
  return oracle;
}

/// Validates `h` and checks the report against the oracle.
Oracle ExpectMatchesOracle(RandomHistory* h, const std::string& what) {
  ValidationReport report = Validator::Validate(h->ts.get());
  Oracle oracle = ComputeOracle(*h->ts);
  EXPECT_EQ(report.conform, oracle.conform) << what;
  EXPECT_EQ(report.oo_serializable, oracle.oo_serializable) << what;
  EXPECT_EQ(report.diagnostics, oracle.diagnostics) << what;
  return oracle;
}

RandomHistoryConfig Config(uint64_t seed) {
  RandomHistoryConfig config;
  config.seed = seed;
  config.num_txns = 5;
  config.ops_per_txn = 4;
  config.num_leaves = 2;
  config.keys_per_leaf = 8;
  return config;
}

constexpr uint64_t kSeeds = 40;

TEST(VerdictOracle, AtomicHistories) {
  size_t accepted = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RandomHistory h = GenerateRandomHistory(Config(seed));
    Oracle oracle = ExpectMatchesOracle(&h, "seed " + std::to_string(seed));
    EXPECT_TRUE(oracle.conform) << "seed " << seed;
    if (oracle.oo_serializable) ++accepted;
  }
  EXPECT_GT(accepted, 0u);
}

TEST(VerdictOracle, NonAtomicHistories) {
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RandomHistoryConfig config = Config(seed);
    config.atomic_ops = false;
    RandomHistory h = GenerateRandomHistory(config);
    Oracle oracle = ExpectMatchesOracle(&h, "seed " + std::to_string(seed));
    if (!oracle.oo_serializable) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

TEST(VerdictOracle, ShuffledTimestampsBreakConformance) {
  size_t nonconforming = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    RandomHistory h = GenerateRandomHistory(Config(seed));
    // Hand the executed primitives' timestamps out again in random
    // order: a transaction's later page access may now run first.
    std::vector<ActionId> prims;
    std::vector<uint64_t> stamps;
    for (size_t i = 0; i < h.ts->action_count(); ++i) {
      const ActionRecord& rec = h.ts->action(ActionId(i));
      if (rec.timestamp == 0) continue;
      prims.push_back(rec.id);
      stamps.push_back(rec.timestamp);
    }
    Rng rng(seed);
    rng.Shuffle(&stamps);
    for (size_t i = 0; i < prims.size(); ++i) {
      h.ts->SetTimestamp(prims[i], stamps[i]);
    }
    Oracle oracle = ExpectMatchesOracle(&h, "seed " + std::to_string(seed));
    if (!oracle.conform) ++nonconforming;
  }
  EXPECT_GT(nonconforming, kSeeds / 2);
}

}  // namespace
}  // namespace oodb
