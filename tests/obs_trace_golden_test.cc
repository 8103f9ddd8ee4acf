// Golden-trace contract: the fixed Fig 7 / Example 4 schedule, run
// single-threaded under a golden tracer, produces a byte-stable trace
// whose span tree matches the recorded transaction/action nesting.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "apps/encyclopedia.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "schedule/validator.h"
#include "workload/paper_worlds.h"

namespace oodb {
namespace {

struct GoldenRun {
  std::string jsonl;
  std::string chrome;
  std::vector<TraceSpan> spans;
  size_t runtime_actions = 0;  ///< action count before validation
};

/// One full instrumented Fig 7 run: the four Example 4 transactions,
/// then validation (whose extension instants also land in the trace).
GoldenRun GoldenExample4Run() {
  MetricsRegistry registry;
  Tracer tracer(TracerOptions{.golden = true, .tag = "fig7"});
  Database db;
  db.AttachObservability(&registry, &tracer);
  Status st = RunExample4(&db);
  EXPECT_TRUE(st.ok()) << st.ToString();

  GoldenRun run;
  run.runtime_actions = db.ts().action_count();

  ValidationOptions options;
  options.metrics = &registry;
  options.tracer = &tracer;
  ValidationReport report = Validator::Validate(&db.ts(), options);
  EXPECT_TRUE(report.oo_serializable) << report.Summary();

  run.jsonl = tracer.ToJsonLines();
  run.chrome = tracer.ToChromeTrace();
  run.spans = tracer.Spans();
  return run;
}

TEST(GoldenTraceTest, ByteStableAcrossRuns) {
  GoldenRun a = GoldenExample4Run();
  GoldenRun b = GoldenExample4Run();
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_FALSE(a.jsonl.empty());
  // Golden mode must keep wall-clock out of the export entirely: every
  // timestamp is a small logical tick, two per span plus instants.
  EXPECT_NE(a.jsonl.find("\"golden\":true"), std::string::npos);
}

TEST(GoldenTraceTest, PassesSchemaCheck) {
  GoldenRun run = GoldenExample4Run();
  Status st = ValidateTraceLines(run.jsonl);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(GoldenTraceTest, SpanTreeMatchesActionNesting) {
  MetricsRegistry registry;
  Tracer tracer(TracerOptions{.golden = true, .tag = "fig7"});
  Database db;
  db.AttachObservability(&registry, &tracer);
  ObjectId enc = CreateExample4World(&db);
  ASSERT_TRUE(db.RunTransaction("T1", [&](MethodContext& txn) {
                  return txn.Call(
                      enc, Encyclopedia::Insert("DBS", "database systems"));
                }).ok());
  ASSERT_TRUE(db.RunTransaction("T2", [&](MethodContext& txn) {
                  Value out;
                  return txn.Call(enc, Encyclopedia::Search("DBS"), &out);
                }).ok());

  const TransactionSystem& ts = db.ts();
  std::vector<TraceSpan> spans = tracer.Spans();
  // Every recorded action got exactly one span (span ids ARE action
  // ids), and no span refers outside the recorded system.
  EXPECT_EQ(spans.size(), ts.action_count());
  std::unordered_map<uint64_t, const TraceSpan*> by_id;
  for (const TraceSpan& s : spans) {
    ASSERT_LT(s.id, ts.action_count());
    EXPECT_TRUE(by_id.emplace(s.id, &s).second) << "duplicate " << s.id;
  }
  for (const TraceSpan& s : spans) {
    const ActionRecord& rec = ts.action(ActionId(s.id));
    EXPECT_EQ(s.parent, rec.parent.value) << s.name;
    EXPECT_EQ(s.txn, rec.top_level.value) << s.name;
    // Level == call-tree depth.
    uint32_t depth = 0;
    for (ActionId cur = rec.parent; cur.valid();
         cur = ts.action(cur).parent) {
      ++depth;
    }
    EXPECT_EQ(s.level, depth) << s.name;
    if (s.level == 0) {
      EXPECT_EQ(s.parent, ActionId::kInvalid);
      EXPECT_EQ(s.outcome, "commit");
    } else {
      // Child spans nest inside their parent's tick window.
      auto it = by_id.find(s.parent);
      ASSERT_NE(it, by_id.end()) << s.name;
      EXPECT_GE(s.start, it->second->start);
      EXPECT_LE(s.end, it->second->end);
    }
  }
}

TEST(GoldenTraceTest, MetricsSnapshotCoversRuntimeAndEngine) {
  // The registry side of the same instrumented run: runtime counters
  // and validator stats land in one snapshot.
  MetricsRegistry registry;
  Database db;
  db.AttachObservability(&registry, nullptr);
  ObjectId enc = CreateExample4World(&db);
  ASSERT_TRUE(db.RunTransaction("T1", [&](MethodContext& txn) {
                  return txn.Call(enc,
                                  Encyclopedia::Insert("DBS", "d"));
                }).ok());

  ValidationOptions options;
  options.metrics = &registry;
  ValidationReport report = Validator::Validate(&db.ts(), options);
  ASSERT_TRUE(report.oo_serializable);

  std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("db.lock.acquires"), std::string::npos);
  EXPECT_NE(json.find("db.txn.committed"), std::string::npos);
  EXPECT_NE(json.find("dep.stage.fixpoint_ns"), std::string::npos);
  EXPECT_NE(json.find("validate.oo_serializable"), std::string::npos);
  EXPECT_EQ(registry.GetGauge("validate.oo_serializable")->Value(), 1);
}

}  // namespace
}  // namespace oodb
