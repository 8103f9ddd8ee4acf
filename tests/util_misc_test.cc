// Coverage for the small utilities: logging, stopwatch, and the lock
// manager's contention report.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cc/lock_manager.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "paper_types.h"

namespace oodb {
namespace {

TEST(LoggingTest, LevelGating) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kNone);
  EXPECT_EQ(GetLogLevel(), LogLevel::kNone);
  OODB_ERROR("suppressed at kNone");  // must not crash
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  OODB_DEBUG("emitted at kDebug, value=" << 42);
  SetLogLevel(original);
}

TEST(LoggingTest, ConcurrentLoggingIsSafe) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kNone);  // gate off: exercise the macro path only
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        OODB_INFO("thread message " << i);
      }
    });
  }
  for (auto& t : threads) t.join();
  SetLogLevel(original);
  SUCCEED();
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  uint64_t ns = sw.ElapsedNanos();
  EXPECT_GE(ns, 15'000'000u);
  EXPECT_LT(ns, 2'000'000'000u);
  EXPECT_NEAR(sw.ElapsedSeconds(), double(sw.ElapsedNanos()) * 1e-9, 0.01);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.Restart();
  EXPECT_LT(sw.ElapsedNanos(), 15'000'000u);
}

TEST(ContentionReportTest, HottestObjectsRanked) {
  const ObjectId hot(1);
  const ObjectId cold(2);
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(20);
  LockManager lm(opts);

  // Each request comes from a child action of a top-level transaction;
  // its call sphere is {action, top}.
  const Invocation ins("insert", {Value("k")});
  const ActionId t1(0);
  const ActionId t2(1);
  uint64_t next_action = 2;
  // Collects the granted locks; the test never releases them.
  LockManager::HeldLocks held(t1);
  auto acquire = [&](ObjectId obj, ActionId top) {
    const ActionId chain[] = {ActionId(next_action++), top};
    return lm.Acquire(obj, obj == hot ? "Hot" : "Cold", testing::LeafType(),
                      ins, SphereChain{chain, 2}, top, &held);
  };
  ASSERT_TRUE(acquire(hot, t1).ok());
  // Three timed-out waits on the hot object, one on the cold one.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(acquire(hot, t2).IsDeadlock());
  }
  ASSERT_TRUE(acquire(cold, t1).ok());
  EXPECT_TRUE(acquire(cold, t2).IsDeadlock());

  auto rows = lm.HottestObjects();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, hot);
  EXPECT_EQ(rows[0].second, 3u);
  EXPECT_EQ(rows[1].first, cold);
  EXPECT_EQ(rows[1].second, 1u);

  auto top1 = lm.HottestObjects(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].first, hot);
}

TEST(ContentionReportTest, EmptyWhenNoWaits) {
  LockManager lm;
  EXPECT_TRUE(lm.HottestObjects().empty());
}

}  // namespace
}  // namespace oodb
