#include "cc/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "model/transaction_system.h"
#include "paper_types.h"

namespace oodb {
namespace {

using testing::LeafType;
using testing::PageType;

Invocation Ins(const std::string& k) {
  return Invocation("insert", {Value(k)});
}

/// Actions recorded in `ts`, each with the held-lock list the runtime
/// keeps in its MethodContext.
struct World {
  TransactionSystem ts;
  std::map<uint64_t, std::unique_ptr<LockManager::HeldLocks>> held;
  ObjectId leaf, page;
  ActionId t1, t2;

  World() {
    leaf = ts.AddObject(LeafType(), "Leaf");
    page = ts.AddObject(PageType(), "Page");
    t1 = Begin("T1");
    t2 = Begin("T2");
  }

  ActionId Begin(const std::string& name) {
    return Track(ts.BeginTopLevel(name));
  }
  ActionId Call(ActionId parent, ObjectId obj, const Invocation& inv,
                bool sequential = true) {
    return Track(ts.Call(parent, obj, inv, sequential));
  }
  LockManager::HeldLocks* Held(ActionId action) const {
    return held.at(action.value).get();
  }

 private:
  ActionId Track(ActionId action) {
    held[action.value] = std::make_unique<LockManager::HeldLocks>(action);
    return action;
  }
};

/// Acquires as the runtime does: the caller supplies the object's name
/// and the requester's call sphere (`action`, then its ancestors), both
/// read here from `w.ts`, and the action's held-lock list. Record every
/// action before starting threads that call this, so the reads never
/// race an append.
Status Acquire(LockManager& lm, const World& w, ObjectId obj,
               const ObjectType* type, const Invocation& inv,
               ActionId action, ActionId top,
               LockSemantics semantics = LockSemantics::kCommutativity,
               bool hold_at_top = false) {
  std::vector<ActionId> chain;
  for (ActionId cur = action; cur.valid(); cur = w.ts.action(cur).parent) {
    chain.push_back(cur);
  }
  return lm.Acquire(obj, w.ts.object(obj).name, type, inv,
                    SphereChain{chain.data(), chain.size()}, top,
                    w.Held(action), semantics, hold_at_top);
}

TEST(LockManagerTest, CommutingLocksGrantImmediately) {
  World w;
  LockManager lm;
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId b = w.Call(w.t2, w.leaf, Ins("y"));
  EXPECT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  EXPECT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("y"), b, w.t2).ok());
  EXPECT_EQ(lm.LockCount(), 2u);
  EXPECT_EQ(lm.wait_count(), 0u);
}

TEST(LockManagerTest, ConflictBlocksUntilRelease) {
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(2000);
  LockManager lm(opts);
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId b = w.Call(w.t2, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());

  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    Status st = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), b, w.t2);
    granted = st.ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  // T1 completes its action and then commits: lock unwinds.
  lm.PassUp(w.Held(a), w.Held(w.t1));
  lm.Release(w.Held(w.t1));
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_GE(lm.wait_count(), 1u);
}

TEST(LockManagerTest, SphereAllowsDescendants) {
  // A child action may acquire a mode conflicting with a lock held by
  // its own ancestor.
  World w;
  LockManager lm;
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  ActionId split = w.Call(a, w.leaf, Invocation("rearrange"));
  EXPECT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Invocation("rearrange"),
                      split, w.t1)
                  .ok());
}

TEST(LockManagerTest, PassUpKeepsBlockingNonDescendants) {
  // After the child completes, the parent retains the semantic lock:
  // conflicting outsiders still wait; commuting outsiders pass.
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(100);
  LockManager lm(opts);
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  lm.PassUp(w.Held(a), w.Held(w.t1));  // lock now retained by T1
  EXPECT_EQ(lm.LockCount(), 1u);

  // Commuting request: granted.
  ActionId b = w.Call(w.t2, w.leaf, Ins("y"));
  EXPECT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("y"), b, w.t2).ok());
  // Conflicting request: times out (T1 never commits in this test).
  ActionId c = w.Call(w.t2, w.leaf, Ins("x"));
  Status st = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), c, w.t2);
  EXPECT_TRUE(st.IsDeadlock());  // timeout surfaces as deadlock
}

TEST(LockManagerTest, TopLevelCompletionReleasesEverything) {
  World w;
  LockManager lm;
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId p = w.Call(a, w.page, Invocation("write"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  ASSERT_TRUE(
      Acquire(lm, w, w.page, PageType(), Invocation("write"), p, w.t1).ok());
  // p completes -> its lock passes to a; the page lock is owned by p.
  lm.PassUp(w.Held(p), w.Held(a));
  EXPECT_EQ(lm.LockCount(), 2u);
  // a completes -> p's page lock is released, a's leaf lock passes to T1.
  lm.PassUp(w.Held(a), w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 1u);
  // Commit.
  lm.Release(w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 0u);
}

TEST(LockManagerTest, EarlyPageLockReleaseIsTheOpenNestedWin) {
  // Two transactions write the same page under commuting leaf inserts:
  // T2's page write must be granted as soon as T1's *leaf insert*
  // completes, long before T1 commits.
  World w;
  LockManager lm;
  ActionId a1 = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId p1 = w.Call(a1, w.page, Invocation("write"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a1, w.t1).ok());
  ASSERT_TRUE(
      Acquire(lm, w, w.page, PageType(), Invocation("write"), p1, w.t1).ok());
  lm.PassUp(w.Held(p1), w.Held(a1));
  lm.PassUp(w.Held(a1), w.Held(w.t1));  // leaf insert done; page lock gone

  ActionId a2 = w.Call(w.t2, w.leaf, Ins("y"));
  ActionId p2 = w.Call(a2, w.page, Invocation("write"));
  EXPECT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("y"), a2, w.t2).ok());
  EXPECT_TRUE(
      Acquire(lm, w, w.page, PageType(), Invocation("write"), p2, w.t2).ok());
  EXPECT_EQ(lm.wait_count(), 0u);  // nobody ever blocked
}

TEST(LockManagerTest, FlatHoldAtTopBlocksUntilCommit) {
  // The same scenario under flat 2PL (hold_at_top): T2 must wait.
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(100);
  LockManager lm(opts);
  ActionId a1 = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId p1 = w.Call(a1, w.page, Invocation("write"));
  ASSERT_TRUE(Acquire(lm, w, w.page, PageType(), Invocation("write"), p1,
                      w.t1, LockSemantics::kCommutativity,
                      /*hold_at_top=*/true)
                  .ok());
  lm.PassUp(w.Held(p1), w.Held(a1));
  lm.PassUp(w.Held(a1), w.Held(w.t1));

  ActionId a2 = w.Call(w.t2, w.leaf, Ins("y"));
  ActionId p2 = w.Call(a2, w.page, Invocation("write"));
  Status st = Acquire(lm, w, w.page, PageType(), Invocation("write"), p2,
                      w.t2, LockSemantics::kCommutativity,
                      /*hold_at_top=*/true);
  EXPECT_TRUE(st.IsDeadlock());  // would wait for T1's commit; times out
}

TEST(LockManagerTest, AnchoredLocksRideAlongUntilTopRelease) {
  // A lock anchored at the top on acquire is not the completing
  // action's child lock to release: it moves up with every completion
  // and goes only when the top-level list is released.
  World w;
  LockManager lm;
  ActionId a1 = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId p1 = w.Call(a1, w.page, Invocation("write"));
  ASSERT_TRUE(Acquire(lm, w, w.page, PageType(), Invocation("write"), p1,
                      w.t1, LockSemantics::kCommutativity,
                      /*hold_at_top=*/true)
                  .ok());
  lm.PassUp(w.Held(p1), w.Held(a1));
  lm.PassUp(w.Held(a1), w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 1u);
  lm.Release(w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 0u);
}

TEST(LockManagerTest, ClosedPassUpKeepsChildrenLocks) {
  World w;
  LockManager lm;
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId p = w.Call(a, w.page, Invocation("write"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  ASSERT_TRUE(
      Acquire(lm, w, w.page, PageType(), Invocation("write"), p, w.t1).ok());
  lm.PassUp(w.Held(p), w.Held(a), /*release_children=*/false);
  lm.PassUp(w.Held(a), w.Held(w.t1), /*release_children=*/false);
  EXPECT_EQ(lm.LockCount(), 2u);
  lm.Release(w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 0u);
}

TEST(LockManagerTest, ConcurrentPassUpsIntoOneParent) {
  // Parallel branches complete at once and pass their locks up into the
  // same parent list; the parent's completion then releases them all.
  constexpr int kBranches = 8;
  World w;
  LockManager lm;
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  std::vector<ActionId> branches;
  for (int i = 0; i < kBranches; ++i) {
    branches.push_back(w.Call(a, w.leaf, Ins("k" + std::to_string(i)),
                              /*sequential=*/false));
  }
  std::vector<std::thread> threads;
  std::atomic<int> granted{0};
  for (int i = 0; i < kBranches; ++i) {
    threads.emplace_back([&, i] {
      if (Acquire(lm, w, w.leaf, LeafType(), Ins("k" + std::to_string(i)),
                  branches[i], w.t1)
              .ok()) {
        granted.fetch_add(1);
      }
      lm.PassUp(w.Held(branches[i]), w.Held(a));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), kBranches);
  EXPECT_EQ(lm.LockCount(), static_cast<size_t>(kBranches));
  lm.PassUp(w.Held(a), w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 0u);
}

TEST(LockManagerTest, ExclusiveSemanticsConflictEvenWhenCommuting) {
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(100);
  LockManager lm(opts);
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId b = w.Call(w.t2, w.leaf, Ins("y"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1,
                      LockSemantics::kExclusive, true)
                  .ok());
  Status st = Acquire(lm, w, w.leaf, LeafType(), Ins("y"), b, w.t2,
                      LockSemantics::kExclusive, true);
  EXPECT_TRUE(st.IsDeadlock());
}

TEST(LockManagerTest, DeadlockDetectedOnCycle) {
  // T1 holds leaf.x, T2 holds page.write; T1 requests page.write (waits
  // on T2), T2 requests leaf.x -> cycle -> kDeadlock for T2.
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(5000);
  LockManager lm(opts);
  ActionId a1 = w.Call(w.t1, w.leaf, Ins("x"));
  ActionId b2 = w.Call(w.t2, w.page, Invocation("write"));
  ActionId p1 = w.Call(w.t1, w.page, Invocation("write"));
  ActionId l2 = w.Call(w.t2, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a1, w.t1).ok());
  ASSERT_TRUE(
      Acquire(lm, w, w.page, PageType(), Invocation("write"), b2, w.t2).ok());

  std::atomic<bool> t1_done{false};
  Status t1_status;
  std::thread t1_thread([&] {
    t1_status =
        Acquire(lm, w, w.page, PageType(), Invocation("write"), p1, w.t1);
    t1_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(t1_done.load());

  Status t2_status = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), l2, w.t2);
  EXPECT_TRUE(t2_status.IsDeadlock());
  EXPECT_GE(lm.deadlock_count(), 1u);

  // T2 aborts: releases its locks; T1 proceeds.
  lm.Release(w.Held(b2));
  t1_thread.join();
  EXPECT_TRUE(t1_status.ok());
}

TEST(LockManagerTest, SpinHandoffGrantsPromptlyAndCountsOneWait) {
  // The holder releases as soon as the waiter is seen blocked, so in
  // some rounds the release lands while the waiter is still spinning. A
  // release lost between the spin and the park would strand that
  // waiter until its timeout.
  constexpr int kRounds = 200;
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(1000);
  LockManager lm(opts);
  const size_t s = lm.ShardOf(w.page);
  ActionId a = w.Call(w.t1, w.page, Invocation("write"));
  ActionId b = w.Call(w.t2, w.page, Invocation("write"));
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(Acquire(lm, w, w.page, PageType(), Invocation("write"), a,
                        w.t1)
                    .ok());
    Status waiter_status;
    std::thread waiter([&] {
      waiter_status =
          Acquire(lm, w, w.page, PageType(), Invocation("write"), b, w.t2);
    });
    // Busy-poll: a yield here usually lets the spin budget run out
    // before the release lands.
    while (lm.Occupancy()[s].waiters == 0) {
    }
    lm.Release(w.Held(a));
    waiter.join();
    ASSERT_TRUE(waiter_status.ok()) << "round " << round << ": "
                                    << waiter_status.message();
    lm.Release(w.Held(b));
  }
  EXPECT_EQ(lm.wait_count(), static_cast<uint64_t>(kRounds));
  EXPECT_GT(lm.PerShardStats()[s].wait_ns, 0u);
  EXPECT_EQ(lm.Occupancy()[s].waiters, 0u);
}

TEST(LockManagerTest, WaitTimeoutCoversTheSpin) {
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::milliseconds(20);
  LockManager lm(opts);
  ActionId a = w.Call(w.t1, w.page, Invocation("write"));
  ActionId b = w.Call(w.t2, w.page, Invocation("write"));
  ASSERT_TRUE(
      Acquire(lm, w, w.page, PageType(), Invocation("write"), a, w.t1).ok());
  auto start = std::chrono::steady_clock::now();
  Status st =
      Acquire(lm, w, w.page, PageType(), Invocation("write"), b, w.t2);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(st.IsDeadlock());
  EXPECT_NE(st.message().find("lock wait timeout"), std::string::npos);
  EXPECT_GE(elapsed, std::chrono::milliseconds(20));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(lm.Occupancy()[lm.ShardOf(w.page)].waiters, 0u);
}

TEST(LockManagerTest, ConflictingWritersExcludeEachOther) {
  // Four transactions cycle Page.write locks on one page; the counter
  // is a plain int touched only under the lock, so a lost update (or a
  // ThreadSanitizer report) means two writers held it at once.
  constexpr int kThreads = 4;
  constexpr int kCycles = 20000;
  World w;
  LockManagerOptions opts;
  opts.wait_timeout = std::chrono::seconds(60);
  LockManager lm(opts);
  std::vector<ActionId> tops, actions;
  for (int i = 0; i < kThreads; ++i) {
    tops.push_back(w.Begin("W" + std::to_string(i)));
    actions.push_back(w.Call(tops.back(), w.page, Invocation("write")));
  }
  int counter = 0;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int c = 0; c < kCycles; ++c) {
        if (!Acquire(lm, w, w.page, PageType(), Invocation("write"),
                     actions[i], tops[i])
                 .ok()) {
          failures.fetch_add(1);
          return;
        }
        ++counter;
        lm.Release(w.Held(actions[i]));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counter, kThreads * kCycles);
  EXPECT_EQ(lm.LockCount(), 0u);
  EXPECT_EQ(lm.Occupancy()[lm.ShardOf(w.page)].waiters, 0u);
}

TEST(LockManagerTest, DeadlockDetectedWhenBothRequestersBlockAtOnce) {
  // Both transactions request the other's lock at the same moment, so
  // the first to block is usually still spinning when the second closes
  // the cycle. Exactly one is the victim; the survivor is granted once
  // the victim releases.
  for (int round = 0; round < 50; ++round) {
    World w;
    LockManagerOptions opts;
    opts.wait_timeout = std::chrono::milliseconds(5000);
    LockManager lm(opts);
    ActionId a1 = w.Call(w.t1, w.leaf, Ins("x"));
    ActionId b2 = w.Call(w.t2, w.page, Invocation("write"));
    ActionId p1 = w.Call(w.t1, w.page, Invocation("write"));
    ActionId l2 = w.Call(w.t2, w.leaf, Ins("x"));
    ASSERT_TRUE(
        Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a1, w.t1).ok());
    ASSERT_TRUE(Acquire(lm, w, w.page, PageType(), Invocation("write"), b2,
                        w.t2)
                    .ok());

    std::atomic<int> ready{0};
    auto start_together = [&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
    };
    // The victim aborts: everything its transaction holds goes.
    Status s1, s2;
    std::thread t1([&] {
      start_together();
      s1 =
          Acquire(lm, w, w.page, PageType(), Invocation("write"), p1, w.t1);
      if (s1.IsDeadlock()) lm.Release(w.Held(a1));
    });
    std::thread t2([&] {
      start_together();
      s2 = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), l2, w.t2);
      if (s2.IsDeadlock()) lm.Release(w.Held(b2));
    });
    t1.join();
    t2.join();
    ASSERT_NE(s1.IsDeadlock(), s2.IsDeadlock()) << "round " << round;
    EXPECT_TRUE(s1.ok() || s2.ok());
    EXPECT_NE((s1.IsDeadlock() ? s1 : s2).message().find("waits-for cycle"),
              std::string::npos);
    EXPECT_EQ(lm.deadlock_count(), 1u);
  }
}

TEST(LockManagerTest, WaitDieYoungerRequesterDies) {
  World w;  // t1 created before t2: t1 is older
  LockManagerOptions opts;
  opts.deadlock_policy = DeadlockPolicy::kWaitDie;
  LockManager lm(opts);
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  ActionId b = w.Call(w.t2, w.leaf, Ins("x"));
  Status st = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), b, w.t2);
  EXPECT_TRUE(st.IsDeadlock());
  EXPECT_NE(st.message().find("wait-die"), std::string::npos);
  EXPECT_EQ(lm.deadlock_count(), 1u);
}

TEST(LockManagerTest, WaitDieOlderRequesterWaits) {
  World w;
  LockManagerOptions opts;
  opts.deadlock_policy = DeadlockPolicy::kWaitDie;
  opts.wait_timeout = std::chrono::milliseconds(2000);
  LockManager lm(opts);
  // Younger t2 holds; older t1 must wait, then get the lock.
  ActionId b = w.Call(w.t2, w.leaf, Ins("x"));
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), b, w.t2).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    granted = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.PassUp(w.Held(b), w.Held(w.t2));
  lm.Release(w.Held(w.t2));
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, WaitDieAllowsIntraTransactionWaits) {
  // A parallel sibling of the same transaction is neither older nor
  // younger: the wait is allowed and resolves by pass-up.
  World w;
  LockManagerOptions opts;
  opts.deadlock_policy = DeadlockPolicy::kWaitDie;
  opts.wait_timeout = std::chrono::milliseconds(2000);
  LockManager lm(opts);
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"), false);
  ActionId b = w.Call(w.t1, w.leaf, Ins("x"), false);
  w.ts.SetProcess(b, 1);
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    granted = Acquire(lm, w, w.leaf, LeafType(), Ins("x"), b, w.t1).ok();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(granted.load());
  lm.PassUp(w.Held(a), w.Held(w.t1));  // pass-up: holder becomes the ancestor
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockManagerTest, PolicyNames) {
  EXPECT_STREQ(DeadlockPolicyName(DeadlockPolicy::kDetect), "detect");
  EXPECT_STREQ(DeadlockPolicyName(DeadlockPolicy::kWaitDie), "wait-die");
}

TEST(LockManagerTest, ReleaseCleansUp) {
  World w;
  LockManager lm;
  ActionId a = w.Call(w.t1, w.leaf, Ins("x"));
  ASSERT_TRUE(Acquire(lm, w, w.leaf, LeafType(), Ins("x"), a, w.t1).ok());
  lm.PassUp(w.Held(a), w.Held(w.t1));
  lm.Release(w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 0u);
  // Second release is a no-op.
  lm.Release(w.Held(w.t1));
  EXPECT_EQ(lm.LockCount(), 0u);
}

}  // namespace
}  // namespace oodb
