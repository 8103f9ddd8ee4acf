// LockManager: semantic locking for open nested transactions.
//
// This is the runtime protocol that *produces* oo-serializable schedules
// (the paper defines the correctness criterion and names locking as the
// protocol family; the concrete rules follow the multi-level transaction
// literature it builds on [1, 3, 11, 23, 24], generalized to arbitrary
// call trees):
//
//   * When an action a starts on object O it acquires a lock in mode
//     "invocation of a". Compatibility is the commutativity
//     specification of O's type (Def 9): two locks are compatible iff
//     their invocations commute.
//   * Locks held anywhere inside the requester's own call sphere (the
//     lock's current holder is the requester or one of its ancestors)
//     are always compatible: a transaction never blocks on itself.
//   * When a completes, the locks its children passed up to it are
//     released (their effects are now covered by a's own semantic lock),
//     and a's own lock passes up to a's parent, which retains it until
//     it completes in turn. At top-level commit everything unwinds.
//   * Aborts run compensating actions under the normal protocol, then
//     release like a commit.
//
// Two degenerate modes support the baselines: holding every lock
// directly at the top level until commit (flat two-phase locking — with
// page read/write modes this is the conventional scheduler; with
// exclusive whole-object locks it is the section 1 strawman).
//
// Deadlocks are detected on a waits-for graph over top-level
// transactions; the requester that would close a cycle receives
// kDeadlock and is expected to abort. Intra-transaction waits
// (parallel sibling processes) are exempt from detection and resolved
// by lock pass-up, with a timeout as the safety net.
//
// Held locks. The manager keeps no index from actions to the locks they
// hold. Each action owns a HeldLocks list (the runtime keeps it in the
// action's MethodContext) holding the locks whose fate is decided when
// that action ends: its own lock and the ones its completed children
// passed up. Acquire appends to the requester's list; completion moves
// entries into the parent's list or releases them.
//
// Sharding. The lock table is partitioned into `shards` stripes by a
// hash of the object id: each stripe has its own latch, wait condvar
// and lock lists, so acquires and releases on objects in different
// stripes never contend. Only the waits-for graph stays global
// (deadlock cycles thread through objects in arbitrary stripes); it
// lives behind its own mutex and is touched only on the blocked path.
// shards=1 (the default) reproduces the pre-sharding runtime.
//
// Wakeups: spin, then park. A blocked Acquire first runs deadlock
// detection (or wait-die) and publishes its waits-for edges, then
// releases the stripe latch and spins for a few microseconds on the
// stripe's release generation, a counter every release that finds
// waiters bumps under the latch. A holder's remaining critical section
// is usually shorter than a futex sleep/wake plus reschedule, so most
// waiters see the generation move while spinning and rescan at once.
// Only a waiter whose spin budget runs out parks on the stripe condvar,
// after re-checking the generation under the latch (no lost wakeup).
// A release wakes only its own stripe's waiters, spinning or parked.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "model/ids.h"
#include "model/invocation.h"
#include "model/object_type.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace oodb {

/// How a lock's compatibility is decided.
enum class LockSemantics {
  kCommutativity,  ///< the object type's commutativity spec (Def 9)
  kExclusive,      ///< conflicts with everything outside the sphere
};

/// How deadlocks are handled.
enum class DeadlockPolicy {
  /// Detection: build the waits-for graph; the requester that would
  /// close a cycle receives kDeadlock (the default).
  kDetect,
  /// Avoidance (wait-die): a requester may wait only for *younger*
  /// top-level transactions (larger ids); one blocked by an older
  /// transaction dies immediately. Deadlock-free by construction; more
  /// aborts under contention. (Retried transactions get fresh, younger
  /// ids here, so the classical no-starvation argument is weakened —
  /// see the S7 bench.)
  kWaitDie,
};

const char* DeadlockPolicyName(DeadlockPolicy policy);

struct LockManagerOptions {
  /// Upper bound on one Acquire call; expiring counts as deadlock (the
  /// safety net for undetected intra-transaction deadlocks).
  std::chrono::milliseconds wait_timeout{2000};
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kDetect;
  /// Lock-table stripes. 1 (the default) is the original single-table
  /// runtime; 0 resolves to the hardware thread count. Capped at
  /// kMaxShards.
  size_t shards = 1;
};

/// The requester's call sphere as a flat id array: the acquiring action
/// first, then its ancestors up to the top-level transaction. Sphere
/// membership is a linear scan over ids the requesting thread owns, so
/// the manager never reads the execution record.
struct SphereChain {
  const ActionId* ids = nullptr;
  size_t len = 0;
};

/// Per-shard tallies, read without any shard latch (relaxed atomics
/// snapshotted into plain integers). The throughput driver reports
/// these per stripe so hot-stripe imbalance is visible.
struct LockShardStats {
  uint64_t acquires = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  uint64_t wait_ns = 0;  ///< total blocked time observed in this shard
};

/// Thread-safe semantic lock table for one Database.
class LockManager {
 private:
  struct Lock;

 public:
  /// Upper bound on the stripe count.
  static constexpr size_t kMaxShards = 64;

  /// The locks whose fate is decided when one action ends: the ones it
  /// acquired and the ones its completed children passed up to it. The
  /// caller owns the list and keeps it alive while it holds entries;
  /// only the lock manager reads or changes it. The mutex serializes
  /// children completing concurrently (parallel branches passing up
  /// into the same parent).
  class HeldLocks {
   public:
    explicit HeldLocks(ActionId action) : action_(action) {}
    HeldLocks(const HeldLocks&) = delete;
    HeldLocks& operator=(const HeldLocks&) = delete;

   private:
    friend class LockManager;
    /// Takes every entry out of the list.
    std::vector<Lock*> Take();
    void Add(Lock* lock);
    void Add(const std::vector<Lock*>& locks);

    const ActionId action_;
    std::mutex mu_;
    std::vector<Lock*> locks_;
  };

  explicit LockManager(LockManagerOptions options = {});

  /// Acquires a lock on `obj` in mode `inv` for the requester `chain`
  /// (its first id is the acquiring action, the rest its ancestors up to
  /// the top-level transaction `top`) and records it in `held`, the
  /// acquiring action's list. Blocks while incompatible locks exist.
  /// When `hold_at_top` is true the lock is immediately anchored at the
  /// top-level transaction (flat 2PL / strawman modes, pre-passed
  /// primitives). `name` is the object's name, quoted by the deadlock
  /// and timeout verdicts.
  ///
  /// Returns OK, or kDeadlock when waiting would close a waits-for cycle
  /// or exceed the timeout (nothing is recorded then).
  Status Acquire(ObjectId obj, const std::string& name,
                 const ObjectType* type, const Invocation& inv,
                 const SphereChain& chain, ActionId top, HeldLocks* held,
                 LockSemantics semantics = LockSemantics::kCommutativity,
                 bool hold_at_top = false);

  /// Lock pass-up when the action owning `held` ends: its own lock
  /// transfers to `parent`, and the locks its children passed up are
  /// released. Locks anchored above the action (hold_at_top) move into
  /// `parent` without a stripe visit: their holder is already there.
  /// `held` is empty afterwards.
  ///
  /// With `release_children` false (closed nested transactions [12]),
  /// nothing is released early: every lock the action holds — its own
  /// and the ones inherited from completed children — transfers to the
  /// parent and is only released at top-level completion. "By the use
  /// of conventional transactions and closed nested transactions only
  /// top-level-transactions are isolated from each other."
  void PassUp(HeldLocks* held, HeldLocks* parent,
              bool release_children = true);

  /// Releases every lock in `held` (top-level commit/abort, or cleanup
  /// of a failed action) and leaves it empty.
  void Release(HeldLocks* held);

  /// Number of locks currently in the table (for tests).
  size_t LockCount() const;

  /// Stripe geometry: the shard of `obj`, and how many there are.
  size_t ShardOf(ObjectId obj) const {
    // Fibonacci mix: consecutive ids (the common allocation pattern)
    // must spread across stripes.
    return static_cast<size_t>((obj.value * 0x9E3779B97F4A7C15ULL) >> 40) %
           shards_.size();
  }
  size_t shard_count() const { return shards_.size(); }

  /// Per-shard counters since construction, index = shard.
  std::vector<LockShardStats> PerShardStats() const;

  /// Publishes into `registry` from now on: db.lock.acquires/waits/
  /// deadlocks counters and the db.lock.wait_ns histogram (wait time per
  /// blocked Acquire, including the waits that end in a deadlock
  /// verdict). Pass nullptr to detach. Attach before traffic; not
  /// synchronized against concurrent Acquire calls.
  void AttachMetrics(MetricsRegistry* registry);

  /// Observability counters: sums of the per-stripe tallies. Safe to
  /// read concurrently with running transactions (the stripe counters
  /// are atomic; writers update them under the shard latches, monitors
  /// read them lock-free).
  uint64_t wait_count() const;
  uint64_t deadlock_count() const;

  /// Per-object contention: (object, waits observed on it), sorted by
  /// waits descending, at most `top_n` rows. For hotspot reports.
  std::vector<std::pair<ObjectId, uint64_t>> HottestObjects(
      size_t top_n = 10) const;

  /// Instantaneous per-stripe state for contention heatmaps: locks in
  /// the stripe's table, threads blocked in its wait loop, plus the
  /// cumulative waits/wait_ns tallies. Reads the per-stripe atomic
  /// tallies only — O(shards), no latch, no table scan — so a 10 ms
  /// sampler tick costs the workload nothing. The rows are mutually
  /// staggered relaxed reads (bounded staleness, no global pause — the
  /// property the MetricsSampler is built around).
  struct StripeOccupancy {
    size_t held = 0;     ///< locks currently in the stripe's table
    size_t waiters = 0;  ///< threads blocked in the stripe's wait loop,
                         ///< spinning or parked
    uint64_t waits = 0;  ///< cumulative blocked Acquires
    uint64_t wait_ns = 0;  ///< cumulative blocked time
  };
  std::vector<StripeOccupancy> Occupancy() const;

  /// Current waits-for graph size (blocked top-level transactions and
  /// the edges among them). Non-blocking: returns false (outputs
  /// untouched) when the graph latch is contended, so a sampler probe
  /// keeps its previous values instead of stalling behind a deadlock
  /// check.
  bool WaitsForSize(size_t* nodes, size_t* edges) const;

 private:
  struct Lock {
    ObjectId object;
    const ObjectType* type;
    Invocation inv;
    ActionId owner;    ///< action that acquired it (never changes)
    /// Current holder; moves up the tree. Written under the stripe
    /// latch by the thread whose HeldLocks list has the lock; sphere
    /// checks read it under the latch.
    ActionId holder;
    ActionId top;      ///< owner's top-level transaction (never changes)
    LockSemantics semantics;
  };

  /// One lock-table stripe. All non-atomic fields are guarded by `mu`.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable released;
    std::unordered_map<ObjectId, std::list<Lock>> table;
    /// waits observed per object (keyed by ObjectId value).
    std::unordered_map<uint64_t, uint64_t> waits_per_object;
    /// Threads currently blocked in this shard's wait loop, spinning or
    /// parked. Guarded by `mu`; releases skip the wakeup when nobody is
    /// waiting.
    size_t waiters = 0;
    /// Bumped under `mu` by every release that finds waiters; spinners
    /// watch it without `mu` to catch the release without a futex wake.
    std::atomic<uint64_t> release_gen{0};
    /// Mirror of `waiters` readable without `mu` (Occupancy probes).
    std::atomic<size_t> waiters_now{0};
    /// Locks currently in `table`, maintained at grant/erase so probes
    /// never scan the table.
    std::atomic<size_t> held_now{0};

    std::atomic<uint64_t> acquires{0};
    std::atomic<uint64_t> waits{0};
    std::atomic<uint64_t> deadlocks{0};
    std::atomic<uint64_t> wait_ns{0};
  };

  /// True iff `holder` is in the requester's call sphere `chain`.
  static bool InSphere(ActionId holder, const SphereChain& chain);

  /// True iff the requesting lock mode is compatible with `lock`.
  static bool Compatible(const Lock& lock, const ObjectType* type,
                         const Invocation& inv, LockSemantics semantics,
                         const SphereChain& chain);

  /// Collects the top-level transactions of all incompatible holders.
  /// Requires the shard's mu held.
  std::vector<uint64_t> Blockers(const Shard& shard, ObjectId obj,
                                 const ObjectType* type,
                                 const Invocation& inv,
                                 LockSemantics semantics,
                                 const SphereChain& chain) const;

  /// True iff adding requester->blockers edges would close a cycle in
  /// the waits-for graph. Requires graph_mu_ held.
  bool WouldDeadlock(uint64_t requester_top,
                     const std::vector<uint64_t>& blocker_tops) const;

  /// Drops requester's waits-for edges (under graph_mu_).
  void EraseWaitEdges(uint64_t requester_top);

  /// After a release changed `shard` (mu held): bumps the release
  /// generation and notifies the condvar, if anyone waits.
  void WakeWaiters(Shard* shard);

  /// Removes `lock` from its stripe's table. Requires the shard's mu.
  void EraseLock(Shard* shard, Lock* lock);

  /// Runs `fn(shard, lock)` on each lock in [begin, end) under its
  /// stripe's latch. The range is sorted by stripe first, so each
  /// stripe is latched once and its waiters are woken once, after all
  /// of its changes.
  template <typename Fn>
  void ForEachByStripe(std::vector<Lock*>::iterator begin,
                       std::vector<Lock*>::iterator end, Fn fn);

  LockManagerOptions options_;

  /// Stripes; unique_ptr keeps each shard's latch and condvar off its
  /// neighbors' cache lines.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Waits-for edges among top-level transactions (by ActionId value).
  /// Global — deadlock cycles cross stripes. Lock order: a shard's mu
  /// may be held when taking graph_mu_, never the reverse.
  mutable std::mutex graph_mu_;
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> waits_for_;

  /// Cached registry metrics; all null when detached (the fast path
  /// then costs one predictable branch per event).
  Counter* m_acquires_ = nullptr;
  Counter* m_wait_count_ = nullptr;
  Counter* m_deadlocks_ = nullptr;
  HistogramMetric* m_wait_ns_ = nullptr;
};

}  // namespace oodb
