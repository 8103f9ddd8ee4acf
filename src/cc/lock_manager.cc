#include "cc/lock_manager.h"

#include <algorithm>
#include <deque>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/phases.h"

namespace oodb {

const char* DeadlockPolicyName(DeadlockPolicy policy) {
  switch (policy) {
    case DeadlockPolicy::kDetect:
      return "detect";
    case DeadlockPolicy::kWaitDie:
      return "wait-die";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// How long a blocked requester spins on its stripe's release
/// generation before it parks on the condvar. A hot-object holder
/// frees its lock within a few microseconds, less than one futex
/// sleep/wake and reschedule; a longer hold ends in the park after a
/// bounded burn.
/// A time budget, not a pause count: pause latency varies about 10x
/// across x86 generations.
constexpr auto kSpinBudget = std::chrono::microseconds(20);

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins, with no latch held, until `gen` moves off `seen` or `stop`
/// passes. The caller re-reads `gen` under the latch to tell which.
void SpinForRelease(const std::atomic<uint64_t>& gen, uint64_t seen,
                    Clock::time_point stop) {
  while (gen.load(std::memory_order_relaxed) == seen &&
         Clock::now() < stop) {
    CpuRelax();
  }
}

size_t ResolveShards(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  return std::min(n, LockManager::kMaxShards);
}

}  // namespace

LockManager::LockManager(LockManagerOptions options) : options_(options) {
  size_t n = ResolveShards(options.shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

void LockManager::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_acquires_ = m_wait_count_ = m_deadlocks_ = nullptr;
    m_wait_ns_ = nullptr;
    return;
  }
  m_acquires_ = registry->GetCounter("db.lock.acquires");
  m_wait_count_ = registry->GetCounter("db.lock.waits");
  m_deadlocks_ = registry->GetCounter("db.lock.deadlocks");
  m_wait_ns_ = registry->GetHistogram("db.lock.wait_ns");
}

bool LockManager::InSphere(ActionId holder, const SphereChain& chain) {
  for (size_t i = 0; i < chain.len; ++i) {
    if (chain.ids[i] == holder) return true;
  }
  return false;
}

bool LockManager::Compatible(const Lock& lock, const ObjectType* type,
                             const Invocation& inv, LockSemantics semantics,
                             const SphereChain& chain) {
  if (InSphere(lock.holder, chain)) return true;
  if (lock.semantics == LockSemantics::kExclusive ||
      semantics == LockSemantics::kExclusive) {
    return false;
  }
  return type->Commutes(lock.inv, inv);
}

std::vector<uint64_t> LockManager::Blockers(const Shard& shard, ObjectId obj,
                                            const ObjectType* type,
                                            const Invocation& inv,
                                            LockSemantics semantics,
                                            const SphereChain& chain) const {
  std::vector<uint64_t> blockers;
  auto it = shard.table.find(obj);
  if (it == shard.table.end()) return blockers;
  for (const Lock& lock : it->second) {
    if (!Compatible(lock, type, inv, semantics, chain)) {
      // The holder moves only within the owner's call tree, so its
      // top-level transaction is the one recorded at acquire time.
      blockers.push_back(lock.top.value);
    }
  }
  return blockers;
}

bool LockManager::WouldDeadlock(
    uint64_t requester_top, const std::vector<uint64_t>& blocker_tops) const {
  // Cycle iff requester_top is reachable from any blocker through the
  // waits-for edges (the requester is about to add edges to all
  // blockers). Intra-transaction waits (blocker == requester) are not
  // deadlocks: lock pass-up resolves them.
  std::deque<uint64_t> frontier;
  std::unordered_set<uint64_t> visited;
  for (uint64_t b : blocker_tops) {
    if (b == requester_top) continue;
    if (visited.insert(b).second) frontier.push_back(b);
  }
  while (!frontier.empty()) {
    uint64_t t = frontier.front();
    frontier.pop_front();
    if (t == requester_top) return true;
    auto it = waits_for_.find(t);
    if (it == waits_for_.end()) continue;
    for (uint64_t next : it->second) {
      if (visited.insert(next).second) frontier.push_back(next);
    }
  }
  return false;
}

void LockManager::EraseWaitEdges(uint64_t requester_top) {
  std::lock_guard<std::mutex> guard(graph_mu_);
  waits_for_.erase(requester_top);
}

std::vector<LockManager::Lock*> LockManager::HeldLocks::Take() {
  std::vector<Lock*> taken;
  std::lock_guard<std::mutex> guard(mu_);
  taken.swap(locks_);
  return taken;
}

void LockManager::HeldLocks::Add(Lock* lock) {
  std::lock_guard<std::mutex> guard(mu_);
  locks_.push_back(lock);
}

void LockManager::HeldLocks::Add(const std::vector<Lock*>& locks) {
  std::lock_guard<std::mutex> guard(mu_);
  locks_.insert(locks_.end(), locks.begin(), locks.end());
}

Status LockManager::Acquire(ObjectId obj, const std::string& name,
                            const ObjectType* type, const Invocation& inv,
                            const SphereChain& chain, ActionId top,
                            HeldLocks* held, LockSemantics semantics,
                            bool hold_at_top) {
  Shard& shard = *shards_[ShardOf(obj)];
  shard.acquires.fetch_add(1, std::memory_order_relaxed);
  if (m_acquires_) m_acquires_->Increment();
  std::unique_lock<std::mutex> lock(shard.mu);
  bool waited = false;
  // Both set when the request first blocks: an uncontended Acquire
  // never reads the clock.
  Clock::time_point wait_start;
  Clock::time_point deadline;
  // Wait time per blocked Acquire, clock read only on the cold path.
  // Waits that end in a deadlock verdict count too: the victim's wait
  // is exactly the latency its transaction lost before the retry.
  auto observe_wait = [&] {
    if (!waited) return;
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - wait_start)
            .count());
    shard.wait_ns.fetch_add(ns, std::memory_order_relaxed);
    if (m_wait_ns_ != nullptr) m_wait_ns_->Observe(ns);
    // Bill the blocked time to the requesting root transaction's phase
    // ledger (no-op unless the Database installed one — obs/phases.h).
    PhaseAccumulator::AddCurrent(Phase::kLockWait, ns);
  };
  for (;;) {
    std::vector<uint64_t> blockers =
        Blockers(shard, obj, type, inv, semantics, chain);
    if (blockers.empty()) break;
    if (!waited) {
      shard.waits.fetch_add(1, std::memory_order_relaxed);
      ++shard.waits_per_object[obj.value];
      waited = true;
      if (m_wait_count_) m_wait_count_->Increment();
      wait_start = Clock::now();
      deadline = wait_start + options_.wait_timeout;
    }
    if (options_.deadlock_policy == DeadlockPolicy::kWaitDie) {
      // Wait only for younger transactions; die when an older one
      // blocks us. Intra-transaction waits are always allowed.
      for (uint64_t blocker : blockers) {
        if (blocker < top.value) {
          shard.deadlocks.fetch_add(1, std::memory_order_relaxed);
          if (m_deadlocks_) m_deadlocks_->Increment();
          EraseWaitEdges(top.value);
          observe_wait();
          return Status::Deadlock(
              "wait-die: blocked by older transaction on " + name);
        }
      }
      std::lock_guard<std::mutex> graph(graph_mu_);
      auto& edges = waits_for_[top.value];
      edges.clear();
      edges.insert(blockers.begin(), blockers.end());
    } else {
      // Detection: check and (re)publish this requester's edges in one
      // graph critical section. The shard latch is held across it; the
      // lock order (shard mu, then graph_mu_) is fixed everywhere.
      std::unique_lock<std::mutex> graph(graph_mu_);
      if (WouldDeadlock(top.value, blockers)) {
        waits_for_.erase(top.value);
        graph.unlock();
        shard.deadlocks.fetch_add(1, std::memory_order_relaxed);
        if (m_deadlocks_) m_deadlocks_->Increment();
        observe_wait();
        return Status::Deadlock("waits-for cycle on " + name);
      }
      auto& edges = waits_for_[top.value];
      edges.clear();
      edges.insert(blockers.begin(), blockers.end());
    }
    // Spin, then park. Spinners count as waiters, so releases keep
    // bumping the generation and Occupancy() sees them. The generation
    // is read and re-checked under mu, and releasers bump it under mu,
    // so a release between the spin and the park cannot be lost.
    ++shard.waiters;
    shard.waiters_now.store(shard.waiters, std::memory_order_relaxed);
    const uint64_t gen = shard.release_gen.load(std::memory_order_relaxed);
    lock.unlock();
    SpinForRelease(shard.release_gen, gen,
                   std::min(Clock::now() + kSpinBudget, deadline));
    lock.lock();
    std::cv_status cv = std::cv_status::no_timeout;
    if (shard.release_gen.load(std::memory_order_relaxed) == gen) {
      cv = shard.released.wait_until(lock, deadline);
    } else if (Clock::now() >= deadline) {
      // A stripe whose generation keeps moving still times out.
      cv = std::cv_status::timeout;
    }
    --shard.waiters;
    shard.waiters_now.store(shard.waiters, std::memory_order_relaxed);
    if (cv == std::cv_status::timeout) {
      shard.deadlocks.fetch_add(1, std::memory_order_relaxed);
      if (m_deadlocks_) m_deadlocks_->Increment();
      EraseWaitEdges(top.value);
      observe_wait();
      return Status::Deadlock("lock wait timeout on " + name);
    }
  }
  if (waited) {
    EraseWaitEdges(top.value);
    observe_wait();
  }

  const ActionId action = chain.ids[0];
  ActionId holder = hold_at_top ? top : action;
  auto& locks = shard.table[obj];
  locks.push_back(Lock{obj, type, inv, action, holder, top, semantics});
  shard.held_now.fetch_add(1, std::memory_order_relaxed);
  Lock* granted = &locks.back();
  lock.unlock();
  // Only the list's owner ever erases the lock, so the pointer stays
  // valid outside the latch.
  held->Add(granted);
  return Status::OK();
}

void LockManager::WakeWaiters(Shard* shard) {
  if (shard->waiters == 0) return;
  shard->release_gen.fetch_add(1, std::memory_order_relaxed);
  shard->released.notify_all();
}

void LockManager::EraseLock(Shard* shard, Lock* lock) {
  auto& locks = shard->table[lock->object];
  for (auto it = locks.begin(); it != locks.end(); ++it) {
    if (&*it == lock) {
      locks.erase(it);
      shard->held_now.fetch_sub(1, std::memory_order_relaxed);
      break;
    }
  }
}

template <typename Fn>
void LockManager::ForEachByStripe(std::vector<Lock*>::iterator begin,
                                  std::vector<Lock*>::iterator end, Fn fn) {
  auto stripe = [this](const Lock* lock) { return ShardOf(lock->object); };
  std::sort(begin, end, [&](const Lock* a, const Lock* b) {
    return stripe(a) < stripe(b);
  });
  while (begin != end) {
    const size_t s = stripe(*begin);
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> guard(shard.mu);
    for (; begin != end && stripe(*begin) == s; ++begin) fn(&shard, *begin);
    // Pass-ups can unblock intra-transaction waiters and erases anyone;
    // waiters in *other* stripes cannot be watching these locks, so the
    // wake stays stripe-local. Skipped entirely when nobody waits.
    WakeWaiters(&shard);
  }
}

void LockManager::PassUp(HeldLocks* held, HeldLocks* parent,
                         bool release_children) {
  std::vector<Lock*> locks = held->Take();
  // Locks anchored above the action on acquire (hold_at_top) already
  // sit with their final holder: they move into `parent` without a
  // stripe visit. Only this thread moves the locks of `held`, so reading
  // the holder needs no latch.
  auto visit = std::partition(locks.begin(), locks.end(), [&](Lock* lock) {
    return lock->holder != held->action_;
  });
  // The locks that move into `parent` are compacted to the front.
  size_t up = visit - locks.begin();
  ForEachByStripe(visit, locks.end(), [&](Shard* shard, Lock* lock) {
    if (lock->owner == held->action_ || !release_children) {
      // The action's own semantic lock passes up to the caller; under
      // closed nesting the children's locks ride along instead of
      // being released.
      lock->holder = parent->action_;
      locks[up++] = lock;
    } else {
      // Open nesting: locks passed up by (now completed) children are
      // released — the action's semantic footprint covers them.
      EraseLock(shard, lock);
    }
  });
  locks.resize(up);
  if (!locks.empty()) parent->Add(locks);
}

void LockManager::Release(HeldLocks* held) {
  std::vector<Lock*> locks = held->Take();
  ForEachByStripe(locks.begin(), locks.end(),
                  [this](Shard* shard, Lock* lock) { EraseLock(shard, lock); });
}

std::vector<LockShardStats> LockManager::PerShardStats() const {
  std::vector<LockShardStats> out(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    out[s].acquires = shard.acquires.load(std::memory_order_relaxed);
    out[s].waits = shard.waits.load(std::memory_order_relaxed);
    out[s].deadlocks = shard.deadlocks.load(std::memory_order_relaxed);
    out[s].wait_ns = shard.wait_ns.load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t LockManager::wait_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->waits.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t LockManager::deadlock_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->deadlocks.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::pair<ObjectId, uint64_t>> LockManager::HottestObjects(
    size_t top_n) const {
  std::vector<std::pair<ObjectId, uint64_t>> rows;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    // try_lock: a contended stripe just keeps its rows out of this
    // report — a monitoring read must not slow the Acquire path.
    std::unique_lock<std::mutex> guard(shard.mu, std::try_to_lock);
    if (!guard.owns_lock()) continue;
    rows.reserve(rows.size() + shard.waits_per_object.size());
    for (const auto& [obj, waits] : shard.waits_per_object) {
      rows.push_back({ObjectId(obj), waits});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  if (rows.size() > top_n) rows.resize(top_n);
  return rows;
}

std::vector<LockManager::StripeOccupancy> LockManager::Occupancy() const {
  // Tallies only — no latch, no table scan. A sampler ticking every
  // 10 ms must not contend with the workload's Acquire path.
  std::vector<StripeOccupancy> out(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    out[s].held = shard.held_now.load(std::memory_order_relaxed);
    out[s].waiters = shard.waiters_now.load(std::memory_order_relaxed);
    out[s].waits = shard.waits.load(std::memory_order_relaxed);
    out[s].wait_ns = shard.wait_ns.load(std::memory_order_relaxed);
  }
  return out;
}

bool LockManager::WaitsForSize(size_t* nodes, size_t* edges) const {
  // try_lock, not lock: the caller is a sampler probe, and blocking
  // behind a deadlock-check BFS would charge the workload's contention
  // to the sampler. On failure the caller keeps its previous values —
  // bounded staleness, by design.
  std::unique_lock<std::mutex> guard(graph_mu_, std::try_to_lock);
  if (!guard.owns_lock()) return false;
  *nodes = waits_for_.size();
  size_t e = 0;
  for (const auto& [from, to] : waits_for_) {
    (void)from;
    e += to.size();
  }
  *edges = e;
  return true;
}

size_t LockManager::LockCount() const {
  size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> guard(shard.mu);
    for (const auto& [obj, locks] : shard.table) {
      (void)obj;
      n += locks.size();
    }
  }
  return n;
}

}  // namespace oodb
