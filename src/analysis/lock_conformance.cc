#include "analysis/lock_conformance.h"

#include <chrono>
#include <set>
#include <string>

#include "cc/lock_manager.h"

namespace oodb::analysis {

std::vector<Diagnostic> CheckLockConformance(
    const TypeCorpus& corpus, const LockConformanceOptions& options) {
  std::vector<Diagnostic> out;
  const ObjectType* type = corpus.type;
  const CommutativitySpec& reference =
      options.reference ? *options.reference : type->commutativity();

  // One probe object and two top-level transactions that lock it
  // directly, so each requester's call sphere is just itself.
  const ObjectId obj(1);
  const std::string name = "LintProbe";
  const ActionId t1(0);
  const ActionId t2(1);
  const SphereChain holder{&t1, 1};
  const SphereChain requester{&t2, 1};
  LockManager::HeldLocks t1_locks(t1);
  LockManager::HeldLocks t2_locks(t2);

  LockManagerOptions lm_options;
  lm_options.wait_timeout = std::chrono::milliseconds(0);
  LockManager lm(lm_options);

  // One diagnostic per (method pair, kind); the first witnessing
  // invocation pair carries the detail.
  std::set<std::string> seen;
  auto Report = [&](const std::string& kind, Severity severity,
                    const Invocation& a, const Invocation& b,
                    const std::string& message) {
    if (!seen.insert(kind + "|" + a.method + "|" + b.method).second) return;
    out.push_back({severity, "lock-conformance", type->name(), a.method,
                   b.method, message});
  };

  const std::vector<Invocation> invs = corpus.Invocations();
  for (const Invocation& a : invs) {
    for (const Invocation& b : invs) {
      const bool expected = reference.Commutes(a, b);

      // Commutativity semantics: admit iff the pair commutes.
      Status held = lm.Acquire(obj, name, type, a, holder, t1, &t1_locks);
      if (!held.ok()) {
        Report("held", Severity::kError, a, b,
               "could not seed the probe lock on an empty table: " +
                   held.ToString());
        lm.Release(&t1_locks);
        continue;
      }
      const bool admitted =
          lm.Acquire(obj, name, type, b, requester, t2, &t2_locks).ok();
      lm.Release(&t2_locks);
      if (admitted && !expected) {
        Report("admit", Severity::kError, a, b,
               "lock table admits " + b.ToString() + " while " +
                   a.ToString() +
                   " is held, but the specification says they conflict "
                   "— schedules stop being oo-serializable");
      } else if (!admitted && expected) {
        Report("block", Severity::kWarning, a, b,
               "lock table blocks " + b.ToString() + " although " +
                   a.ToString() +
                   " commutes with it per the specification — "
                   "concurrency the spec allows is lost");
      }

      // Sphere rule: the holder itself never blocks (t1 re-requesting).
      if (!lm.Acquire(obj, name, type, b, holder, t1, &t1_locks).ok()) {
        Report("sphere", Severity::kError, a, b,
               "holder blocked on its own sphere: " + b.ToString() +
                   " from the same action that holds " + a.ToString());
      }
      lm.Release(&t1_locks);

      // Exclusive strawman held: everything outside the sphere blocks.
      held = lm.Acquire(obj, name, type, a, holder, t1, &t1_locks,
                        LockSemantics::kExclusive);
      if (held.ok()) {
        if (lm.Acquire(obj, name, type, b, requester, t2, &t2_locks).ok()) {
          Report("excl-held", Severity::kError, a, b,
                 "an exclusive lock on " + a.ToString() +
                     " failed to block " + b.ToString());
        }
        lm.Release(&t2_locks);
      }
      lm.Release(&t1_locks);

      // Exclusive request against a held commutativity lock.
      held = lm.Acquire(obj, name, type, a, holder, t1, &t1_locks);
      if (held.ok()) {
        if (lm.Acquire(obj, name, type, b, requester, t2, &t2_locks,
                       LockSemantics::kExclusive)
                .ok()) {
          Report("excl-req", Severity::kError, a, b,
                 "an exclusive request for " + b.ToString() +
                     " was admitted although " + a.ToString() +
                     " is held by another transaction");
        }
        lm.Release(&t2_locks);
      }
      lm.Release(&t1_locks);
    }
  }
  return out;
}

}  // namespace oodb::analysis
