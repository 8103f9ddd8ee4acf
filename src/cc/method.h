// Method implementations and their execution context.
//
// "In an object-oriented database the objects are encapsulated, i.e.,
// objects are only accessible by methods defined in the database
// system." A MethodImpl is the body of one method; it receives a
// MethodContext through which it can read/modify its own object's state
// and send messages (child actions) to other objects — every such call
// goes through the concurrency control.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cc/lock_manager.h"
#include "cc/object_state.h"
#include "model/ids.h"
#include "model/invocation.h"
#include "model/object_type.h"
#include "util/result.h"

namespace oodb {

class Database;
class MethodContext;

namespace analysis {
class StateProber;
}  // namespace analysis

/// The body of one method. `params` are the invocation parameters;
/// `result` (never null) receives the return value. Errors propagate to
/// the caller, which may handle them (e.g. Capacity triggers a split) or
/// let them abort the transaction.
using MethodImpl = std::function<Status(
    MethodContext& ctx, const ValueList& params, Value* result)>;

/// One named, deterministically generated starting state for the
/// commutativity-inference prober: an abstract-state class (Malta &
/// Martinez) represented by one concrete member. Generators must be
/// pure — every call yields an identical fresh state.
struct StateClass {
  std::string name;
  std::function<std::unique_ptr<ObjectState>()> make;
};

/// Per-type probing hooks, declared alongside MethodTraits by primitive
/// schemas (Def 3 types whose methods call no other object — exactly the
/// ones whose bodies can be executed against a bare state). `states`
/// should cover the boundary situations of the type's semantics (empty,
/// populated, populated with the declared sample values in observable
/// positions, escrow-tight, ...); `fingerprint` abstracts a state into a
/// comparable string. Composite types leave these undeclared and the
/// inference engine falls back to declared evidence.
struct TypeProbeTraits {
  std::vector<StateClass> states;
  std::function<std::string(const ObjectState&)> fingerprint;

  bool Declared() const {
    return !states.empty() && fingerprint != nullptr;
  }
};

/// Execution context of one action (or of a transaction body, where it
/// represents the top-level action).
class MethodContext {
 public:
  /// Sends `inv` to `obj` as a child action of the current action:
  /// records the call (Def 1/2), acquires the semantic lock, executes
  /// the method. `result` may be null.
  Status Call(ObjectId obj, Invocation inv, Value* result = nullptr);

  /// One branch of a parallel call set.
  struct ParallelCall {
    ObjectId object;
    Invocation inv;
  };

  /// Executes the calls concurrently, each as a child action in its own
  /// intra-transaction *process* (Def 2: the precedence relation within
  /// an action set is partial; Def 9: actions of different processes of
  /// one transaction may genuinely conflict and are serialized by the
  /// lock manager like strangers, resolved by lock pass-up).
  ///
  /// Returns OK iff every branch succeeded; otherwise the first error.
  /// Completed sibling branches are NOT rolled back here — the caller
  /// decides whether to fail (its own compensation pass then undoes
  /// them). `results`, when non-null, is resized to match `calls`.
  Status CallParallel(const std::vector<ParallelCall>& calls,
                      std::vector<Value>* results = nullptr);

  /// Creates a new object mid-transaction (e.g. a leaf split allocating
  /// a new leaf and page). Object creation is not itself an action.
  ObjectId CreateObject(const ObjectType* type, std::string name,
                        std::unique_ptr<ObjectState> state);

  /// Registers the compensating invocation (on the same object) that
  /// semantically undoes this action; executed in reverse completion
  /// order if the enclosing transaction aborts (open nested transactions
  /// cannot rely on physical undo once sub-locks are released).
  /// Read-only methods register nothing.
  void SetCompensation(Invocation inv);

  /// The object this method runs on (invalid for a transaction body).
  ObjectId self() const { return self_; }

  /// LSN of the most recent Call from this context that was logged to
  /// the write-ahead log (0 when durability is off or nothing was
  /// logged yet). Lets a transaction body correlate its work with the
  /// log — e.g. the crash harness choosing an injection point.
  uint64_t last_lsn() const { return last_lsn_; }

  /// The current action (the top-level action for a transaction body).
  ActionId action() const { return action_; }

  /// Typed access to this object's state. Primitive methods run under
  /// the object latch and may touch state freely; composite methods must
  /// use WithState for anything racy.
  template <typename T>
  T* state() {
    return static_cast<T*>(raw_state_);
  }

  /// Runs `fn(state)` under the object's latch (for composite methods
  /// whose semantic locks admit concurrent commuting operations that
  /// still share bytes).
  template <typename T, typename Fn>
  auto WithState(Fn fn) {
    std::lock_guard<std::mutex> guard(*latch_);
    return fn(static_cast<T*>(raw_state_));
  }

  Database* db() { return db_; }

 private:
  friend class Database;
  /// The inference prober executes primitive method bodies against
  /// generated states outside any transaction; it constructs contexts
  /// with a null database (sound for Def 3 methods, which never Call).
  friend class analysis::StateProber;
  MethodContext(Database* db, ActionId action, ObjectId self,
                ObjectState* raw_state, std::mutex* latch,
                const MethodContext* parent = nullptr,
                const ObjectType* self_type = nullptr)
      : db_(db), action_(action), self_(self), raw_state_(raw_state),
        latch_(latch), parent_(parent), self_type_(self_type),
        top_(parent == nullptr ? action : parent->top_),
        top_name_(parent == nullptr ? nullptr : parent->top_name_),
        depth_(parent == nullptr ? 0 : parent->depth_ + 1),
        held_locks_(action) {}

  /// A completed child's compensation, waiting for this action to end.
  struct PendingCompensation {
    ObjectId object;
    Invocation inv;
  };

  Database* db_;
  ActionId action_;
  ObjectId self_;
  ObjectState* raw_state_;
  std::mutex* latch_;
  /// Enclosing action's context (null for a transaction body). The
  /// chain of parents is this action's call sphere — the runtime hands
  /// it to the lock manager so sphere checks never walk the shared
  /// TransactionSystem on the hot path.
  const MethodContext* parent_;
  /// Type of `self_` (null for a transaction body); lets the runtime
  /// enforce Def 3 (primitive actions call no other action) without a
  /// TransactionSystem read.
  const ObjectType* self_type_;
  /// Cached root of the call tree.
  ActionId top_;
  /// Name of the top-level attempt (e.g. "T1#r2"), owned by
  /// RunTransaction for the attempt's life. With `depth_` and the
  /// object's runtime record it gives the WAL and the tracer everything
  /// they need without reading the shared TransactionSystem mid-run.
  const std::string* top_name_;
  /// Call depth: 0 for the transaction body, parent's + 1 below.
  uint32_t depth_;
  /// The locks whose fate is decided when this action ends: its own
  /// and the ones its completed children passed up.
  LockManager::HeldLocks held_locks_;
  /// Compensations of the completed children, in completion order; run
  /// in reverse if this action fails or aborts, dropped with the context
  /// otherwise. Guarded by `comp_mu_`: CallParallel branches complete
  /// concurrently.
  std::mutex comp_mu_;
  std::vector<PendingCompensation> child_compensations_;
  std::optional<Invocation> compensation_;
  uint64_t last_lsn_ = 0;
};

}  // namespace oodb
