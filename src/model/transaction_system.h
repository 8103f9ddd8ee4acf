// TransactionSystem: objects, actions, and oo-transactions (Defs 1-6).
//
// An oo-transaction (Def 2) is a tree of actions: the root action, the
// sets of actions each action calls, and a precedence relation (partial
// order) inside each action set. A transaction system (Def 4) is a set
// OBJ of objects with a distinguished system object S plus a set TOP of
// top-level transactions, which are actions on S.
//
// This class is both the static formalism (built by hand in tests and
// the figure benches) and the runtime execution record (populated by the
// cc module while transactions execute, including the primitive-action
// timestamps that manifest Axiom 1). All mutators are thread-safe;
// readers are safe once execution has quiesced.

#pragma once

#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/ids.h"
#include "model/invocation.h"
#include "model/object_type.h"
#include "util/result.h"
#include "util/status.h"

namespace oodb {

/// One object of the system (Def 4). Virtual objects (Def 5) reference
/// the original they duplicate.
struct ObjectRecord {
  ObjectId id;
  const ObjectType* type = nullptr;
  std::string name;
  bool is_virtual = false;
  ObjectId original;               ///< valid iff is_virtual
  std::vector<ActionId> actions;   ///< ACT_O, in creation order
};

/// One action: a numbered message on an object (Def 2). Top-level
/// transactions are the actions on the system object (Def 4).
struct ActionRecord {
  ActionId id;
  ObjectId object;
  Invocation invocation;
  ActionId parent;                  ///< invalid for top-level transactions
  std::vector<ActionId> children;   ///< the action set A_a, in call order
  /// Precedence edges (Def 2) among this action's children:
  /// (before, after) pairs, a partial order on the action set.
  std::vector<std::pair<ActionId, ActionId>> child_precedence;
  uint32_t process = 0;             ///< intra-transaction process (Def 9)
  ActionId top_level;               ///< cached root of the call tree
  bool is_virtual = false;          ///< virtual duplicate (Def 5)
  ActionId original;                ///< valid iff is_virtual
  /// Execution order of primitive actions (Axiom 1): a global, strictly
  /// increasing sequence number assigned when the primitive executes.
  /// 0 = not executed / not primitive.
  uint64_t timestamp = 0;
  /// Completion sequence number (0 = not completed). Used by the runtime
  /// for compensation order and by diagnostics.
  uint64_t completion = 0;
  std::string label;                ///< hierarchical label, e.g. "T1.2.1"
};

/// The transaction system TS = (OBJ, TOP) of Def 4, extended with
/// runtime bookkeeping.
class TransactionSystem {
 public:
  TransactionSystem();

  TransactionSystem(const TransactionSystem&) = delete;
  TransactionSystem& operator=(const TransactionSystem&) = delete;

  // --- construction -------------------------------------------------

  /// Registers an object of `type`. `name` is for diagnostics only.
  ObjectId AddObject(const ObjectType* type, std::string name);

  /// Starts a new top-level transaction: an action on the system object
  /// S whose method is `name` (Def 4).
  ActionId BeginTopLevel(std::string name);

  /// Records that `parent` calls `invocation` on `object` (Def 1/2).
  /// When `sequential` is true a precedence edge from the previous child
  /// of `parent` is added (the common case of a sequential method body).
  ActionId Call(ActionId parent, ObjectId object, Invocation invocation,
                bool sequential = true);

  /// Adds a precedence edge between two children of the same parent
  /// (Def 2: the precedence relation is per action set).
  Status AddPrecedence(ActionId before, ActionId after);

  /// Assigns the intra-transaction process of `a` (Def 9). Children
  /// inherit their parent's process at Call time.
  void SetProcess(ActionId a, uint32_t process);

  /// Stamps the execution order of a primitive action (Axiom 1). The
  /// runtime calls NextTimestamp() under the object latch.
  void SetTimestamp(ActionId a, uint64_t ts);
  uint64_t NextTimestamp();

  /// Stamps completion order (monotone); used for compensation.
  void MarkCompleted(ActionId a);

  // --- queries -------------------------------------------------------

  const ObjectRecord& object(ObjectId id) const;
  const ActionRecord& action(ActionId id) const;

  size_t object_count() const { return objects_.size(); }
  size_t action_count() const { return actions_.size(); }

  /// All non-system objects in creation order.
  std::vector<ObjectId> Objects() const;

  /// The top-level transactions TOP, in creation order.
  const std::vector<ActionId>& TopLevel() const { return top_level_; }

  /// ACT_O: the actions on `o` (Def 5 notation).
  const std::vector<ActionId>& ActionsOn(ObjectId o) const {
    return object(o).actions;
  }

  /// TRA_O: the transactions on `o` — the distinct direct callers of
  /// actions on `o` (Def 6). Top-level actions on S have no caller and
  /// contribute nothing.
  std::vector<ActionId> TransactionsOn(ObjectId o) const;

  /// The root (top-level transaction) of `a`'s call tree.
  ActionId TopLevelOf(ActionId a) const { return action(a).top_level; }

  /// True iff `anc` calls `desc` transitively (anc ->+ desc).
  bool CallsTransitively(ActionId anc, ActionId desc) const;

  /// True iff `a` is primitive: it calls no other action AND its type is
  /// declared primitive (Def 3). During construction an action with no
  /// children yet is primitive only if its type says so.
  bool IsPrimitive(ActionId a) const;

  /// PR_O: primitive actions on `o` (Def 3).
  std::vector<ActionId> PrimitiveActionsOn(ObjectId o) const;

  /// Def 9 with the process rule: actions of the same process of the
  /// same top-level transaction never conflict; otherwise the object
  /// type's commutativity specification decides. Both actions must be on
  /// the same object (callers must ensure this).
  bool Commute(ActionId a, ActionId b) const;

  /// Installs `spec` as the Def 9 commutativity source for objects of
  /// `type`, replacing the type's declared spec in Commute, which routes
  /// through SpecFor. This is how
  /// a matrix synthesized by the inference engine (analysis/
  /// spec_synthesis.h) is loaded and benched against the hand spec
  /// without re-registering types. `spec` must outlive the system; pass
  /// null to remove. Install only while the system is quiescent — the
  /// map is read unlocked on the validation hot path.
  void SetSpecOverride(const ObjectType* type, const CommutativitySpec* spec);

  /// The spec Commute consults for `type`: the installed override, or
  /// the type's declared commutativity.
  const CommutativitySpec& SpecFor(const ObjectType* type) const;

  /// The object-precedence relation of Def 7 restricted to a pair:
  /// a must precede b if some ancestor pair of a and b are ordered
  /// siblings of one action set (or a, b themselves are).
  bool MustPrecede(ActionId a, ActionId b) const;

  /// Human-readable "Object.method(params) [label]".
  std::string Describe(ActionId a) const;

 private:
  ActionRecord& MutableAction(ActionId id);
  ObjectRecord& MutableObject(ObjectId id);

  // Friends may perform the surgical updates of the Def 5 extension.
  friend class SystemExtender;

  mutable std::mutex mutex_;
  std::deque<ObjectRecord> objects_;   // index = ObjectId.value
  std::deque<ActionRecord> actions_;   // index = ActionId.value
  std::vector<ActionId> top_level_;
  /// Per-type commutativity overrides (SetSpecOverride); empty in the
  /// common case. Not guarded by mutex_: written only while quiescent.
  std::unordered_map<const ObjectType*, const CommutativitySpec*>
      spec_overrides_;
  uint64_t next_timestamp_ = 0;
  uint64_t next_completion_ = 0;
};

}  // namespace oodb
