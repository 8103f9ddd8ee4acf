// MethodRegistry: maps (object type, method name) to implementations
// plus declared schema metadata (MethodTraits).
//
// The traits are the statically auditable part of the schema: whether a
// method only observes its object, which (type, method) pairs its body
// may send messages to (a type-level over-approximation of the Def 1/2
// call relation), and representative parameter lists. `oodb lint` (see
// analysis/) builds its invocation corpus and call graph from them.

#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cc/method.h"

namespace oodb {

/// A type-level call target: method `method` of the type named `type`.
/// Types are referenced by name so traits can be declared before (or
/// without) the target type's registration order mattering.
struct CallTarget {
  std::string type;
  std::string method;

  friend bool operator==(const CallTarget& a, const CallTarget& b) {
    return a.type == b.type && a.method == b.method;
  }
  friend bool operator<(const CallTarget& a, const CallTarget& b) {
    return a.type != b.type ? a.type < b.type : a.method < b.method;
  }
};

/// Declared, statically checkable facts about one method. All fields are
/// optional; an empty MethodTraits declares nothing and the analysis
/// passes fall back to conservative assumptions.
struct MethodTraits {
  /// True iff the method only observes its object (a "reader" in the
  /// conventional page classification). Mutators leave this false.
  bool observer = false;

  /// Every (type, method) the body may send a message to — a superset
  /// of the runtime call sets. Primitive methods (Def 3) must leave
  /// this empty. A target naming the method's own receiver type marks a
  /// potential Def 5 virtual-object site.
  std::vector<CallTarget> calls;

  /// Representative parameter lists, used by the linter to generate the
  /// invocation-pair corpus. Declare at least two samples (or one that
  /// the corpus can mutate) for parameterized methods; a parameterless
  /// mutator declares `{{}}`.
  std::vector<ValueList> samples;

  /// Methods of the same type the body may register as compensating
  /// invocations on its receiver (via MethodContext::SetCompensation).
  /// The undo-completeness pass requires every mutator to declare at
  /// least one, or to set undo_free — otherwise crash recovery has no
  /// logical undo for it and a loser transaction's effect survives.
  std::vector<std::string> compensations;

  /// Declares that every completion path that skips SetCompensation
  /// leaves the object unchanged (e.g. removing an absent key), so
  /// skipping the undo of a logged-but-compensationless record is
  /// sound. Meaningless for observers.
  bool undo_free = false;

  /// True when any metadata was declared. A value-initialized
  /// MethodTraits (the Register default) declares nothing and the
  /// call-graph pass flags the method as unaudited.
  bool Declared() const {
    return observer || !calls.empty() || !samples.empty() ||
           !compensations.empty() || undo_free;
  }
};

/// Registration happens at database setup, before transactions run;
/// lookup afterwards is lock-free.
class MethodRegistry {
 public:
  /// Registers `impl` for `method` of `type`, with optional declared
  /// traits. Re-registration replaces both.
  void Register(const ObjectType* type, const std::string& method,
                MethodImpl impl, MethodTraits traits = {});

  /// Declares (or replaces) the traits of `method` without touching its
  /// implementation. Declaring traits for a method with no registered
  /// implementation records the entry; Find still reports it unknown,
  /// and the call-graph pass flags the dangling declaration.
  void SetTraits(const ObjectType* type, const std::string& method,
                 MethodTraits traits);

  /// Declares (or replaces) the probing hooks of `type` — state-class
  /// generators plus the abstract-state fingerprint the inference
  /// engine compares (see TypeProbeTraits).
  void SetProbeTraits(const ObjectType* type, TypeProbeTraits traits);

  /// Declared probe traits, or null when `type` declared none.
  const TypeProbeTraits* ProbeTraits(const ObjectType* type) const;

  /// The implementation, or null when unknown.
  const MethodImpl* Find(const ObjectType* type,
                         const std::string& method) const;

  /// Declared traits, or null when the method is unknown.
  const MethodTraits* Traits(const ObjectType* type,
                             const std::string& method) const;

  /// All registered types, sorted by type name. The map key orders by
  /// pointer value, which varies run to run; every enumeration used in
  /// diagnostics or reports must go through this (or MethodsOf) so lint
  /// output is deterministic.
  std::vector<const ObjectType*> Types() const;

  /// The registered method names of `type`, sorted.
  std::vector<std::string> MethodsOf(const ObjectType* type) const;

  size_t size() const { return impls_.size(); }

 private:
  struct Entry {
    MethodImpl impl;
    MethodTraits traits;
  };
  std::map<std::pair<const ObjectType*, std::string>, Entry> impls_;
  std::map<const ObjectType*, TypeProbeTraits> probe_traits_;
};

}  // namespace oodb
