// Commutativity specifications (Def 9 and section 2).
//
// Each object type carries a commutativity specification over its
// operations: "We assume a commutativity matrix for every object for all
// their actions. It specifies for every action pair if they commute or if
// they are in conflict." The paper cites Weihl-style abstract-data-type
// commutativity and the escrow method, which "includes parameter values
// and the status of accessed objects in the commutativity definition" —
// hence specs here see full invocations (method + parameters) and may be
// composed from per-method-pair predicates.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "model/invocation.h"

namespace oodb {

/// Decides whether two invocations on (distinct executions against) the
/// same object commute. Implementations must be symmetric:
/// Commutes(a, b) == Commutes(b, a). Thread-safe after construction.
class CommutativitySpec {
 public:
  virtual ~CommutativitySpec() = default;

  /// True iff the effect and results of `a` and `b` are independent of
  /// their execution order (Def 9: a Θ b). Unknown methods should be
  /// treated conservatively (conflict).
  virtual bool Commutes(const Invocation& a, const Invocation& b) const = 0;

  /// True iff `a` and `b` are in conflict (the negation of Commutes).
  bool Conflicts(const Invocation& a, const Invocation& b) const {
    return !Commutes(a, b);
  }
};

/// Everything conflicts with everything. The conservative default: using
/// it everywhere degenerates oo-serializability to conventional
/// serializability over the same actions.
class NeverCommutes : public CommutativitySpec {
 public:
  bool Commutes(const Invocation&, const Invocation&) const override {
    return false;
  }
};

/// Everything commutes (for pure observers or append-only logs).
class AlwaysCommutes : public CommutativitySpec {
 public:
  bool Commutes(const Invocation&, const Invocation&) const override {
    return true;
  }
};

/// Classical read/write semantics, the paper's zero layer (pages):
/// read Θ read; every pair involving a writer conflicts. Method names
/// are partitioned into readers and writers at construction; unknown
/// methods are writers.
class ReadWriteCommutativity : public CommutativitySpec {
 public:
  explicit ReadWriteCommutativity(std::set<std::string> readers)
      : readers_(std::move(readers)) {}

  bool Commutes(const Invocation& a, const Invocation& b) const override {
    return readers_.count(a.method) > 0 && readers_.count(b.method) > 0;
  }

 private:
  std::set<std::string> readers_;
};

/// A commutativity matrix over method names, ignoring parameters.
/// Pairs not mentioned conflict (conservative). Entries are stored
/// symmetrically.
class MatrixCommutativity : public CommutativitySpec {
 public:
  /// Declares that `m1` and `m2` commute (in both orders).
  void SetCommutes(const std::string& m1, const std::string& m2);

  bool Commutes(const Invocation& a, const Invocation& b) const override;

 private:
  std::set<std::pair<std::string, std::string>> commuting_;
};

/// Parameter-aware commutativity built from per-method-pair predicates.
///
/// Used for keyed containers: insert(k1) Θ insert(k2) iff k1 != k2, and
/// for escrow-style predicates. Resolution order:
///   1. an exact predicate registered for the (unordered) method pair;
///   2. the default for the pair (conflict).
/// Predicates receive the invocations in registration order of the names.
class PredicateCommutativity : public CommutativitySpec {
 public:
  using Predicate =
      std::function<bool(const Invocation& a, const Invocation& b)>;

  /// Registers `pred` for the method pair (m1, m2). When a query arrives
  /// as (m2, m1) the arguments are swapped before calling `pred`, so the
  /// predicate may rely on the order (m1, m2).
  void SetPredicate(const std::string& m1, const std::string& m2,
                    Predicate pred);

  /// Declares that the pair always commutes / always conflicts.
  void SetCommutes(const std::string& m1, const std::string& m2);
  void SetConflicts(const std::string& m1, const std::string& m2);

  bool Commutes(const Invocation& a, const Invocation& b) const override;

  /// Convenience predicate: commute iff parameter `index` differs.
  static Predicate DifferentParam(size_t index);

  /// Convenience predicate: commute iff parameter `index` is equal.
  static Predicate SameParam(size_t index);

  /// Convenience predicate: commute iff parameter `index` differs OR the
  /// two invocations are identical (blind overwrites of one key: the
  /// order of two equal writes is unobservable, unequal same-key writes
  /// conflict). The shape the inference engine synthesizes for keyed
  /// writers.
  static Predicate DifferentParamOrIdentical(size_t index);

 private:
  std::map<std::pair<std::string, std::string>, Predicate> predicates_;
};

}  // namespace oodb
