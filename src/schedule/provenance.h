// Provenance: why does this dependency edge exist?
//
// The dependency engine derives every edge by one of four rules:
//   * Axiom 1  — two conflicting primitive actions, ordered by their
//     execution timestamps (the bootstrap);
//   * Def 10   — a conflicting, dependent action pair inherits its
//     direction to the calling actions as a transaction dependency;
//   * Def 11   — a transaction dependency recorded at some object is
//     placed as an action dependency at the object where both endpoints
//     are actions;
//   * Def 15   — when the endpoints live on different objects, the
//     transaction dependency is recorded redundantly at both as an
//     *added* action dependency.
//
// When ValidationOptions::record_provenance is set, the engine records
// the inducing fact for every edge it derives (first derivation wins,
// matching the fixpoint order). Chasing the records — Def 10 up the
// transaction trees, Def 11/15 across objects — expands any derived
// edge down to the primitive conflict pair that started it, including
// every Def 5 virtual-object hop along the way. That chain is what
// turns a bare "cycle of transaction ids" verdict into an explanation.
//
// The store is sharded by object: each record lives in the shard of the
// object whose relation holds the edge. With recording off the hot path
// pays one null-pointer test per derived edge.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/ids.h"

namespace oodb {

/// The derivation rule that produced an edge.
enum class DepRule : uint8_t {
  kAxiom1,  ///< primitive conflict ordered by timestamps
  kDef10,   ///< inherited from a dependent, conflicting action pair
  kDef11,   ///< placement of a transaction dependency (same object)
  kDef15,   ///< added cross-object record of a transaction dependency
};

const char* DepRuleName(DepRule rule);

/// Which of an object schedule's three relations an edge belongs to.
enum class DepRelation : uint8_t {
  kAction,  ///< action dependency relation (Def 11)
  kTxn,     ///< transaction dependency relation (Def 10)
  kAdded,   ///< added action dependency relation (Def 15)
};

const char* DepRelationName(DepRelation relation);

/// The inducing fact behind one edge. For kAxiom1 the cause pair is the
/// edge itself (the ordered primitives); for kDef10 it is the dependent
/// action pair whose direction was inherited; for kDef11/kDef15 it is
/// the transaction dependency being placed, with `object` naming the
/// object where that dependency was recorded.
struct EdgeProvenance {
  DepRule rule = DepRule::kAxiom1;
  ObjectId object;
  ActionId cause_from, cause_to;
};

/// One link of an expanded derivation chain: the edge being explained,
/// where it lives, and the fact that induced it.
struct ProvenanceStep {
  DepRule rule = DepRule::kAxiom1;
  DepRelation relation = DepRelation::kAction;
  ObjectId object;              ///< object whose relation holds the edge
  ActionId from, to;            ///< the explained edge
  ObjectId cause_object;        ///< where the inducing fact lives
  ActionId cause_from, cause_to;
};

/// Records one EdgeProvenance per derived edge, sharded by the object
/// whose relation received the edge. First writer wins: an edge that is
/// re-derivable keeps its original (fixpoint-order) explanation.
class ProvenanceStore {
 public:
  /// `num_objects` and `num_actions` fix the shard count and the edge
  /// key packing; both are final once the Def 5 extension has run.
  ProvenanceStore(size_t num_objects, size_t num_actions);

  void Record(DepRelation relation, ObjectId at, ActionId from, ActionId to,
              EdgeProvenance provenance);

  /// The recorded provenance of the edge, or null when the edge was
  /// never derived (or recording was off while it was).
  const EdgeProvenance* Find(DepRelation relation, ObjectId at,
                             ActionId from, ActionId to) const;

  /// Expands the edge down to its primitive conflict: the first step
  /// explains (from, to) itself, each following step explains that
  /// step's inducing fact, and the last step is the Axiom 1 record —
  /// unless the chain dead-ends on an unrecorded edge, in which case it
  /// stops early. Bounded; derivations are well-founded but the bound
  /// keeps a corrupted store from looping.
  std::vector<ProvenanceStep> Chain(DepRelation relation, ObjectId at,
                                    ActionId from, ActionId to) const;

  /// Total recorded edges, across all shards and relations.
  size_t EdgeCount() const;

 private:
  uint64_t EdgeKey(ActionId from, ActionId to) const {
    return from.value * num_actions_ + to.value;
  }

  struct Shard {
    std::unordered_map<uint64_t, EdgeProvenance> relations[3];
  };
  size_t num_actions_;
  std::vector<Shard> shards_;  // index = ObjectId.value
};

/// The minimal evidence behind one failed verdict: for a cycle verdict
/// the shortest offending cycle, edge by edge, each expanded to its
/// derivation chain (when provenance was recorded); for a Def 7 verdict
/// the violating primitive pair plus the precedence path that orders
/// them.
struct Witness {
  enum class Kind {
    kTxnCycle,     ///< Def 13 (i): transaction dependency cycle
    kActionCycle,  ///< Def 13 (ii): contradicting action dependencies
    kAddedCycle,   ///< Def 16 (ii): contradiction incl. added deps
    kGlobalCycle,  ///< the optional stronger-than-Def-16 global check
    kConformance,  ///< Def 7: execution violates precedence
  };

  struct Edge {
    ActionId from, to;
    DepRelation relation = DepRelation::kAction;
    /// Derivation down to the primitive conflict; empty when provenance
    /// was not recorded.
    std::vector<ProvenanceStep> chain;
  };

  Kind kind;
  /// Object whose relation failed; invalid for kGlobalCycle and
  /// kConformance.
  ObjectId object;
  /// For cycle kinds: the offending cycle, first == last. For
  /// kConformance: {violating_first, violated_second}.
  std::vector<ActionId> cycle;
  std::vector<Edge> edges;
  /// For kConformance: the precedence path (ordered siblings of one
  /// action set) that forces cycle[0] before cycle[1].
  std::vector<ActionId> precedence_path;
};

const char* WitnessKindName(Witness::Kind kind);

}  // namespace oodb
