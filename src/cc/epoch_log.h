// EpochLog: batched publication of the execution history.
//
// The classic runtime records every action into the shared
// TransactionSystem as it happens — one global mutex acquisition, one
// arena append, and one label allocation per action. That is perfect
// for the validator (the record IS the history) and hopeless for a
// runtime chasing millions of actions per second: every worker thread
// serializes on the recorder.
//
// In epoch-batched mode the runtime instead appends one compact
// ActionEvent per action to a per-thread buffer (owner-latched, so the
// hot path is an uncontended lock and a vector push), and a flusher
// periodically *advances the epoch*: every buffer is drained and the
// whole batch is handed to a sink in one call. Consumers — metrics,
// the dependency engine, the equivalence tests — see one batch per
// epoch instead of contending per action, and HistoryEpochSink can
// replay the accumulated batches into a TransactionSystem to run the
// Defs 13/16 validation pipeline after the fact.
//
// Events carry everything replay needs: ids (allocated from one atomic
// counter, so parents always precede children numerically), the tree
// edge, the invocation, the Axiom 1 timestamp, and the completion
// sequence. Replay therefore reconstructs the same history the classic
// recorder would have written, up to child order after parallel call
// sets (normalized to id order) and label renumbering.
//
// The rest of the runtime is the same in both modes: the Database
// builds a finished action's record in one place (FinishAction) and
// only its destination differs, and the Axiom 1 timestamp comes from
// the Database's one counter either way. Durability and tracing never
// read the record mid-run, so both work with epoch-batched history.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/ids.h"
#include "model/invocation.h"
#include "model/transaction_system.h"

namespace oodb {

/// One recorded action, emitted when the action finishes (successfully
/// or not). Field semantics mirror ActionRecord.
struct ActionEvent {
  enum class Outcome : uint8_t {
    kOk,      ///< completed (non-top-level)
    kCommit,  ///< top-level transaction committed
    kAbort,   ///< top-level transaction aborted
    kFailed,  ///< action failed (lock denied / body error); no completion
  };

  uint64_t id = 0;
  uint64_t parent = ActionId::kInvalid;  ///< invalid for top-level
  uint64_t top = 0;
  uint64_t object = ObjectId::kInvalid;  ///< system object for top-level
  uint32_t process = 0;
  bool sequential = true;
  Outcome outcome = Outcome::kOk;
  uint64_t timestamp = 0;   ///< Axiom 1 sequence; 0 = not primitive/failed
  uint64_t completion = 0;  ///< completion sequence; 0 = never completed
  Invocation inv;           ///< method + params (txn name for top-level)
};

/// Consumes one flushed batch per epoch. OnEpoch may be called from
/// whichever thread advances the epoch; implementations synchronize
/// themselves.
class EpochSink {
 public:
  virtual ~EpochSink() = default;
  virtual void OnEpoch(uint64_t epoch, std::vector<ActionEvent>&& batch) = 0;
};

/// The per-thread buffered event log. Append is called by worker
/// threads (each gets its own buffer, found through a thread-local
/// cache); Flush drains every buffer into one batch.
class EpochLog {
 public:
  EpochLog();
  ~EpochLog();

  EpochLog(const EpochLog&) = delete;
  EpochLog& operator=(const EpochLog&) = delete;

  /// Appends to this thread's buffer. Uncontended unless a flush is
  /// draining this buffer at this instant.
  void Append(ActionEvent&& event);

  /// Drains every thread's buffer into one batch and bumps the epoch.
  /// Safe to call concurrently with Append (events land in the current
  /// or the next batch — never lost, never duplicated).
  std::vector<ActionEvent> Flush();

  /// Completed flushes.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Events appended so far (relaxed; for monitoring).
  uint64_t appended() const {
    return appended_.load(std::memory_order_relaxed);
  }

  /// Events drained by completed flushes (relaxed; for monitoring).
  /// appended() - flushed() is the epoch-pipeline depth: events still
  /// sitting in per-thread buffers waiting for the next AdvanceEpoch.
  uint64_t flushed() const {
    return flushed_.load(std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<ActionEvent> events;
  };

  Buffer* LocalBuffer();

  const uint64_t instance_;  ///< key for the thread-local buffer cache

  std::mutex registry_mu_;
  std::deque<std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> appended_{0};
  std::atomic<uint64_t> flushed_{0};
};

/// Accumulates every epoch's batch and replays the whole run into a
/// TransactionSystem so the standard validator can judge it. Intended
/// for tests and bounded runs (it keeps every event); a pure
/// throughput run leaves the sink unset and batches are dropped after
/// counting.
class HistoryEpochSink : public EpochSink {
 public:
  void OnEpoch(uint64_t epoch, std::vector<ActionEvent>&& batch) override;

  size_t event_count() const;

  /// Rebuilds the recorded history: actions in id order (parents first
  /// by construction), completions applied in completion order,
  /// timestamps verbatim. Objects must already exist in `ts` with the
  /// same ids the run used (the runtime registers objects in its
  /// TransactionSystem in both history modes, so passing a fresh
  /// system plus re-created objects, or the run's own system, works).
  void ReplayInto(TransactionSystem* ts) const;

 private:
  mutable std::mutex mu_;
  std::vector<ActionEvent> events_;
};

}  // namespace oodb
