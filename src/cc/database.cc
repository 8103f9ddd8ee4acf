#include "cc/database.h"

#include <chrono>
#include <optional>
#include <thread>

#include "obs/sampler.h"
#include "util/logging.h"
#include "util/random.h"

namespace oodb {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kOpenNested:
      return "open-nested";
    case SchedulerKind::kClosedNested:
      return "closed-nested";
    case SchedulerKind::kFlat2PL:
      return "flat-2pl";
    case SchedulerKind::kObjectExclusive:
      return "object-exclusive";
    case SchedulerKind::kNone:
      return "none";
  }
  return "?";
}

bool SchedulerKindFromName(const std::string& name, SchedulerKind* out) {
  static const std::pair<const char*, SchedulerKind> kNames[] = {
      {"open", SchedulerKind::kOpenNested},
      {"closed", SchedulerKind::kClosedNested},
      {"flat2pl", SchedulerKind::kFlat2PL},
      {"exclusive", SchedulerKind::kObjectExclusive},
      {"none", SchedulerKind::kNone},
  };
  for (const auto& [flag, kind] : kNames) {
    if (name == flag) {
      *out = kind;
      return true;
    }
  }
  return false;
}

namespace {

/// Span outcome vocabulary: "ok" / "commit" plus kebab-case error
/// codes. Part of the stable trace schema (docs/OBSERVABILITY.md).
const char* TraceOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid-argument";
    case StatusCode::kNotFound:
      return "not-found";
    case StatusCode::kAlreadyExists:
      return "already-exists";
    case StatusCode::kConflict:
      return "conflict";
    case StatusCode::kDeadlock:
      return "deadlock";
    case StatusCode::kAborted:
      return "abort";
    case StatusCode::kNotSerializable:
      return "not-serializable";
    case StatusCode::kCapacity:
      return "capacity";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnsupported:
      return "unsupported";
  }
  return "?";
}

/// Monotonic nanoseconds for phase attribution. Distinct from
/// Tracer::NowNs so phases work with no tracer attached (and in golden
/// tracer mode, where the tracer clock is logical).
uint64_t PhaseNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Same Fibonacci mix as LockManager::ShardOf, for the object map.
size_t ObjectShardIndex(uint64_t id, size_t shards) {
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> 40) % shards;
}

DatabaseOptions ResolveOptions(DatabaseOptions o) {
  size_t n = o.shards;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (n > LockManager::kMaxShards) n = LockManager::kMaxShards;
  o.shards = n;
  o.lock_options.shards = n;
  return o;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(ResolveOptions(std::move(options))),
      locks_(options_.lock_options) {
  object_shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    object_shards_.push_back(std::make_unique<ObjectShard>());
  }
  if (options_.history == HistoryMode::kEpochBatched) {
    epoch_log_ = std::make_unique<EpochLog>();
  }
}

void Database::AttachObservability(MetricsRegistry* metrics,
                                   Tracer* tracer) {
  locks_.AttachMetrics(metrics);
  tracer_ = tracer;
  metrics_ = metrics;
  if (metrics == nullptr) {
    m_committed_ = m_aborted_ = m_deadlocks_ = nullptr;
    m_retries_ = m_conflict_count_ = m_operations_ = nullptr;
    m_epoch_flushes_ = m_epoch_event_count_ = nullptr;
    phase_histograms_.reset();
    return;
  }
  phase_histograms_ = std::make_unique<PhaseHistograms>(metrics);
  m_committed_ = metrics->GetCounter("db.txn.committed");
  m_aborted_ = metrics->GetCounter("db.txn.aborted");
  m_deadlocks_ = metrics->GetCounter("db.txn.deadlocks");
  m_retries_ = metrics->GetCounter("db.txn.retries");
  m_conflict_count_ = metrics->GetCounter("db.call.conflicts");
  m_operations_ = metrics->GetCounter("db.call.operations");
  m_epoch_flushes_ = metrics->GetCounter("db.epoch.flushes");
  m_epoch_event_count_ = metrics->GetCounter("db.epoch.events");
}

void Database::InstallSamplerProbes(MetricsSampler* sampler) {
  if (sampler == nullptr || metrics_ == nullptr) return;
  MetricsRegistry* reg = metrics_;

  // Gauge pointers are resolved once here; the per-tick probe then
  // only reads runtime state and stores into pre-registered gauges.
  struct StripeGauges {
    Gauge* held;
    Gauge* waiters;
    Gauge* waits;
    Gauge* wait_ns;
  };
  auto stripe_gauges = std::make_shared<std::vector<StripeGauges>>();
  for (size_t s = 0; s < locks_.shard_count(); ++s) {
    const std::string prefix = "lock.stripe." + std::to_string(s);
    stripe_gauges->push_back(StripeGauges{
        reg->GetGauge(prefix + ".held"), reg->GetGauge(prefix + ".waiters"),
        reg->GetGauge(prefix + ".waits"),
        reg->GetGauge(prefix + ".wait_ns")});
  }
  struct HotGauges {
    Gauge* id;
    Gauge* waits;
  };
  constexpr size_t kHotSlots = 8;
  auto hot_gauges = std::make_shared<std::vector<HotGauges>>();
  for (size_t k = 0; k < kHotSlots; ++k) {
    const std::string prefix = "lock.hot." + std::to_string(k);
    hot_gauges->push_back(HotGauges{reg->GetGauge(prefix + ".id"),
                                    reg->GetGauge(prefix + ".waits")});
  }
  Gauge* waitsfor_nodes = reg->GetGauge("lock.waitsfor.nodes");
  Gauge* waitsfor_edges = reg->GetGauge("lock.waitsfor.edges");
  Gauge* epoch_number = nullptr;
  Gauge* epoch_pending = nullptr;
  if (epoch_log_ != nullptr) {
    epoch_number = reg->GetGauge("epoch.number");
    epoch_pending = reg->GetGauge("epoch.pending");
  }

  sampler->AddProbe(
      "db.contention",
      [this, reg, stripe_gauges, hot_gauges, waitsfor_nodes, waitsfor_edges,
       epoch_number, epoch_pending] {
        const auto occupancy = locks_.Occupancy();
        for (size_t s = 0;
             s < occupancy.size() && s < stripe_gauges->size(); ++s) {
          (*stripe_gauges)[s].held->Set(
              static_cast<int64_t>(occupancy[s].held));
          (*stripe_gauges)[s].waiters->Set(
              static_cast<int64_t>(occupancy[s].waiters));
          (*stripe_gauges)[s].waits->Set(
              static_cast<int64_t>(occupancy[s].waits));
          (*stripe_gauges)[s].wait_ns->Set(
              static_cast<int64_t>(occupancy[s].wait_ns));
        }
        size_t nodes = 0;
        size_t edges = 0;
        if (locks_.WaitsForSize(&nodes, &edges)) {
          // Contended latch -> keep last tick's values (bounded
          // staleness) rather than stall behind a deadlock check.
          waitsfor_nodes->Set(static_cast<int64_t>(nodes));
          waitsfor_edges->Set(static_cast<int64_t>(edges));
        }
        const auto hottest = locks_.HottestObjects(hot_gauges->size());
        for (size_t k = 0; k < hot_gauges->size(); ++k) {
          if (k < hottest.size()) {
            (*hot_gauges)[k].id->Set(
                static_cast<int64_t>(hottest[k].first.value));
            (*hot_gauges)[k].waits->Set(
                static_cast<int64_t>(hottest[k].second));
          } else {
            (*hot_gauges)[k].id->Set(-1);
            (*hot_gauges)[k].waits->Set(0);
          }
        }
        if (epoch_number != nullptr) {
          epoch_number->Set(static_cast<int64_t>(epoch_log_->epoch()));
          epoch_pending->Set(static_cast<int64_t>(epoch_log_->appended() -
                                                  epoch_log_->flushed()));
        }
      });
}

void Database::TraceAction(const MethodContext& ctx, const std::string& name,
                           uint64_t start, const char* outcome,
                           std::string phases) {
  TraceSpan span;
  span.id = ctx.action_.value;
  span.parent = ctx.parent_ != nullptr ? ctx.parent_->action_.value
                                       : ActionId::kInvalid;
  span.name = name;
  span.object = ctx.self_.value;
  span.txn = ctx.top_.value;
  span.level = ctx.depth_;
  span.tid = tracer_->ThreadId();
  span.start = start;
  span.end = tracer_->NowNs();
  span.outcome = outcome;
  span.phases = std::move(phases);
  tracer_->RecordSpan(std::move(span));
}

void Database::FinishAction(const MethodContext& ctx,
                            ActionEvent::Outcome outcome, uint32_t process,
                            uint64_t timestamp, Invocation&& inv) {
  const bool completed = outcome == ActionEvent::Outcome::kOk ||
                         outcome == ActionEvent::Outcome::kCommit;
  if (epoch_log_ == nullptr) {
    if (timestamp != 0) ts_.SetTimestamp(ctx.action_, timestamp);
    if (completed) ts_.MarkCompleted(ctx.action_);
    return;
  }
  ActionEvent e;
  e.id = ctx.action_.value;
  e.top = ctx.top_.value;
  e.process = process;
  e.sequential = process == 0;
  e.outcome = outcome;
  e.timestamp = timestamp;
  if (completed) {
    e.completion =
        next_completion_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  if (ctx.parent_ == nullptr) {
    e.object = ObjectId::kSystem;
    e.inv = Invocation(*ctx.top_name_);
  } else {
    e.parent = ctx.parent_->action_.value;
    e.object = ctx.self_.value;
    e.inv = std::move(inv);
  }
  epoch_log_->Append(std::move(e));
}

void Database::Register(const ObjectType* type, const std::string& method,
                        MethodImpl impl, MethodTraits traits) {
  registry_.Register(type, method, std::move(impl), std::move(traits));
}

void Database::DeclareTraits(const ObjectType* type,
                             const std::string& method,
                             MethodTraits traits) {
  registry_.SetTraits(type, method, std::move(traits));
}

void Database::DeclareProbe(const ObjectType* type, TypeProbeTraits traits) {
  registry_.SetProbeTraits(type, std::move(traits));
}

ObjectId Database::CreateObject(const ObjectType* type, std::string name,
                                std::unique_ptr<ObjectState> state) {
  auto runtime = std::make_unique<RuntimeObject>();
  runtime->type = type;
  runtime->name = name;
  runtime->state = std::move(state);
  ObjectId id = ts_.AddObject(type, std::move(name));
  ObjectShard& shard =
      *object_shards_[ObjectShardIndex(id.value, object_shards_.size())];
  std::unique_lock<std::shared_mutex> guard(shard.mu);
  shard.objects[id.value] = std::move(runtime);
  return id;
}

Database::RuntimeObject* Database::RuntimeOf(ObjectId id) {
  ObjectShard& shard =
      *object_shards_[ObjectShardIndex(id.value, object_shards_.size())];
  std::shared_lock<std::shared_mutex> guard(shard.mu);
  auto it = shard.objects.find(id.value);
  return it == shard.objects.end() ? nullptr : it->second.get();
}

Status MethodContext::Call(ObjectId obj, Invocation inv, Value* result) {
  Value scratch;
  uint64_t lsn = 0;
  Status st = db_->ExecuteCall(this, obj, std::move(inv),
                               result ? result : &scratch,
                               /*process=*/0, &lsn);
  if (lsn != 0) last_lsn_ = lsn;
  return st;
}

Status MethodContext::CallParallel(const std::vector<ParallelCall>& calls,
                                   std::vector<Value>* results) {
  if (results != nullptr) {
    results->assign(calls.size(), Value());
  }
  std::vector<Status> statuses(calls.size());
  std::vector<std::thread> branches;
  branches.reserve(calls.size());
  // Branch threads bill their blocked time (lock waits, WAL appends) to
  // the same root transaction as the spawning thread.
  PhaseAccumulator* phase_acc = PhaseAccumulator::Current();
  for (size_t i = 0; i < calls.size(); ++i) {
    branches.emplace_back([this, &calls, &statuses, results, phase_acc, i] {
      PhaseScope phase_scope(phase_acc);
      Value scratch;
      uint32_t process =
          db_->next_process_.fetch_add(1, std::memory_order_relaxed);
      statuses[i] = db_->ExecuteCall(
          this, calls[i].object, calls[i].inv,
          results ? &(*results)[i] : &scratch, process);
    });
  }
  for (auto& b : branches) b.join();
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

ObjectId MethodContext::CreateObject(const ObjectType* type,
                                     std::string name,
                                     std::unique_ptr<ObjectState> state) {
  return db_->CreateObject(type, std::move(name), std::move(state));
}

void MethodContext::SetCompensation(Invocation inv) {
  compensation_ = std::move(inv);
}

Status Database::ExecuteCall(MethodContext* parent_ctx, ObjectId obj,
                             Invocation inv, Value* result, uint32_t process,
                             uint64_t* logged_lsn) {
  if (logged_lsn != nullptr) *logged_lsn = 0;
  RuntimeObject* runtime = RuntimeOf(obj);
  if (runtime == nullptr) {
    return Status::NotFound("no object with id " +
                            std::to_string(obj.value));
  }
  const MethodImpl* impl = registry_.Find(runtime->type, inv.method);
  if (impl == nullptr) {
    return Status::Unsupported("no method '" + inv.method + "' on type " +
                               runtime->type->name());
  }
  // Def 3: primitive actions call no other action. (A transaction body's
  // context has no self type.)
  if (parent_ctx->self_type_ != nullptr &&
      parent_ctx->self_type_->primitive()) {
    return Status::Internal(
        "primitive method attempted to call " + inv.method +
        " (Def 3: primitive actions call no other action)");
  }

  const ActionId parent = parent_ctx->action_;
  const ActionId top = parent_ctx->top_;

  // Record the call (Def 2). Parallel branches run in their own process
  // (Def 9) with no precedence edge from earlier siblings. In epoch mode
  // the id comes off an atomic counter and the record is the ActionEvent
  // emitted when the action finishes.
  ActionId action;
  if (epoch_log_ != nullptr) {
    action = ActionId(next_action_.fetch_add(1, std::memory_order_relaxed));
  } else {
    action = ts_.Call(parent, obj, inv, /*sequential=*/process == 0);
    if (process != 0) ts_.SetProcess(action, process);
  }
  MethodContext ctx(this, action, obj, runtime->state.get(),
                    &runtime->latch, parent_ctx, runtime->type);

  // The requester's call sphere as a flat id array (itself first, then
  // its ancestors): the lock manager scans these ids for sphere checks.
  ActionId chain_stack[32];
  std::vector<ActionId> chain_heap;
  size_t chain_len = 0;
  const MethodContext* anc = &ctx;
  for (; anc != nullptr && chain_len < 32; anc = anc->parent_) {
    chain_stack[chain_len++] = anc->action_;
  }
  SphereChain chain{chain_stack, chain_len};
  if (anc != nullptr) {  // absurdly deep call tree: spill to the heap
    chain_heap.assign(chain_stack, chain_stack + chain_len);
    for (; anc != nullptr; anc = anc->parent_) {
      chain_heap.push_back(anc->action_);
    }
    chain = SphereChain{chain_heap.data(), chain_heap.size()};
  }

  // Span start precedes the lock acquire so lock waits show up inside
  // the action's span, where they are spent.
  const bool traced = tracer_ != nullptr;
  const uint64_t span_start = traced ? tracer_->NowNs() : 0;
  std::string span_name;
  if (traced) span_name = runtime->name + "." + inv.method;

  // Acquire per the scheduler mode.
  //
  // Pre-pass-up: a *sequential* *primitive* action called directly by
  // the transaction body acquires with its lock already anchored at the
  // top level — the state ordinary pass-up would reach at its
  // completion anyway. Nothing can observe the early hand-off (a
  // parallel sibling only runs while the body sits inside CallParallel,
  // so no same-transaction action is concurrent with this one; other
  // transactions see the same object/top/commutativity either way), and
  // Def 3 rules out children whose passed-up locks the completion visit
  // would have to release. Completion then moves the lock into the
  // top-level list without visiting its stripe.
  const bool pre_passed =
      (options_.scheduler == SchedulerKind::kOpenNested ||
       options_.scheduler == SchedulerKind::kClosedNested) &&
      parent == top && process == 0 && runtime->type->primitive();
  Status lock_status;
  switch (options_.scheduler) {
    case SchedulerKind::kOpenNested:
    case SchedulerKind::kClosedNested:
      lock_status = locks_.Acquire(obj, runtime->name, runtime->type, inv,
                                   chain, top, &ctx.held_locks_,
                                   LockSemantics::kCommutativity,
                                   /*hold_at_top=*/pre_passed);
      break;
    case SchedulerKind::kFlat2PL:
      // Only the primitive layer is locked; composite calls pass
      // through (the conventional system does not know them).
      if (runtime->type->primitive()) {
        lock_status = locks_.Acquire(obj, runtime->name, runtime->type,
                                     inv, chain, top, &ctx.held_locks_,
                                     LockSemantics::kCommutativity,
                                     /*hold_at_top=*/true);
      }
      break;
    case SchedulerKind::kObjectExclusive:
      lock_status = locks_.Acquire(obj, runtime->name, runtime->type, inv,
                                   chain, top, &ctx.held_locks_,
                                   LockSemantics::kExclusive,
                                   /*hold_at_top=*/true);
      break;
    case SchedulerKind::kNone:
      break;
  }
  if (!lock_status.ok()) {
    counters_.conflicts.fetch_add(1, std::memory_order_relaxed);
    if (m_conflict_count_) m_conflict_count_->Increment();
    if (traced) {
      TraceAction(ctx, span_name, span_start, TraceOutcome(lock_status));
    }
    FinishAction(ctx, ActionEvent::Outcome::kFailed, process, 0,
                 std::move(inv));
    return lock_status;
  }

  uint64_t timestamp = 0;
  Status body_status;
  if (runtime->type->primitive()) {
    // Primitive action: atomic under the object latch, with the Axiom 1
    // timestamp taken inside the critical section so the recorded order
    // is the real conflict order.
    std::lock_guard<std::mutex> latch(runtime->latch);
    body_status = (*impl)(ctx, inv.params, result);
    if (body_status.ok()) {
      timestamp = next_timestamp_.fetch_add(1, std::memory_order_relaxed) + 1;
    }
    counters_.operations.fetch_add(1, std::memory_order_relaxed);
    if (m_operations_) m_operations_->Increment();
  } else {
    body_status = (*impl)(ctx, inv.params, result);
  }

  if (!body_status.ok()) {
    // The action failed: undo its completed children (in reverse), then
    // drop everything it holds — a pre-passed lock included, exactly as
    // if the action held it itself. The caller decides whether the
    // error is recoverable (e.g. Capacity -> split) or aborts further
    // up. Under the hold-at-top disciplines the locks belong to the
    // top-level transaction and survive until it ends.
    CompensateChildren(&ctx);
    if (options_.scheduler == SchedulerKind::kFlat2PL ||
        options_.scheduler == SchedulerKind::kObjectExclusive) {
      locks_.PassUp(&ctx.held_locks_, &parent_ctx->held_locks_);
    } else {
      locks_.Release(&ctx.held_locks_);
    }
    // Span ends after compensation, so the compensating children's
    // spans nest inside the failed action's.
    if (traced) {
      TraceAction(ctx, span_name, span_start, TraceOutcome(body_status));
    }
    FinishAction(ctx, ActionEvent::Outcome::kFailed, process, 0,
                 std::move(inv));
    return body_status;
  }

  // Log completed mutating actions on persistent roots *before* the
  // lock passes up: the action still holds its semantic lock here, so
  // for any pair of conflicting root operations the WAL append order is
  // the lock serialization order — recovery's redo-in-LSN-order then
  // repeats history faithfully. Observers that registered no
  // compensation are not logged (nothing to redo or undo).
  if (durability_ != nullptr && durability_->IsPersistent(obj)) {
    const MethodTraits* traits = registry_.Traits(runtime->type, inv.method);
    const bool observer = traits != nullptr && traits->observer;
    if (!observer || ctx.compensation_.has_value()) {
      const Invocation* comp =
          ctx.compensation_.has_value() ? &*ctx.compensation_ : nullptr;
      uint64_t lsn = durability_->LogOp(top.value, *ctx.top_name_,
                                        runtime->name, inv, comp);
      if (logged_lsn != nullptr) *logged_lsn = lsn;
    }
  }
  // The action's own compensation supersedes its children's, which die
  // with `ctx`.
  if (ctx.compensation_.has_value()) {
    std::lock_guard<std::mutex> guard(parent_ctx->comp_mu_);
    parent_ctx->child_compensations_.push_back(
        MethodContext::PendingCompensation{obj,
                                           std::move(*ctx.compensation_)});
  }
  locks_.PassUp(&ctx.held_locks_, &parent_ctx->held_locks_,
                /*release_children=*/options_.scheduler !=
                    SchedulerKind::kClosedNested);
  if (traced) TraceAction(ctx, span_name, span_start, "ok");
  FinishAction(ctx, ActionEvent::Outcome::kOk, process, timestamp,
               std::move(inv));
  return Status::OK();
}

void Database::CompensateChildren(MethodContext* ctx) {
  // Moved out first: the compensations register compensations of their
  // own under `ctx`, which are dropped with it.
  std::vector<MethodContext::PendingCompensation> entries;
  {
    std::lock_guard<std::mutex> guard(ctx->comp_mu_);
    entries.swap(ctx->child_compensations_);
  }
  Value scratch;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    Status st = ExecuteCall(ctx, it->object, it->inv, &scratch);
    // A deadlock verdict during undo is transient: the other party of
    // the cycle is aborting or retrying and will release its locks, so
    // losing the compensation over it would break abort atomicity.
    // Retry briefly before surfacing.
    for (int attempt = 0; !st.ok() && st.IsDeadlock() && attempt < 8;
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
      st = ExecuteCall(ctx, it->object, it->inv, &scratch);
    }
    if (!st.ok()) {
      // Compensation runs inside the transaction's own lock sphere, so
      // failures here are method bugs or extreme contention; surface
      // loudly but keep unwinding.
      OODB_ERROR("compensation " << it->inv.ToString() << " on object "
                                 << it->object.value
                                 << " failed: " << st.ToString());
    }
  }
}

uint64_t Database::AdvanceEpoch() {
  if (epoch_log_ == nullptr) return 0;
  std::vector<ActionEvent> batch = epoch_log_->Flush();
  const uint64_t count = batch.size();
  const uint64_t epoch = epoch_log_->epoch();
  if (m_epoch_flushes_) m_epoch_flushes_->Increment();
  if (m_epoch_event_count_) m_epoch_event_count_->Increment(count);
  if (epoch_sink_ != nullptr && count > 0) {
    epoch_sink_->OnEpoch(epoch, std::move(batch));
  }
  return count;
}

void Database::QuiesceAndRun(const std::function<void()>& fn) {
  std::unique_lock<std::shared_mutex> gate(txn_gate_);
  fn();
}

Status Database::RunTransaction(const std::string& name,
                                const TransactionBody& body) {
  // Deadlock backoff: per-thread seeding spreads contending threads,
  // but varies run to run. With backoff_seed set, the sequence depends
  // only on (seed, transaction name), so a failing schedule replays.
  // Built only when the seed is set: hashing the name costs every call.
  thread_local Rng backoff_rng(
      std::hash<std::thread::id>()(std::this_thread::get_id()));
  std::optional<Rng> seeded_rng;
  if (options_.backoff_seed != 0) {
    seeded_rng.emplace(options_.backoff_seed ^
                       (std::hash<std::string>()(name) | 1));
  }
  Rng& rng = seeded_rng ? *seeded_rng : backoff_rng;
  // Phase attribution (obs/phases.h): one accumulator for the root
  // transaction's whole life, all retry attempts included. The scope
  // installs it as the thread's current accumulator so the lock manager
  // and the storage engine can credit waits and WAL forces from their
  // own layers; CallParallel re-installs it in branch threads.
  const bool phased = phase_histograms_ != nullptr;
  PhaseAccumulator phase_acc;
  PhaseScope phase_scope(phased ? &phase_acc : nullptr);
  const uint64_t txn_start = phased ? PhaseNowNs() : 0;
  for (int attempt = 0;; ++attempt) {
    const uint64_t attempt_start = phased ? PhaseNowNs() : 0;
    std::string attempt_name =
        attempt == 0 ? name : name + "#r" + std::to_string(attempt);
    // Each attempt holds the transaction gate shared for its whole
    // life (body, compensation, WAL commit/abort record), so an
    // exclusive holder (checkpoint) only ever sees whole transactions.
    std::shared_lock<std::shared_mutex> gate(txn_gate_, std::defer_lock);
    if (durability_ != nullptr) gate.lock();
    ActionId top;
    if (epoch_log_ != nullptr) {
      top = ActionId(next_action_.fetch_add(1, std::memory_order_relaxed));
    } else {
      top = ts_.BeginTopLevel(attempt_name);
    }
    const bool traced = tracer_ != nullptr;
    const uint64_t span_start = traced ? tracer_->NowNs() : 0;
    MethodContext ctx(this, top, ObjectId(), nullptr, nullptr);
    ctx.top_name_ = &attempt_name;
    // Admission: gate entry plus top-level registration, body not yet
    // running.
    if (phased) {
      phase_acc.Add(Phase::kAdmission, PhaseNowNs() - attempt_start);
    }
    Status st = body(ctx);
    if (st.ok()) {
      const uint64_t commit_start = phased ? PhaseNowNs() : 0;
      const uint64_t wal_before =
          phased ? phase_acc.Get(Phase::kWalForce) : 0;
      // Write-ahead: the commit record is appended and forced before
      // any lock releases, so no other transaction can observe (and
      // log operations depending on) effects whose commit might still
      // be lost in a crash.
      if (durability_ != nullptr) durability_->OnCommit(top.value);
      locks_.Release(&ctx.held_locks_);
      counters_.committed.fetch_add(1, std::memory_order_relaxed);
      if (m_committed_) m_committed_->Increment();
      FinishAction(ctx, ActionEvent::Outcome::kCommit, 0, 0, Invocation());
      // Commit-publish: everything between the body returning OK and
      // the transaction being externally visible (history/epoch
      // publish, lock release) minus the WAL force, which the storage
      // engine billed to wal-force directly.
      if (phased) {
        const uint64_t wal_ns =
            phase_acc.Get(Phase::kWalForce) - wal_before;
        const uint64_t publish = PhaseNowNs() - commit_start;
        phase_acc.Add(Phase::kCommitPublish,
                      publish > wal_ns ? publish - wal_ns : 0);
      }
      if (traced) {
        TraceAction(ctx, attempt_name, span_start, "commit",
                    phased ? PhasesJson(phase_acc, PhaseNowNs() - txn_start)
                           : std::string());
      }
      if (durability_ != nullptr) {
        gate.unlock();
        durability_->MaybeCheckpoint(this);
      }
      if (phased) {
        phase_histograms_->Observe(phase_acc, PhaseNowNs() - txn_start);
      }
      return Status::OK();
    }

    // Abort: semantically undo completed top-level children, then
    // release everything.
    CompensateChildren(&ctx);
    // The abort record follows the compensations (which were logged as
    // ordinary operations) and precedes the lock release. It need not
    // be forced: if it is lost, recovery treats the transaction as a
    // loser and re-runs the same compensations — same end state.
    if (durability_ != nullptr) durability_->OnAbort(top.value);
    locks_.Release(&ctx.held_locks_);
    counters_.aborted.fetch_add(1, std::memory_order_relaxed);
    if (m_aborted_) m_aborted_->Increment();
    if (traced) {
      // Aborted attempts carry the breakdown accumulated so far (their
      // compensation work lands in the execute residual).
      TraceAction(ctx, attempt_name, span_start, TraceOutcome(st),
                  phased ? PhasesJson(phase_acc, PhaseNowNs() - txn_start)
                         : std::string());
    }
    FinishAction(ctx, ActionEvent::Outcome::kAbort, 0, 0, Invocation());
    if (st.IsDeadlock()) {
      counters_.deadlocks.fetch_add(1, std::memory_order_relaxed);
      if (m_deadlocks_) m_deadlocks_->Increment();
      if (attempt < options_.max_retries) {
        counters_.retries.fetch_add(1, std::memory_order_relaxed);
        if (m_retries_) m_retries_->Increment();
        if (tracer_ != nullptr) {
          tracer_->RecordInstant("txn.retry", tracer_->NowNs(),
                                 attempt_name);
        }
        // Back off outside the gate so a pending checkpoint is not
        // stalled by a sleeping loser.
        if (gate.owns_lock()) gate.unlock();
        const uint64_t backoff_start = phased ? PhaseNowNs() : 0;
        std::this_thread::sleep_for(std::chrono::microseconds(
            100 + rng.NextBelow(400) * (attempt + 1)));
        if (phased) {
          phase_acc.Add(Phase::kRetryBackoff, PhaseNowNs() - backoff_start);
        }
        continue;
      }
    }
    if (phased) {
      phase_histograms_->Observe(phase_acc, PhaseNowNs() - txn_start);
    }
    return st;
  }
}

}  // namespace oodb
