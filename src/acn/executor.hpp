// Executor Engine (Section V-B): runs a TxProgram to commit under one of
// the protocols the paper evaluates, behind a single entry point:
//
//   executor.run(protocol, options, params, stats)
//
//   * Protocol::kFlat       — QR-DTM: all operations in the parent context;
//                             any conflict restarts the whole transaction.
//   * Protocol::kManualCN   — QR-CN: a fixed Block Sequence (the
//                             programmer's manual decomposition); each Block
//                             executes as a closed-nested transaction,
//                             partial aborts retry the Block only.
//   * Protocol::kAcn        — QR-ACN: like kManualCN, but the sequence comes
//                             from the AdaptiveController, read once when
//                             the run starts, so each transaction runs the
//                             most recent composition.
//   * Protocol::kCheckpoint — QR-CKPT: checkpoint-based partial rollback
//                             (the Section III alternative to nesting).
//
// RunOptions::read_path also switches on the batched read pipeline
// (ReadPipeline): with kBatched, the remote accesses of a Block whose key
// dependencies are satisfied at Block entry are fetched through ONE
// read_many quorum round instead of N sequential reads; with kPrefetch,
// the same round also fetches every later Block's reads whose keys are
// already computable, so a transaction whose keys all come from its
// parameters reads in one round.  Prefetched records are adopted when
// their own Block starts (or discarded, if a partial abort intervenes —
// prefetch never weakens the partial-rollback classification, because
// adopted reads live in the adopting Block's own frame).
//
// Partial rollback mechanics (TxLoop, shared with shard::Client's
// cross-shard path): before a Block starts, the loop snapshots the
// variable environment and opens the Block's rollback point; a partial
// abort rolls the transaction back to that point (here: pops the nested
// frame, discarding the Block's read/write-set entries), restores the
// snapshot and re-executes just that Block.  An abort touching merged
// history escalates to a full restart with randomized exponential backoff.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/acn/blocks.hpp"
#include "src/acn/controller.hpp"
#include "src/acn/footprint.hpp"
#include "src/acn/txir.hpp"
#include "src/common/clock.hpp"
#include "src/common/rng.hpp"

namespace acn {

/// The execution protocols under evaluation (Figure 4's series).
enum class Protocol {
  kFlat,        // QR-DTM
  kManualCN,    // QR-CN
  kAcn,         // QR-ACN
  kCheckpoint,  // QR-CKPT: fine-grained checkpoint partial rollback
};

const char* protocol_name(Protocol protocol);

struct ExecStats {
  std::uint64_t commits = 0;
  std::uint64_t full_aborts = 0;
  std::uint64_t partial_aborts = 0;
  std::uint64_t ops_executed = 0;
  std::uint64_t blocks_executed = 0;
  // Abort breakdown (full + partial):
  std::uint64_t aborts_at_commit = 0;    // raised by the final 2PC
  std::uint64_t aborts_in_execution = 0; // raised by a read mid-transaction
  std::uint64_t aborts_busy = 0;         // kind == kBusy (protect conflicts)
  // Checkpointing executor:
  std::uint64_t checkpoints_taken = 0;
  std::uint64_t checkpoint_restores = 0;

  /// Where in the Block Sequence aborts surface (position clamped to the
  /// last slot).  Under a well-adapted plan the partial aborts concentrate
  /// in the final (hottest) block — the signature of Section III's
  /// code-repositioning argument.
  static constexpr std::size_t kPositionSlots = 12;
  std::uint64_t partials_at_position[kPositionSlots] = {};
  std::uint64_t fulls_at_position[kPositionSlots] = {};

  void merge(const ExecStats& other) noexcept {
    commits += other.commits;
    full_aborts += other.full_aborts;
    partial_aborts += other.partial_aborts;
    ops_executed += other.ops_executed;
    blocks_executed += other.blocks_executed;
    aborts_at_commit += other.aborts_at_commit;
    aborts_in_execution += other.aborts_in_execution;
    aborts_busy += other.aborts_busy;
    checkpoints_taken += other.checkpoints_taken;
    checkpoint_restores += other.checkpoint_restores;
    for (std::size_t i = 0; i < kPositionSlots; ++i) {
      partials_at_position[i] += other.partials_at_position[i];
      fulls_at_position[i] += other.fulls_at_position[i];
    }
  }
};

struct ExecutorConfig {
  /// Partial retries of one Block before escalating to a full restart.
  int max_partial_retries = 64;
  /// Full restarts before giving up (throwing the last TxAbort).
  int max_full_retries = 1 << 20;
  /// Base of the randomized exponential backoff after a full abort.
  std::chrono::nanoseconds backoff_base{std::chrono::microseconds{20}};
  /// When set, every remote read piggybacks a contention query for the
  /// monitor's classes and feeds the reply into it (Section V-C2's
  /// "meta-data coupled with existing network messages").  The monitor
  /// must outlive the executor; it is thread-safe and may be shared.
  ContentionMonitor* piggyback_monitor = nullptr;
  /// When set, committed transactions are appended here for offline
  /// serializability checking (nesting::check_serializable).
  nesting::HistoryLog* history = nullptr;
  /// When set, sharded clients log every multi-group 2PC decision here for
  /// offline cross-shard atomicity checking
  /// (nesting::check_cross_shard_atomicity).  Single-group executors
  /// ignore it.
  nesting::CrossShardLog* cross_log = nullptr;
  /// When set, the executor records tx/Block trace spans and the
  /// commit/abort counters (split partial vs full, by reason code), and
  /// arms the transaction + stub-level instrumentation.  Null = off.
  obs::Observability* obs = nullptr;
};

/// How a run fetches its Blocks' remote reads.  Only kManualCN/kAcn runs
/// use it: flat and checkpointed execution has no Block structure to
/// exploit and always reads one object per round.
enum class ReadPath {
  /// One quorum round per remote read, as the paper's protocols do.
  kSequential,
  /// A Block's reads whose keys are known at its entry come back from one
  /// read_many round (per group, on the cross-shard path).
  kBatched,
  /// kBatched, and every Block's round also fetches the reads of all later
  /// Blocks whose keys are already computable; each record waits for its
  /// own Block, and a partial abort discards what is still waiting.
  kPrefetch,
};

/// Inputs of one run() call.  Which fields are required depends on the
/// protocol: program for kFlat/kCheckpoint; program+model+sequence for
/// kManualCN; controller for kAcn (see the with_* builders below).  The
/// rest are cross-protocol toggles.
struct RunOptions {
  const ir::TxProgram* program = nullptr;
  const DependencyModel* model = nullptr;
  const BlockSequence* sequence = nullptr;
  AdaptiveController* controller = nullptr;
  ReadPath read_path = ReadPath::kSequential;
  /// When set, the run is gated through the contention-aware scheduler:
  /// admit(predicted_footprint) before the first attempt, on_full_abort on
  /// every full abort, finish when the run ends either way.  The gate is
  /// typically one sched::TxScheduler::Session per client thread.
  SchedulerGate* scheduler = nullptr;
};

// RunOptions builders for the common protocol shapes.  The caller keeps the
// referenced program/model/sequence/controller alive for the run:
//
//   executor.run(Protocol::kFlat, with_program(program), params, stats);
//   executor.run(Protocol::kManualCN,
//                with_blocks(program, model, sequence), params, stats);
//   executor.run(Protocol::kAcn, with_controller(controller), params, stats);

/// kFlat / kCheckpoint inputs (both execute the raw program).
inline RunOptions with_program(const ir::TxProgram& program) {
  RunOptions options;
  options.program = &program;
  return options;
}

/// kManualCN inputs: a fixed decomposition (`sequence` valid for `model`).
inline RunOptions with_blocks(const ir::TxProgram& program,
                              const DependencyModel& model,
                              const BlockSequence& sequence) {
  RunOptions options;
  options.program = &program;
  options.model = &model;
  options.sequence = &sequence;
  return options;
}

/// kAcn inputs: the sequence comes from the controller when the run starts.
inline RunOptions with_controller(AdaptiveController& controller) {
  RunOptions options;
  options.controller = &controller;
  return options;
}

/// The runtime half of the batched read pipeline, for one attempt of one
/// transaction over a plan_reads plan.  At each Block's entry, enter()
/// issues one read_many round for the Block's key-known reads and, with
/// prefetch, for every later Block's planned read that is computable now
/// and not yet pending.  Prefetched records wait here until the Block that
/// reads them starts and adopts them into its own frame, so a record that
/// went stale still aborts only that Block.  Every prefetched record ends
/// as exec.prefetch.hit (adopted) or exec.prefetch.waste (already buffered
/// at adoption, dropped by discard(), or still pending when the pipeline
/// dies with its attempt).  TxLoop runs one per attempt, with the attempt
/// as `Backend`, which provides
///   Records read_many(const std::vector<ObjectKey>& own,
///                     const std::vector<ObjectKey>& ahead)
///     — one round: install `own` (skipping buffered keys) and return the
///       records of the `ahead` keys it fetched;
///   bool adopt(const ObjectKey& key, const VersionedRecord& record)
///     — install a prefetched record; false when `key` is already buffered.
class ReadPipeline {
 public:
  using Records = std::vector<std::pair<ir::ObjectKey, store::VersionedRecord>>;

  /// `program` and `plan` must outlive the pipeline.
  ReadPipeline(const ir::TxProgram& program,
               const std::vector<PlannedRead>& plan, bool prefetch,
               obs::Observability* obs)
      : program_(program),
        plan_(plan),
        prefetch_(prefetch),
        obs_(obs),
        sent_(plan.size(), 0) {}
  ~ReadPipeline() { drop_pending(); }
  ReadPipeline(const ReadPipeline&) = delete;
  ReadPipeline& operator=(const ReadPipeline&) = delete;

  /// The fetch stage at the entry of Block `position` (key functions are
  /// evaluated against `env`).  Throws what Backend::read_many throws.
  template <class Backend>
  void enter(std::size_t position, const ir::TxEnv& env, Backend& backend);

  /// A partial abort of the current Block: drop every pending record, and
  /// let the retry fetch the later Blocks' reads again.
  void discard() {
    drop_pending();
    std::fill(sent_.begin(), sent_.end(), 0);
  }

 private:
  void drop_pending() {
    if (obs_ != nullptr && !pending_.empty())
      obs_->prefetch_wasted.add(pending_.size());
    pending_.clear();
  }

  const ir::TxProgram& program_;
  const std::vector<PlannedRead>& plan_;
  bool prefetch_;
  obs::Observability* obs_;
  /// sent_[r]: plan_[r] was fetched ahead of its Block (since the last
  /// discard), so later rounds skip it.
  std::vector<char> sent_;
  std::unordered_map<ir::ObjectKey, store::VersionedRecord,
                     store::ObjectKeyHash>
      pending_;
};

template <class Backend>
void ReadPipeline::enter(std::size_t position, const ir::TxEnv& env,
                         Backend& backend) {
  std::vector<ir::ObjectKey> own;
  std::vector<ir::ObjectKey> ahead;
  std::size_t hits = 0;
  std::size_t waste = 0;
  for (std::size_t r = 0; r < plan_.size(); ++r) {
    const PlannedRead& read = plan_[r];
    const bool mine = read.block == position;
    if (!mine && !(prefetch_ && read.ready <= position &&
                   position < read.block && !sent_[r]))
      continue;
    ir::ObjectKey key = program_.ops[read.op].remote.key_fn(env);
    if (mine) {
      if (const auto it = pending_.find(key); it != pending_.end()) {
        // Adopted into this Block's frame, or already buffered (e.g. an
        // earlier Block wrote the key): either way nothing to fetch.
        ++(backend.adopt(key, it->second) ? hits : waste);
        pending_.erase(it);
        continue;
      }
      own.push_back(std::move(key));
    } else {
      sent_[r] = 1;
      if (!pending_.contains(key)) ahead.push_back(std::move(key));
    }
  }
  if (obs_ != nullptr) {
    if (hits > 0) obs_->prefetch_hits.add(hits);
    if (waste > 0) obs_->prefetch_wasted.add(waste);
  }
  if (own.empty() && ahead.empty()) return;
  for (auto& [key, record] : backend.read_many(own, ahead))
    pending_.emplace(std::move(key), std::move(record));
}

/// What one run executes, resolved once per run from its RunOptions.
struct RunPlan {
  const ir::TxProgram* program = nullptr;
  /// Each Block's ops in execution order (kManualCN; kAcn: the controller's
  /// composition when the run started).  Empty for kFlat and kCheckpoint,
  /// which run the program as one window with no Block rollback point.
  std::vector<std::vector<std::size_t>> blocks;
  /// The Blocks' key-known reads (plan_reads); empty under kSequential.
  std::vector<PlannedRead> reads;
  bool prefetch = false;      // ReadPath::kPrefetch
  bool checkpointed = false;  // kCheckpoint (Executor only; cross-shard it
                              // runs like kFlat)
};

/// Resolve `options` for `protocol`.  Throws std::invalid_argument when
/// `options` lacks the protocol's inputs.
RunPlan resolve(Protocol protocol, const RunOptions& options);

/// Run op `op_index` of `program` in `env` and count it in `stats`.
inline void execute_op(const ir::TxProgram& program, std::size_t op_index,
                       ir::TxEnv& env, ExecStats& stats) {
  ++stats.ops_executed;
  const ir::Op& op = program.ops[op_index];
  if (op.is_remote())
    env.run_remote(op.remote);
  else
    op.local.fn(env);
}

/// Sleep base * 2^min(step, 6), plus up to as much again of random jitter.
void backoff(std::chrono::nanoseconds base, Rng& rng, int step);

/// Count one abort in obs (tx.abort.partial or tx.abort.full, and its
/// by-reason split) and mark it in the trace; `position` is the Block a
/// partial abort rolled back.
void observe_abort(obs::Observability& obs, const dtm::TxAbort& abort,
                   std::uint64_t tx, bool partial, std::size_t position = 0);

/// The transaction attempt loop of both execution paths: Executor (one
/// quorum group; a Block is a closed-nested frame of a
/// nesting::Transaction) and shard::Client's cross-shard path (a Block
/// rolls back to a ShardTx checkpoint).  It owns the attempt loop and the
/// Block loop, both retry caps, every ExecStats field, the obs counters,
/// spans and latency, the SchedulerGate conversation and the backoff.
/// `Attempt` is one attempt's transaction, built fresh per attempt as
/// Attempt(source, program, params) from its path's Attempt::Source, and
/// provides
///   std::uint64_t id() const;  ir::TxEnv& env();
///   read_many(own, ahead), adopt(key, record) — the ReadPipeline backend;
///   void begin_block()  — open the current Block's rollback point;
///   void end_block()    — the Block ran: fold it into the transaction;
///   bool roll_back_block(const dtm::TxAbort& abort, bool may_retry)
///     — classify an abort raised in the Block: when it is partial and
///       may_retry, roll back to the Block's rollback point and return
///       true; otherwise return false (a full restart follows);
///   void commit();
///   void abort()        — release the attempt after a full abort.
template <class Attempt>
class TxLoop {
 public:
  using Source = typename Attempt::Source;

  TxLoop(const ExecutorConfig& config, Rng& rng, ExecStats& stats)
      : config_(config), rng_(rng), stats_(stats) {}

  /// Execute `plan` to commit: the Block loop inside the attempt loop.
  void run(const Source& source, const RunPlan& plan,
           const std::vector<ir::Record>& params, SchedulerGate* gate,
           const KeyFootprint& predicted) {
    run(source, *plan.program, params, gate, predicted,
        [&](Attempt& tx) { run_windows(tx, plan); });
  }

  /// The attempt loop around `body(tx)`, which runs one attempt through its
  /// commit and throws dtm::TxAbort for a full restart.  `gate` (may be
  /// null) admits `predicted` before the first attempt and hears every
  /// full abort and the run's end.  Throws the last dtm::TxAbort when
  /// max_full_retries is exhausted.
  template <class Body>
  void run(const Source& source, const ir::TxProgram& program,
           const std::vector<ir::Record>& params, SchedulerGate* gate,
           const KeyFootprint& predicted, Body&& body);

  void backoff(int step) { acn::backoff(config_.backoff_base, rng_, step); }

 private:
  /// One attempt of `plan`: each Block in turn, or the whole program as one
  /// window when it has none, then the commit.
  void run_windows(Attempt& tx, const RunPlan& plan);
  void run_blocks(Attempt& tx, const RunPlan& plan);

  const ExecutorConfig& config_;
  Rng& rng_;
  ExecStats& stats_;
};

template <class Attempt>
template <class Body>
void TxLoop<Attempt>::run(const Source& source, const ir::TxProgram& program,
                          const std::vector<ir::Record>& params,
                          SchedulerGate* gate, const KeyFootprint& predicted,
                          Body&& body) {
  // finish() on every exit path; the default outcome covers non-TxAbort
  // exceptions too (e.g. an escalating dtm::ObjectMissing).
  struct GateGuard {
    SchedulerGate* gate;
    TxOutcome outcome = TxOutcome::kUnavailable;
    ~GateGuard() {
      if (gate) gate->finish(outcome);
    }
  } guard{gate};
  if (gate) gate->admit(predicted);

  obs::Observability* const o = config_.obs;
  const Stopwatch tx_watch;
  for (int attempt = 0;; ++attempt) {
    Attempt tx(source, program, params);
    obs::Tracer::Span tx_span;
    if (o)
      tx_span.restart(&o->tracer, "tx", "tx", tx.id(), "attempt", attempt);
    try {
      body(tx);
      ++stats_.commits;
      if (o) {
        o->tx_commits.add();
        o->tx_latency_ns.observe(tx_watch.elapsed_ns());
      }
      guard.outcome = TxOutcome::kCommitted;
      return;
    } catch (const dtm::TxAbort& abort) {
      tx.abort();
      ++stats_.full_aborts;
      if (abort.kind() == dtm::AbortKind::kBusy) ++stats_.aborts_busy;
      if (gate) gate->on_full_abort(outcome_of(abort), abort.invalid());
      if (o) observe_abort(*o, abort, tx.id(), /*partial=*/false);
      if (attempt >= config_.max_full_retries) {
        guard.outcome = outcome_of(abort);
        throw;
      }
      backoff(attempt);
    }
  }
}

template <class Attempt>
void TxLoop<Attempt>::run_windows(Attempt& tx, const RunPlan& plan) {
  const ir::TxProgram& program = *plan.program;
  ir::TxEnv& env = tx.env();
  if (plan.blocks.empty()) {
    try {
      for (std::size_t op = 0; op < program.ops.size(); ++op)
        execute_op(program, op, env, stats_);
    } catch (const dtm::TxAbort&) {
      ++stats_.aborts_in_execution;
      throw;
    }
  } else {
    run_blocks(tx, plan);
  }
  try {
    tx.commit();
  } catch (const dtm::TxAbort&) {
    ++stats_.aborts_at_commit;
    throw;
  }
}

template <class Attempt>
void TxLoop<Attempt>::run_blocks(Attempt& tx, const RunPlan& plan) {
  const ir::TxProgram& program = *plan.program;
  ir::TxEnv& env = tx.env();
  obs::Observability* const o = config_.obs;
  ReadPipeline reads(program, plan.reads, plan.prefetch, o);
  for (std::size_t position = 0; position < plan.blocks.size(); ++position) {
    const std::size_t slot = std::min(position, ExecStats::kPositionSlots - 1);
    const ir::TxEnv::Snapshot snapshot = env.snapshot();
    int partial_attempts = 0;
    for (;;) {
      ++stats_.blocks_executed;
      obs::Tracer::Span block_span;
      obs::ScopedLatency block_latency;
      if (o) {
        o->blocks_executed.add();
        block_span.restart(&o->tracer, "block", "block", tx.id(), "position",
                           static_cast<std::int64_t>(position));
        block_latency.arm(o->block_latency_ns);
      }
      tx.begin_block();
      try {
        // After the rollback point: a stale batched or adopted record is
        // this Block's read and rolls back only this Block.
        reads.enter(position, env, tx);
        for (const std::size_t op : plan.blocks[position])
          execute_op(program, op, env, stats_);
        tx.end_block();
        break;
      } catch (const dtm::TxAbort& abort) {
        ++stats_.aborts_in_execution;
        // Records prefetched for later Blocks ride on a snapshot that just
        // proved stale: drop them; the retry (or the restart) fetches again.
        reads.discard();
        if (!tx.roll_back_block(
                abort, partial_attempts < config_.max_partial_retries)) {
          ++stats_.fulls_at_position[slot];
          throw;  // escalate to a full restart
        }
        ++stats_.partial_aborts;
        ++stats_.partials_at_position[slot];
        ++partial_attempts;
        if (o) observe_abort(*o, abort, tx.id(), /*partial=*/true, position);
        env.restore(snapshot);
        if (abort.kind() == dtm::AbortKind::kBusy) backoff(partial_attempts);
      }
    }
  }
}

class Executor {
 public:
  Executor(dtm::QuorumStub& stub, ExecutorConfig config, std::uint64_t seed);

  /// Unified entry point: execute one transaction to commit under
  /// `protocol`.  Throws std::invalid_argument when `options` lacks the
  /// protocol's inputs, and the last dtm::TxAbort when max_full_retries is
  /// exhausted.
  void run(Protocol protocol, const RunOptions& options,
           const std::vector<ir::Record>& params, ExecStats& stats);

  /// run() over an already resolved plan; `gate` (may be null) admits
  /// `predicted`.  shard::Client resolves each transaction once, for
  /// routing, and hands single-shard ones here.
  void run(const RunPlan& plan, SchedulerGate* gate,
           const KeyFootprint& predicted,
           const std::vector<ir::Record>& params, ExecStats& stats);

 private:
  dtm::QuorumStub& stub_;
  ExecutorConfig config_;
  Rng rng_;
};

}  // namespace acn
