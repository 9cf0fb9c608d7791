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
//                             from the AdaptiveController at every attempt,
//                             so the transaction always runs the most recent
//                             composition.
//   * Protocol::kCheckpoint — QR-CKPT: checkpoint-based partial rollback
//                             (the Section III alternative to nesting).
//
// RunOptions also switches on the batched read pipeline (ReadPipeline):
// with batch_reads, the remote accesses of a Block whose key dependencies
// are satisfied at Block entry are fetched through ONE read_many quorum
// round instead of N sequential reads; with prefetch, the same round also
// fetches every later Block's reads whose keys are already computable, so
// a transaction whose keys all come from its parameters reads in one
// round.  Prefetched records are adopted when their own Block starts (or
// discarded, if a partial abort intervenes — prefetch never weakens the
// partial-rollback classification, because adopted reads live in the
// adopting Block's own frame).
//
// Partial rollback mechanics: before a Block starts, the executor snapshots
// the variable environment; a partial abort pops the nested frame (discarding
// the Block's read/write-set entries), restores the snapshot and re-executes
// just that Block.  An abort touching merged history escalates to a full
// restart with randomized exponential backoff.
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

/// Inputs of one run() call.  Which fields are required depends on the
/// protocol: program for kFlat/kCheckpoint; program+model+sequence for
/// kManualCN; controller for kAcn (see the with_* builders below).  The
/// rest are cross-protocol toggles.
struct RunOptions {
  const ir::TxProgram* program = nullptr;
  const DependencyModel* model = nullptr;
  const BlockSequence* sequence = nullptr;
  AdaptiveController* controller = nullptr;
  /// Fetch a Block's independent remote reads through one batched quorum
  /// round (kManualCN/kAcn; flat and checkpointed execution has no Block
  /// structure to exploit and ignores it).
  bool batch_reads = false;
  /// With batch_reads: every Block's round also fetches the reads of all
  /// later Blocks whose keys are already computable; each record waits for
  /// its own Block, and a partial abort discards what is still waiting.
  bool prefetch = false;
  /// When set, replaces the executor's construction-time config (retry
  /// caps, backoff, obs pointer, monitor, history) for this run only.
  const ExecutorConfig* config_override = nullptr;
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

/// kAcn inputs: the sequence comes from the controller at every attempt.
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
/// dies with its attempt).  Executor and shard::Client share it; `Backend`
/// provides
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

class Executor {
 public:
  Executor(dtm::QuorumStub& stub, ExecutorConfig config, std::uint64_t seed);

  /// Unified entry point: execute one transaction to commit under
  /// `protocol`.  Throws std::invalid_argument when `options` lacks the
  /// protocol's inputs, and the last dtm::TxAbort when max_full_retries is
  /// exhausted.
  void run(Protocol protocol, const RunOptions& options,
           const std::vector<ir::Record>& params, ExecStats& stats);

 private:
  void run_flat_impl(const ir::TxProgram& program,
                     const std::vector<ir::Record>& params, ExecStats& stats);
  void run_blocks_impl(const ir::TxProgram& program,
                       const DependencyModel& model,
                       const BlockSequence& sequence, const RunOptions& options,
                       const std::vector<ir::Record>& params, ExecStats& stats);
  void run_checkpointed_impl(const ir::TxProgram& program,
                             const std::vector<ir::Record>& params,
                             ExecStats& stats);

  void execute_op(const ir::TxProgram& program, std::size_t op_index,
                  ir::TxEnv& env, ExecStats& stats);
  void arm_env(ir::TxEnv& env);  // history log + contention piggyback
  void backoff(int attempt);
  /// Report one full abort to obs and to the scheduler gate, if armed.
  void note_full_abort(const dtm::TxAbort& abort, std::uint64_t tx);

  dtm::QuorumStub& stub_;
  ExecutorConfig config_;
  Rng rng_;
  /// The active run's scheduler gate (null between runs / when unused).
  SchedulerGate* gate_ = nullptr;
};

}  // namespace acn
