#include "src/acn/executor.hpp"

#include <stdexcept>
#include <thread>

#include "src/common/clock.hpp"

namespace acn {
namespace {

int abort_reason_index(dtm::AbortKind kind) noexcept {
  switch (kind) {
    case dtm::AbortKind::kValidation:
      return obs::kReasonValidation;
    case dtm::AbortKind::kBusy:
      return obs::kReasonBusy;
    case dtm::AbortKind::kUnavailable:
      return obs::kReasonUnavailable;
  }
  return obs::kReasonValidation;
}

void require(bool present, const char* what) {
  if (!present)
    throw std::invalid_argument(std::string("Executor::run: missing ") + what);
}

/// ReadPipeline backend over the executor's transaction; with a contention
/// monitor armed, every round piggybacks its classes' levels.
struct TxnReads {
  nesting::Transaction& txn;
  ContentionMonitor* monitor;

  ReadPipeline::Records read_many(const std::vector<ir::ObjectKey>& own,
                                  const std::vector<ir::ObjectKey>& ahead) {
    if (monitor == nullptr) return txn.read_many(own, ahead);
    std::vector<std::uint64_t> levels;
    auto records = txn.read_many(own, ahead, monitor->classes(), &levels);
    if (!levels.empty()) monitor->observe(monitor->classes(), levels);
    return records;
  }

  bool adopt(const ir::ObjectKey& key, const store::VersionedRecord& record) {
    return txn.adopt_read(key, record);
  }
};

}  // namespace

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kFlat:
      return "QR-DTM";
    case Protocol::kManualCN:
      return "QR-CN";
    case Protocol::kAcn:
      return "QR-ACN";
    case Protocol::kCheckpoint:
      return "QR-CKPT";
  }
  return "?";
}

Executor::Executor(dtm::QuorumStub& stub, ExecutorConfig config,
                   std::uint64_t seed)
    : stub_(stub), config_(config), rng_(seed) {}

/// Full-abort bookkeeping shared by every execution mode.
void Executor::note_full_abort(const dtm::TxAbort& abort, std::uint64_t tx) {
  if (gate_) gate_->on_full_abort(outcome_of(abort), abort.invalid());
  if (obs::Observability* obs = config_.obs) {
    const int reason = abort_reason_index(abort.kind());
    obs->tx_aborts_full.add();
    obs->aborts_full_reason[reason].add();
    obs->tracer.instant("abort.full", "abort", tx, nullptr, 0, nullptr, 0,
                        "reason", obs::abort_reason_name(reason));
  }
}

void Executor::run(Protocol protocol, const RunOptions& options,
                   const std::vector<ir::Record>& params, ExecStats& stats) {
  // Scoped config override; restored even when the run throws.
  struct Restore {
    ExecutorConfig* slot;
    ExecutorConfig saved;
    bool armed;
    ~Restore() {
      if (armed) *slot = std::move(saved);
    }
  } restore{&config_, config_, options.config_override != nullptr};
  if (options.config_override) config_ = *options.config_override;

  // Arm the scheduler gate for this run: declare the predicted footprint
  // and block until admitted, and guarantee finish() on every exit path
  // (the guard's default outcome covers non-TxAbort exceptions too).
  struct GateGuard {
    Executor* executor;
    SchedulerGate* gate;
    TxOutcome outcome = TxOutcome::kUnavailable;
    ~GateGuard() {
      if (gate) gate->finish(outcome);
      executor->gate_ = nullptr;
    }
  } guard{this, options.scheduler};
  gate_ = options.scheduler;
  if (gate_) {
    const ir::TxProgram* program = options.program;
    if (protocol == Protocol::kAcn && options.controller != nullptr)
      program = &options.controller->algorithm().program();
    gate_->admit(program != nullptr ? predicted_footprint(*program, params)
                                    : KeyFootprint{});
  }

  try {
    switch (protocol) {
      case Protocol::kFlat:
        require(options.program != nullptr, "program (kFlat)");
        run_flat_impl(*options.program, params, stats);
        break;
      case Protocol::kManualCN:
        require(options.program != nullptr, "program (kManualCN)");
        require(options.model != nullptr, "model (kManualCN)");
        require(options.sequence != nullptr, "sequence (kManualCN)");
        run_blocks_impl(*options.program, *options.model, *options.sequence,
                        options, params, stats);
        break;
      case Protocol::kAcn: {
        require(options.controller != nullptr, "controller (kAcn)");
        const auto plan = options.controller->plan();
        run_blocks_impl(options.controller->algorithm().program(), plan->model,
                        plan->sequence, options, params, stats);
        break;
      }
      case Protocol::kCheckpoint:
        require(options.program != nullptr, "program (kCheckpoint)");
        run_checkpointed_impl(*options.program, params, stats);
        break;
      default:
        throw std::invalid_argument("Executor::run: unknown protocol");
    }
  } catch (const dtm::TxAbort& abort) {
    guard.outcome = outcome_of(abort);
    throw;
  }
  guard.outcome = TxOutcome::kCommitted;
}

void Executor::execute_op(const ir::TxProgram& program, std::size_t op_index,
                          ir::TxEnv& env, ExecStats& stats) {
  ++stats.ops_executed;
  const ir::Op& op = program.ops[op_index];
  if (op.is_remote())
    env.run_remote(op.remote);
  else
    op.local.fn(env);
}

void Executor::arm_env(ir::TxEnv& env) {
  if (config_.history) env.txn().set_history(config_.history);
  if (config_.obs) env.txn().set_obs(config_.obs);
  if (ContentionMonitor* monitor = config_.piggyback_monitor) {
    env.set_contention_piggyback(
        monitor->classes(),
        [monitor](const std::vector<ir::ClassId>& classes,
                  const std::vector<std::uint64_t>& levels) {
          monitor->observe(classes, levels);
        });
  }
}

void Executor::backoff(int attempt) {
  const auto base = config_.backoff_base.count();
  const std::int64_t shifted = base << std::min(attempt, 6);
  const std::int64_t jitter =
      static_cast<std::int64_t>(rng_.uniform(0, static_cast<std::uint64_t>(shifted)));
  std::this_thread::sleep_for(std::chrono::nanoseconds{shifted + jitter});
}

void Executor::run_flat_impl(const ir::TxProgram& program,
                             const std::vector<ir::Record>& params,
                             ExecStats& stats) {
  obs::Observability* const o = config_.obs;
  const Stopwatch tx_watch;
  for (int attempt = 0;; ++attempt) {
    nesting::Transaction txn(stub_, nesting::next_tx_id());
    ir::TxEnv env(txn, program, params);
    arm_env(env);
    obs::Tracer::Span tx_span;
    if (o)
      tx_span.restart(&o->tracer, "tx", "tx", txn.id(), "attempt", attempt);
    try {
      for (std::size_t i = 0; i < program.ops.size(); ++i)
        execute_op(program, i, env, stats);
      try {
        txn.commit();
      } catch (const dtm::TxAbort&) {
        ++stats.aborts_at_commit;
        throw;
      }
      ++stats.commits;
      if (o) {
        o->tx_commits.add();
        o->tx_latency_ns.observe(tx_watch.elapsed_ns());
      }
      return;
    } catch (const dtm::TxAbort& abort) {
      ++stats.full_aborts;
      if (abort.kind() == dtm::AbortKind::kBusy) ++stats.aborts_busy;
      note_full_abort(abort, txn.id());
      if (attempt >= config_.max_full_retries) throw;
      backoff(attempt);
    }
  }
}

void Executor::run_blocks_impl(const ir::TxProgram& program,
                               const DependencyModel& model,
                               const BlockSequence& sequence,
                               const RunOptions& options,
                               const std::vector<ir::Record>& params,
                               ExecStats& stats) {
  obs::Observability* const o = config_.obs;

  // The read plan depends only on the program and the sequence, not on
  // runtime state: compute it once per run.
  std::vector<std::vector<std::size_t>> all_ops(sequence.size());
  for (std::size_t i = 0; i < sequence.size(); ++i)
    all_ops[i] = block_ops(sequence[i], model);
  std::vector<PlannedRead> read_plan;
  if (options.batch_reads) read_plan = plan_reads(program, all_ops);

  const Stopwatch tx_watch;
  for (int attempt = 0;; ++attempt) {
    nesting::Transaction txn(stub_, nesting::next_tx_id());
    ir::TxEnv env(txn, program, params);
    arm_env(env);
    obs::Tracer::Span tx_span;
    if (o)
      tx_span.restart(&o->tracer, "tx", "tx", txn.id(), "attempt", attempt);
    ReadPipeline reads(program, read_plan, options.prefetch, o);
    TxnReads backend{txn, config_.piggyback_monitor};
    try {
      for (std::size_t position = 0; position < sequence.size(); ++position) {
        const std::size_t slot =
            std::min(position, ExecStats::kPositionSlots - 1);
        const auto& ops = all_ops[position];
        ir::TxEnv::Snapshot snapshot = env.snapshot();
        int partial_attempts = 0;
        for (;;) {
          ++stats.blocks_executed;
          obs::Tracer::Span block_span;
          obs::ScopedLatency block_latency;
          if (o) {
            o->blocks_executed.add();
            block_span.restart(&o->tracer, "block", "block", txn.id(),
                               "position",
                               static_cast<std::int64_t>(position));
            block_latency.arm(o->block_latency_ns);
          }
          txn.begin_nested();
          try {
            reads.enter(position, env, backend);
            for (std::size_t op : ops) execute_op(program, op, env, stats);
            txn.commit_nested();
            break;
          } catch (const dtm::TxAbort& abort) {
            ++stats.aborts_in_execution;
            // Records prefetched for later Blocks ride on a snapshot that
            // just proved stale: drop them; the retry (or the restart)
            // fetches again.
            reads.discard();
            const bool partial =
                txn.classify(abort) == nesting::AbortScope::kPartial &&
                partial_attempts < config_.max_partial_retries;
            txn.abort_nested();
            if (!partial) {
              ++stats.fulls_at_position[slot];
              throw;  // escalate to a full restart
            }
            ++stats.partial_aborts;
            ++stats.partials_at_position[slot];
            ++partial_attempts;
            if (o) {
              const int reason = abort_reason_index(abort.kind());
              o->tx_aborts_partial.add();
              o->aborts_partial_reason[reason].add();
              o->tracer.instant("abort.partial", "abort", txn.id(), "position",
                                static_cast<std::int64_t>(position), nullptr,
                                0, "reason", obs::abort_reason_name(reason));
            }
            env.restore(snapshot);
            if (abort.kind() == dtm::AbortKind::kBusy)
              backoff(partial_attempts);
          }
        }
      }
      try {
        txn.commit();
      } catch (const dtm::TxAbort&) {
        ++stats.aborts_at_commit;
        throw;
      }
      ++stats.commits;
      if (o) {
        o->tx_commits.add();
        o->tx_latency_ns.observe(tx_watch.elapsed_ns());
      }
      return;
    } catch (const dtm::TxAbort& abort) {
      ++stats.full_aborts;
      if (abort.kind() == dtm::AbortKind::kBusy) ++stats.aborts_busy;
      note_full_abort(abort, txn.id());
      if (attempt >= config_.max_full_retries) throw;
      backoff(attempt);
    }
  }
}

void Executor::run_checkpointed_impl(const ir::TxProgram& program,
                                     const std::vector<ir::Record>& params,
                                     ExecStats& stats) {
  struct Checkpoint {
    std::size_t op_index;
    ir::TxEnv::Snapshot env;
    nesting::Transaction::Checkpoint txn;
  };

  obs::Observability* const o = config_.obs;
  const Stopwatch tx_watch;
  for (int attempt = 0;; ++attempt) {
    nesting::Transaction txn(stub_, nesting::next_tx_id());
    ir::TxEnv env(txn, program, params);
    arm_env(env);
    obs::Tracer::Span tx_span;
    if (o)
      tx_span.restart(&o->tracer, "tx", "tx", txn.id(), "attempt", attempt);
    std::vector<Checkpoint> checkpoints;
    std::unordered_map<ir::ObjectKey, std::size_t, store::ObjectKeyHash>
        first_read_at;
    int restores = 0;
    std::size_t resume_op = 0;

    // Roll back to the checkpoint preceding the first read of any
    // invalidated object.  Objects never seen (e.g. the busy target of the
    // read in flight) roll back to the latest checkpoint.  Returns false
    // when a full restart is required.
    auto try_restore = [&](const dtm::TxAbort& abort) {
      if (checkpoints.empty() || restores >= config_.max_partial_retries)
        return false;
      std::size_t target = checkpoints.size() - 1;
      for (const auto& key : abort.invalid()) {
        const auto it = first_read_at.find(key);
        if (it != first_read_at.end()) target = std::min(target, it->second);
      }
      Checkpoint& point = checkpoints[target];
      env.restore(std::move(point.env));
      txn.restore(std::move(point.txn));
      resume_op = point.op_index;
      checkpoints.resize(target);  // re-pushed when resume_op re-executes
      std::erase_if(first_read_at,
                    [&](const auto& entry) { return entry.second >= target; });
      ++stats.checkpoint_restores;
      ++restores;
      if (o)
        o->tracer.instant("checkpoint.restore", "abort", txn.id(), "resume_op",
                          static_cast<std::int64_t>(resume_op));
      if (abort.kind() == dtm::AbortKind::kBusy) backoff(restores);
      return true;
    };

    try {
      std::size_t op = 0;
      for (;;) {
        try {
          if (op < program.ops.size()) {
            const ir::Op& current = program.ops[op];
            if (current.is_remote()) {
              checkpoints.push_back({op, env.snapshot(), txn.checkpoint()});
              ++stats.checkpoints_taken;
            }
            execute_op(program, op, env, stats);
            if (current.is_remote())
              first_read_at.emplace(env.key_of(current.remote.out),
                                    checkpoints.size() - 1);
            ++op;
          } else {
            txn.commit();
            break;
          }
        } catch (const dtm::TxAbort& abort) {
          if (op < program.ops.size())
            ++stats.aborts_in_execution;
          else
            ++stats.aborts_at_commit;
          if (!try_restore(abort)) throw;
          op = resume_op;
        }
      }
      ++stats.commits;
      if (o) {
        o->tx_commits.add();
        o->tx_latency_ns.observe(tx_watch.elapsed_ns());
      }
      return;
    } catch (const dtm::TxAbort& abort) {
      ++stats.full_aborts;
      if (abort.kind() == dtm::AbortKind::kBusy) ++stats.aborts_busy;
      note_full_abort(abort, txn.id());
      if (attempt >= config_.max_full_retries) throw;
      backoff(attempt);
    }
  }
}

}  // namespace acn
