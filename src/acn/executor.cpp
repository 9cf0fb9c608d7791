#include "src/acn/executor.hpp"

#include <stdexcept>
#include <thread>

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
    throw std::invalid_argument(std::string("acn::resolve: missing ") + what);
}

/// One attempt for TxLoop on the single-group path: a nesting::Transaction
/// whose Blocks are closed-nested frames.  With a contention monitor armed,
/// every read (single or batched) piggybacks its classes' levels.
class NestingAttempt {
 public:
  struct Source {
    dtm::QuorumStub& stub;
    const ExecutorConfig& config;
  };

  NestingAttempt(const Source& source, const ir::TxProgram& program,
                 const std::vector<ir::Record>& params)
      : txn_(source.stub, nesting::next_tx_id()),
        env_(txn_, program, params),
        monitor_(source.config.piggyback_monitor) {
    if (source.config.history) txn_.set_history(source.config.history);
    if (source.config.obs) txn_.set_obs(source.config.obs);
    if (ContentionMonitor* monitor = monitor_) {
      env_.set_contention_piggyback(
          monitor->classes(),
          [monitor](const std::vector<ir::ClassId>& classes,
                    const std::vector<std::uint64_t>& levels) {
            monitor->observe(classes, levels);
          });
    }
  }
  NestingAttempt(const NestingAttempt&) = delete;  // env_ points at txn_
  NestingAttempt& operator=(const NestingAttempt&) = delete;

  std::uint64_t id() const { return txn_.id(); }
  ir::TxEnv& env() { return env_; }
  nesting::Transaction& txn() { return txn_; }

  ReadPipeline::Records read_many(const std::vector<ir::ObjectKey>& own,
                                  const std::vector<ir::ObjectKey>& ahead) {
    if (monitor_ == nullptr) return txn_.read_many(own, ahead);
    std::vector<std::uint64_t> levels;
    auto records = txn_.read_many(own, ahead, monitor_->classes(), &levels);
    if (!levels.empty()) monitor_->observe(monitor_->classes(), levels);
    return records;
  }

  bool adopt(const ir::ObjectKey& key, const store::VersionedRecord& record) {
    return txn_.adopt_read(key, record);
  }

  void begin_block() { txn_.begin_nested(); }
  void end_block() { txn_.commit_nested(); }
  bool roll_back_block(const dtm::TxAbort& abort, bool may_retry) {
    const bool partial =
        txn_.classify(abort) == nesting::AbortScope::kPartial && may_retry;
    txn_.abort_nested();
    return partial;
  }

  void commit() { txn_.commit(); }
  void abort() {}

 private:
  nesting::Transaction txn_;
  ir::TxEnv env_;
  ContentionMonitor* monitor_;
};

/// kCheckpoint's attempt (QR-CKPT): a checkpoint before every remote read;
/// an abort, in execution or at commit, rolls back to the checkpoint
/// preceding the first read of any invalidated object.
void run_checkpointed(NestingAttempt& tx, const ir::TxProgram& program,
                      const ExecutorConfig& config,
                      TxLoop<NestingAttempt>& loop, ExecStats& stats) {
  struct Checkpoint {
    std::size_t op_index;
    ir::TxEnv::Snapshot env;
    nesting::Transaction::Checkpoint txn;
  };

  obs::Observability* const o = config.obs;
  nesting::Transaction& txn = tx.txn();
  ir::TxEnv& env = tx.env();
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
    if (checkpoints.empty() || restores >= config.max_partial_retries)
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
    if (abort.kind() == dtm::AbortKind::kBusy) loop.backoff(restores);
    return true;
  };

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
        return;
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
}

void set_blocks(RunPlan& plan, const DependencyModel& model,
                const BlockSequence& sequence) {
  plan.blocks.reserve(sequence.size());
  for (const Block& block : sequence)
    plan.blocks.push_back(block_ops(block, model));
}

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

RunPlan resolve(Protocol protocol, const RunOptions& options) {
  RunPlan plan;
  switch (protocol) {
    case Protocol::kFlat:
      require(options.program != nullptr, "program (kFlat)");
      plan.program = options.program;
      break;
    case Protocol::kCheckpoint:
      require(options.program != nullptr, "program (kCheckpoint)");
      plan.program = options.program;
      plan.checkpointed = true;
      break;
    case Protocol::kManualCN:
      require(options.program != nullptr, "program (kManualCN)");
      require(options.model != nullptr, "model (kManualCN)");
      require(options.sequence != nullptr, "sequence (kManualCN)");
      plan.program = options.program;
      set_blocks(plan, *options.model, *options.sequence);
      break;
    case Protocol::kAcn: {
      require(options.controller != nullptr, "controller (kAcn)");
      plan.program = &options.controller->algorithm().program();
      const auto composition = options.controller->plan();
      set_blocks(plan, composition->model, composition->sequence);
      break;
    }
    default:
      throw std::invalid_argument("acn::resolve: unknown protocol");
  }
  if (!plan.blocks.empty() && options.read_path != ReadPath::kSequential) {
    plan.reads = plan_reads(*plan.program, plan.blocks);
    plan.prefetch = options.read_path == ReadPath::kPrefetch;
  }
  return plan;
}

void backoff(std::chrono::nanoseconds base, Rng& rng, int step) {
  const std::int64_t shifted = base.count() << std::min(step, 6);
  const std::int64_t jitter = static_cast<std::int64_t>(
      rng.uniform(0, static_cast<std::uint64_t>(shifted)));
  std::this_thread::sleep_for(std::chrono::nanoseconds{shifted + jitter});
}

void observe_abort(obs::Observability& obs, const dtm::TxAbort& abort,
                   std::uint64_t tx, bool partial, std::size_t position) {
  const int reason = abort_reason_index(abort.kind());
  (partial ? obs.tx_aborts_partial : obs.tx_aborts_full).add();
  (partial ? obs.aborts_partial_reason : obs.aborts_full_reason)[reason].add();
  obs.tracer.instant(partial ? "abort.partial" : "abort.full", "abort", tx,
                     partial ? "position" : nullptr,
                     static_cast<std::int64_t>(position), nullptr, 0,
                     "reason", obs::abort_reason_name(reason));
}

Executor::Executor(dtm::QuorumStub& stub, ExecutorConfig config,
                   std::uint64_t seed)
    : stub_(stub), config_(config), rng_(seed) {}

void Executor::run(Protocol protocol, const RunOptions& options,
                   const std::vector<ir::Record>& params, ExecStats& stats) {
  const RunPlan plan = resolve(protocol, options);
  run(plan, options.scheduler,
      options.scheduler != nullptr ? predicted_footprint(*plan.program, params)
                                   : KeyFootprint{},
      params, stats);
}

void Executor::run(const RunPlan& plan, SchedulerGate* gate,
                   const KeyFootprint& predicted,
                   const std::vector<ir::Record>& params, ExecStats& stats) {
  TxLoop<NestingAttempt> loop(config_, rng_, stats);
  const NestingAttempt::Source source{stub_, config_};
  if (!plan.checkpointed) {
    loop.run(source, plan, params, gate, predicted);
    return;
  }
  loop.run(source, *plan.program, params, gate, predicted,
           [&](NestingAttempt& tx) {
             run_checkpointed(tx, *plan.program, config_, loop, stats);
           });
}

}  // namespace acn
