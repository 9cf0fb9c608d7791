#include "src/shard/client.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace acn::shard {
namespace {

void require(bool present, const char* what) {
  if (!present)
    throw std::invalid_argument(std::string("shard::Client::run: missing ") +
                                what);
}

/// ir::TxBackend over a ShardTx: the adapter that lets unmodified
/// TxPrograms execute on the cross-shard path.
class ShardTxBackend final : public ir::TxBackend {
 public:
  explicit ShardTxBackend(ShardTx& tx) : tx_(tx) {}

  ir::Record read(const ir::ObjectKey& key) override { return tx_.read(key); }

  void write(const ir::ObjectKey& key, ir::Record value) override {
    tx_.write(key, std::move(value));
  }

  void insert(const ir::ObjectKey& key, ir::Record value) override {
    // Prepare validates read checks only, never write versions, so a
    // buffered write with no prior read IS a blind insert here.
    tx_.write(key, std::move(value));
  }

 private:
  ShardTx& tx_;
};

/// The program (plus block structure, when the protocol has one) a run
/// executes.  For kAcn the plan snapshot keeps model/sequence alive.
struct Resolved {
  const ir::TxProgram* program = nullptr;
  std::shared_ptr<const Plan> plan;
  const DependencyModel* model = nullptr;
  const BlockSequence* sequence = nullptr;
};

Resolved resolve(Protocol protocol, const acn::RunOptions& options) {
  Resolved out;
  switch (protocol) {
    case Protocol::kFlat:
    case Protocol::kCheckpoint:
      require(options.program != nullptr, "program");
      out.program = options.program;
      break;
    case Protocol::kManualCN:
      require(options.program != nullptr, "program (kManualCN)");
      require(options.model != nullptr, "model (kManualCN)");
      require(options.sequence != nullptr, "sequence (kManualCN)");
      out.program = options.program;
      out.model = options.model;
      out.sequence = options.sequence;
      break;
    case Protocol::kAcn:
      require(options.controller != nullptr, "controller (kAcn)");
      out.plan = options.controller->plan();
      out.program = &options.controller->algorithm().program();
      out.model = &out.plan->model;
      out.sequence = &out.plan->sequence;
      break;
  }
  return out;
}

void execute_op(const ir::TxProgram& program, std::size_t op_index,
                ir::TxEnv& env, acn::ExecStats& stats) {
  ++stats.ops_executed;
  const ir::Op& op = program.ops[op_index];
  if (op.is_remote())
    env.run_remote(op.remote);
  else
    op.local.fn(env);
}

}  // namespace

const char* exec_mode_name(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kAcn:
      return "acn";
    case ExecMode::kQueue:
      return "queue";
    case ExecMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

std::optional<ExecMode> parse_exec_mode(std::string_view text) noexcept {
  if (text == "acn") return ExecMode::kAcn;
  if (text == "queue") return ExecMode::kQueue;
  if (text == "hybrid") return ExecMode::kHybrid;
  return std::nullopt;
}

Client::Client(harness::Cluster& cluster, const ShardRouter& router,
               ClientStats& stats, int client_ordinal,
               acn::ExecutorConfig config, std::uint64_t seed, ExecMode mode,
               std::shared_ptr<Lane> lane)
    : router_(router),
      stats_(stats),
      config_(config),
      mode_(mode),
      lane_(std::move(lane)),
      coordinator_(cluster, router, client_ordinal, seed ^ 0xC0DEULL),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5AAD) {
  coordinator_.set_logs(config_.history, config_.cross_log);
  stubs_.reserve(cluster.n_groups());
  executors_.reserve(cluster.n_groups());
  for (std::size_t g = 0; g < cluster.n_groups(); ++g) {
    stubs_.push_back(std::make_unique<dtm::QuorumStub>(
        cluster.make_group_stub(g, client_ordinal, seed + g)));
    executors_.push_back(std::make_unique<acn::Executor>(
        *stubs_.back(), config_, seed ^ (static_cast<std::uint64_t>(g) << 8)));
  }
}

Client::~Client() {
  // Fold this client's coordinator counters into the fleet totals (the
  // gates assert the breach sum is zero; handoffs are benign and merely
  // reported).
  stats_.atomicity_breaches.fetch_add(
      coordinator_.stats().atomicity_breaches.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  stats_.indoubt_handoffs.fetch_add(
      coordinator_.stats().indoubt_handoffs.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void Client::backoff(int attempt) {
  const auto base = config_.backoff_base.count();
  const std::int64_t shifted = base << std::min(attempt, 6);
  const std::int64_t jitter = static_cast<std::int64_t>(
      rng_.uniform(0, static_cast<std::uint64_t>(shifted)));
  std::this_thread::sleep_for(std::chrono::nanoseconds{shifted + jitter});
}

void Client::run(Protocol protocol, const acn::RunOptions& options,
                 const std::vector<acn::ir::Record>& params,
                 acn::ExecStats& stats) {
  const Resolved resolved = resolve(protocol, options);
  const KeyFootprint predicted =
      predicted_footprint(*resolved.program, params);

  // Deterministic-lane dispatch: kQueue sends every predictable
  // transaction, kHybrid only those whose footprint touches a hot key (the
  // scheduler's call — cold traffic loses nothing to optimism).  A
  // footprint-less transaction is invisible to the planner's queues, so it
  // always stays optimistic.  A demotion falls through to the optimistic
  // paths below, which serializes the re-execution after the lane's epoch.
  if (lane_ != nullptr && mode_ != ExecMode::kAcn && !predicted.empty()) {
    const bool deterministic =
        mode_ == ExecMode::kQueue ||
        (options.scheduler != nullptr && options.scheduler->any_hot(predicted));
    if (deterministic) {
      stats_.lane_submits.fetch_add(1, std::memory_order_relaxed);
      if (lane_->submit(*resolved.program, params, predicted, stats) ==
          LaneOutcome::kCommitted) {
        stats_.lane_commits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      stats_.lane_demotions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const RoutePlan plan = router_.plan(predicted);

  if (plan.single_shard()) {
    const std::uint32_t home = plan.home();
    stats_.fast_path.fetch_add(1, std::memory_order_relaxed);
    try {
      // The pre-sharding path, verbatim: full partial-rollback machinery,
      // admission gating inside Executor::run, one group involved.
      executors_.at(home)->run(protocol, options, params, stats);
      router_.note_commit(plan);
      return;
    } catch (const dtm::ObjectMissing& missing) {
      // Owner-scoped seeding makes a foreign key's absence on the home
      // group the misprediction signal: if another group owns the key,
      // this transaction was never single-shard — escalate.  A key no
      // group owns stays what it always was, a workload bug.
      const ShardMap& map = router_.map();
      if (map.n_shards() == 1 || map.replicated(missing.key().cls) ||
          map.shard_of(missing.key()) == home)
        throw;
      stats_.escalations.fetch_add(1, std::memory_order_relaxed);
    }
  }

  stats_.cross_shard.fetch_add(1, std::memory_order_relaxed);
  run_cross_shard(protocol, options, params, predicted, stats);
  stats_.cross_commits.fetch_add(1, std::memory_order_relaxed);
}

void Client::run_cross_shard(Protocol protocol, const acn::RunOptions& options,
                             const std::vector<acn::ir::Record>& params,
                             const KeyFootprint& predicted,
                             acn::ExecStats& stats) {
  // The same gate conversation Executor::run has, so admission control is
  // uniform across paths.  On an escalation the fast path's gate already
  // finished (the ObjectMissing escaped Executor::run); this re-admits.
  acn::SchedulerGate* const gate = options.scheduler;
  struct GateGuard {
    acn::SchedulerGate* gate;
    acn::TxOutcome outcome = acn::TxOutcome::kUnavailable;
    ~GateGuard() {
      if (gate) gate->finish(outcome);
    }
  } guard{gate};
  if (gate) gate->admit(predicted);

  for (int attempt = 0;; ++attempt) {
    // Re-resolve per attempt: under kAcn the controller may have published
    // a new composition between restarts (same contract as Executor::run).
    const Resolved resolved = resolve(protocol, options);
    const ir::TxProgram& program = *resolved.program;

    // Execution windows: the Block Sequence where the protocol has one,
    // the whole program as one window otherwise (kFlat/kCheckpoint carry
    // no block structure — cross-shard they restart in full).
    std::vector<std::vector<std::size_t>> blocks;
    // The key-known reads, fetched at Block entry in one read_many round
    // per serving group (with prefetch, every later Block's too).
    std::vector<PlannedRead> read_plan;
    if (resolved.sequence != nullptr) {
      blocks.reserve(resolved.sequence->size());
      for (const Block& block : *resolved.sequence)
        blocks.push_back(block_ops(block, *resolved.model));
      if (options.batch_reads) read_plan = plan_reads(program, blocks);
    } else {
      std::vector<std::size_t>& all = blocks.emplace_back(program.ops.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
    }

    ShardTx tx = coordinator_.begin(predicted);
    ShardTxBackend backend(tx);
    ir::TxEnv env(backend, program, params);
    acn::ReadPipeline reads(program, read_plan, options.prefetch, config_.obs);
    try {
      for (std::size_t position = 0; position < blocks.size(); ++position) {
        const std::size_t slot =
            std::min(position, acn::ExecStats::kPositionSlots - 1);
        // Block-level partial rollback across shards: checkpoint the
        // buffered read/write-sets and the variable frame, retry just this
        // window when an abort is confined to it.
        const ShardTx::Checkpoint point = tx.checkpoint();
        const ir::TxEnv::Snapshot snapshot = env.snapshot();
        int partial_attempts = 0;
        for (;;) {
          ++stats.blocks_executed;
          try {
            // After the checkpoint: a stale batched or adopted key is this
            // Block's read and rolls back only this Block.
            reads.enter(position, env, tx);
            for (const std::size_t op : blocks[position])
              execute_op(program, op, env, stats);
            break;
          } catch (const dtm::TxAbort& abort) {
            ++stats.aborts_in_execution;
            reads.discard();
            // Partial iff rolling this window back discards every stale
            // read: each invalidated key must be unseen before the window
            // (absent from the checkpoint's read-set).  This is the
            // closed-nesting classification, computed on buffered state.
            bool partial = blocks.size() > 1 &&
                           partial_attempts < config_.max_partial_retries;
            if (partial) {
              for (const auto& key : abort.invalid()) {
                if (point.reads.count(key) != 0) {
                  partial = false;
                  break;
                }
              }
            }
            if (!partial) {
              ++stats.fulls_at_position[slot];
              throw;  // escalate to a full restart
            }
            ++stats.partial_aborts;
            ++stats.partials_at_position[slot];
            ++partial_attempts;
            tx.restore(point);     // lvalues: restore/env keep the originals
            env.restore(snapshot); // usable for the next partial retry
            if (abort.kind() == dtm::AbortKind::kBusy)
              backoff(partial_attempts);
          }
        }
      }
      try {
        tx.commit();  // reclassify + fast path or 2PC, per actual keys
      } catch (const dtm::TxAbort&) {
        ++stats.aborts_at_commit;
        throw;
      }
      ++stats.commits;
      guard.outcome = acn::TxOutcome::kCommitted;
      return;
    } catch (const dtm::TxAbort& abort) {
      tx.abort();  // no-op when commit() already finished the handle
      ++stats.full_aborts;
      if (abort.kind() == dtm::AbortKind::kBusy) ++stats.aborts_busy;
      if (gate) gate->on_full_abort(acn::outcome_of(abort), abort.invalid());
      if (attempt >= config_.max_full_retries) {
        guard.outcome = acn::outcome_of(abort);
        throw;
      }
      backoff(attempt);
    }
  }
}

namespace {

ShardMap make_map(const workloads::Workload& workload, std::uint32_t n_shards) {
  const workloads::Placement placement = workload.placement();
  ShardMapConfig config;
  config.n_shards = n_shards;
  if (placement.shard_of) {
    config.partitioning = Partitioning::kCustom;
    config.custom = placement.shard_of;
  }
  config.replicated_classes = placement.replicated_classes;
  return ShardMap(config);
}

}  // namespace

ClientFleet::ClientFleet(const workloads::Workload& workload,
                         std::uint32_t n_shards)
    : map_(make_map(workload, n_shards)), router_(map_) {}

void ClientFleet::seed(harness::Cluster& cluster,
                       workloads::Workload& workload) const {
  workload.seed_objects(
      [&](const store::ObjectKey& key, const store::Record& value) {
        seed_sharded(cluster, map_, key, value);
      });
  cluster.flush_seeds();
}

harness::SubmitterFactory ClientFleet::factory() {
  return [this](harness::Cluster& cluster, std::size_t client,
                const acn::ExecutorConfig& config,
                std::uint64_t seed) -> std::unique_ptr<harness::Submitter> {
    return std::make_unique<Client>(cluster, router_, stats_,
                                    static_cast<int>(client), config, seed,
                                    mode_, lane_for(cluster));
  };
}

void ClientFleet::set_lane(ExecMode mode, LaneFactory make_lane) {
  std::lock_guard<std::mutex> lock(lane_mutex_);
  mode_ = mode;
  make_lane_ = std::move(make_lane);
  lane_.reset();
}

std::shared_ptr<Lane> ClientFleet::lane() const {
  std::lock_guard<std::mutex> lock(lane_mutex_);
  return lane_;
}

std::shared_ptr<Lane> ClientFleet::lane_for(harness::Cluster& cluster) {
  // Client threads race through factory(); the first one builds the lane.
  std::lock_guard<std::mutex> lock(lane_mutex_);
  if (mode_ == ExecMode::kAcn || !make_lane_) return nullptr;
  if (!lane_) lane_ = make_lane_(cluster, router_);
  return lane_;
}

std::function<std::uint32_t(const store::ObjectKey&)> ClientFleet::shard_of()
    const {
  return [this](const store::ObjectKey& key) { return map_.shard_of(key); };
}

}  // namespace acn::shard
