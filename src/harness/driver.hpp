// Benchmark driver: reproduces the paper's measurement methodology.
//
// A run executes one workload under one protocol (QR-DTM flat, QR-CN manual
// closed nesting, or QR-ACN) with `n_clients` client threads for
// `intervals` fixed-length intervals, recording committed transactions per
// interval — the series every panel of Figure 4 plots.  The driver also
//   * switches the workload phase at scheduled intervals (the contention
//     changes of the Vacation/Bank experiments),
//   * rolls the servers' contention windows at each interval boundary, and
//   * for QR-ACN, runs the Algorithm Module tick right after the roll, so
//     adaptation consumes the window that just closed — mirroring the
//     paper's "every 10 seconds" periodic re-composition.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/acn/executor.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/obs.hpp"
#include "src/sched/scheduler.hpp"
#include "src/workloads/workload.hpp"

namespace acn::harness {

/// The protocol enum lives with the executor now (acn::Protocol); these
/// aliases keep harness call sites source-compatible.
using Protocol = acn::Protocol;
using acn::protocol_name;

/// One client's transaction-submission endpoint — the surface the driver
/// runs workloads through.  The default implementation wraps a group-0
/// QuorumStub + Executor (the pre-sharding path); shard::Client implements
/// the same interface over a sharded cluster, routing each transaction by
/// its predicted footprint.  The factory inversion keeps the layering
/// acyclic (src/shard links the harness, so the harness cannot name
/// shard::Client — same pattern as acn::SchedulerGate / dtm::DurabilitySink).
class Submitter {
 public:
  virtual ~Submitter() = default;

  /// Execute one transaction to commit (retrying internally), with the
  /// Executor::run contract: throws std::invalid_argument on bad options
  /// and the last dtm::TxAbort when retries are exhausted.
  virtual void run(Protocol protocol, const acn::RunOptions& options,
                   const std::vector<acn::ir::Record>& params,
                   acn::ExecStats& stats) = 0;
};

/// Builds one Submitter per client thread: (cluster, client index, executor
/// config, seed).  The bench layer installs shard::ClientFleet::factory()
/// here; null means the default raw-Executor submitter.
using SubmitterFactory = std::function<std::unique_ptr<Submitter>(
    Cluster&, std::size_t, const acn::ExecutorConfig&, std::uint64_t)>;

struct DriverConfig {
  std::size_t n_clients = 8;
  std::size_t intervals = 8;
  std::chrono::milliseconds interval{250};
  /// phase_changes[i] = {interval index, new phase}.
  std::vector<std::pair<std::size_t, int>> phase_changes;
  std::uint64_t seed = 1;
  AlgorithmConfig algorithm;
  ExecutorConfig executor;
  bool check_invariants = true;
  /// QR-ACN contention feed: false = explicit quorum query per adaptation
  /// tick; true = levels piggybacked on every read RPC (Section V-C2).
  bool piggyback_contention = false;
  /// Batched read path: fetch each Block's independent remote reads in one
  /// read_many quorum round (kManualCN/kAcn; other protocols ignore it).
  bool batch_reads = false;
  /// With batch_reads: speculatively prefetch the next Block's independent
  /// reads in the same round (discarded on partial abort).
  bool prefetch = false;
  /// Pause between a client's transactions (emulates more client machines
  /// than threads, or TPC-C keying/think time).  Zero = closed loop.
  std::chrono::nanoseconds think_time{0};
  /// Contention-aware scheduler (src/sched).  With a policy other than
  /// kNone the driver builds one TxScheduler shared by all clients, gates
  /// every Executor::run through it, and feeds it the cluster's contention
  /// snapshot at each interval boundary.
  sched::SchedulerConfig scheduler;
  /// Observability bundle (owned by the caller, typically the bench main).
  /// When set, the driver wires it through every layer — executor, stub,
  /// monitor, controllers — labels the trace with one pid per protocol run,
  /// and returns the per-run metrics delta in RunResult::metrics.
  obs::Observability* obs = nullptr;
  /// Per-client submission endpoint factory.  Null = the default raw
  /// Executor over a group-0 stub (the unsharded path); the bench layer
  /// installs shard::ClientFleet::factory() to route through the
  /// ShardRouter instead.
  SubmitterFactory make_submitter;
  /// Keyspace partition function for per-group hotness reporting (bind
  /// shard::ShardMap::shard_of here).  With the scheduler on, the driver
  /// buckets TxScheduler::hot_keys() by it at every interval boundary and
  /// reports the peak counts in RunResult::hot_keys_by_group (plus the
  /// sched.hot_keys gauge as before).  Null = no per-group breakdown.
  std::function<std::uint32_t(const store::ObjectKey&)> shard_of;
};

struct RunResult {
  Protocol protocol = Protocol::kFlat;
  std::vector<double> throughput;    // committed tx/s per interval
  std::vector<double> abort_rate;    // aborts (full+partial) per second
  ExecStats stats;                   // aggregated over clients
  std::uint64_t adaptations = 0;     // ACN only: Algorithm Module ticks
  std::uint64_t recompositions = 0;  // ACN only: ticks that changed the plan
  // End-to-end transaction latency (first attempt to commit), as
  // obs::HistogramData percentiles: less than 12.5% above the true value.
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  /// Per-run metrics delta (empty unless DriverConfig::obs was set).
  obs::Snapshot metrics;
  /// Peak per-interval count of scheduler hot keys homed on each quorum
  /// group (empty unless both DriverConfig::shard_of and the scheduler were
  /// set).  A skewed vector under uniform load means the placement, not
  /// the workload, concentrates contention.
  std::vector<std::uint64_t> hot_keys_by_group;

  double mean_throughput(std::size_t from_interval = 0) const;
};

/// Run `workload` on a fresh view of `cluster` under `protocol`.
/// The cluster must already be seeded (see seed_workload).
RunResult run(Cluster& cluster, const workloads::Workload& workload,
              Protocol protocol, const DriverConfig& config);

/// Seed every workload object on every replica, in either transport mode
/// (fully-replicated path; shard::ClientFleet::seed is the owner-scoped
/// sharded equivalent).
void seed_workload(Cluster& cluster, workloads::Workload& workload);

/// Convenience: build a cluster per protocol, seed it, run, and return the
/// three results in order {kFlat, kManualCN, kAcn}.
std::vector<RunResult> run_all_protocols(
    const ClusterConfig& cluster_config,
    const std::function<std::unique_ptr<workloads::Workload>()>& make_workload,
    const DriverConfig& config);

}  // namespace acn::harness
