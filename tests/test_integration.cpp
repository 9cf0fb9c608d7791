// Integration tests: full cluster, concurrent clients, all three protocols
// end-to-end through the benchmark driver, with invariant checks and
// adaptation behaviour.
#include <gtest/gtest.h>

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "src/harness/driver.hpp"
#include "src/harness/report.hpp"
#include "src/workloads/bank.hpp"
#include "src/workloads/tpcc.hpp"
#include "src/workloads/vacation.hpp"

namespace acn::harness {
namespace {

ClusterConfig quick_cluster() {
  ClusterConfig config;
  config.n_servers = 7;
  config.base_latency = std::chrono::microseconds{3};
  config.stub.retry.base = std::chrono::microseconds{5};
  return config;
}

DriverConfig quick_driver() {
  DriverConfig config;
  config.n_clients = 4;
  config.intervals = 3;
  config.interval = std::chrono::milliseconds{120};
  config.executor.backoff_base = std::chrono::microseconds{5};
  return config;
}

TEST(Integration, BankAllProtocolsCommitAndKeepInvariants) {
  const auto results = run_all_protocols(
      quick_cluster(),
      [] {
        return std::make_unique<workloads::Bank>(
            workloads::BankConfig{.n_branches = 16, .n_accounts = 256});
      },
      quick_driver());
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    EXPECT_GT(result.stats.commits, 0u) << protocol_name(result.protocol);
    for (double tps : result.throughput)
      EXPECT_GT(tps, 0.0) << protocol_name(result.protocol);
  }
  // Closed-nesting protocols execute blocks; flat never partially aborts.
  EXPECT_EQ(results[0].stats.partial_aborts, 0u);
  EXPECT_EQ(results[0].stats.blocks_executed, 0u);
  EXPECT_GT(results[1].stats.blocks_executed, 0u);
  EXPECT_GT(results[2].stats.blocks_executed, 0u);
  EXPECT_GT(results[2].adaptations, 0u);
}

TEST(Integration, VacationWithPhaseChanges) {
  auto driver = quick_driver();
  driver.phase_changes = {{1, 1}, {2, 2}};
  const auto results = run_all_protocols(
      quick_cluster(),
      [] {
        return std::make_unique<workloads::Vacation>(
            workloads::VacationConfig{.n_items = 32, .n_customers = 64});
      },
      driver);
  for (const auto& result : results)
    EXPECT_GT(result.stats.commits, 0u) << protocol_name(result.protocol);
}

TEST(Integration, TpccMixedProfile) {
  workloads::TpccConfig tpcc;
  tpcc.n_warehouses = 2;
  tpcc.districts_per_warehouse = 4;
  tpcc.customers_per_district = 10;
  tpcc.n_items = 32;
  tpcc.order_ring = 16;
  tpcc.w_neworder = 0.5;
  tpcc.w_payment = 0.5;
  const auto results = run_all_protocols(
      quick_cluster(),
      [tpcc] { return std::make_unique<workloads::Tpcc>(tpcc); },
      quick_driver());
  for (const auto& result : results)
    EXPECT_GT(result.stats.commits, 0u) << protocol_name(result.protocol);
}

TEST(Integration, AcnAdaptsBankPlanToHotBranches) {
  // Drive contention by hand: heavy branch traffic, then ask the controller
  // to adapt; the published plan must become the Figure 3 arrangement.
  Cluster cluster(quick_cluster());
  workloads::Bank bank({.n_branches = 8, .n_accounts = 64});
  bank.seed(cluster.servers());

  AdaptiveController controller(*bank.profiles()[0].program, {},
                                default_contention_model());
  ContentionMonitor monitor(controller.touched_classes());
  auto stub = cluster.make_stub(0);
  Executor executor(stub, {}, 5);
  Rng rng(5);

  ExecStats stats;
  for (int i = 0; i < 40; ++i) {
    // Phase 0 params: branches hot.
    executor.run(Protocol::kAcn, with_controller(controller),
                 bank.profiles()[0].make_params(rng, 0), stats);
  }
  cluster.roll_contention_windows();
  controller.adapt_from(monitor, stub);

  const auto plan = controller.plan();
  ASSERT_FALSE(plan->sequence.empty());
  // The hottest block (branches) must be the last one.
  const auto& mod = controller.algorithm();
  const double last = mod.block_level(plan->sequence.back(), plan->model,
                                      plan->levels_used);
  for (const auto& block : plan->sequence)
    EXPECT_LE(mod.block_level(block, plan->model, plan->levels_used), last);
  EXPECT_GT(monitor.level(workloads::Bank::kBranch),
            monitor.level(workloads::Bank::kAccount));
}

TEST(Integration, DriverCountsIntervalsAndStats) {
  Cluster cluster(quick_cluster());
  workloads::Bank bank({.n_branches = 16, .n_accounts = 128});
  bank.seed(cluster.servers());
  auto config = quick_driver();
  config.intervals = 2;
  const auto result = run(cluster, bank, Protocol::kFlat, config);
  EXPECT_EQ(result.throughput.size(), 2u);
  EXPECT_GT(result.mean_throughput(), 0.0);
  EXPECT_EQ(result.protocol, Protocol::kFlat);
}

TEST(Integration, ImprovementPctComputes) {
  RunResult a, b;
  a.throughput = {0, 150};
  b.throughput = {0, 100};
  EXPECT_DOUBLE_EQ(improvement_pct(a, b, 1), 50.0);
  EXPECT_DOUBLE_EQ(improvement_pct(b, b, 1), 0.0);
  RunResult zero;
  zero.throughput = {0, 0};
  EXPECT_DOUBLE_EQ(improvement_pct(a, zero, 1), 0.0);
}

TEST(Integration, ProtocolNames) {
  EXPECT_STREQ(protocol_name(Protocol::kFlat), "QR-DTM");
  EXPECT_STREQ(protocol_name(Protocol::kManualCN), "QR-CN");
  EXPECT_STREQ(protocol_name(Protocol::kAcn), "QR-ACN");
}

TEST(Integration, PiggybackContentionFeedAdaptsToo) {
  Cluster cluster(quick_cluster());
  workloads::Bank bank({.n_branches = 16, .n_accounts = 128});
  bank.seed(cluster.servers());
  auto config = quick_driver();
  config.piggyback_contention = true;
  const auto result = run(cluster, bank, Protocol::kAcn, config);
  EXPECT_GT(result.stats.commits, 0u);
  EXPECT_GT(result.adaptations, 0u);
}

TEST(Integration, CheckpointProtocolThroughDriver) {
  Cluster cluster(quick_cluster());
  workloads::Bank bank({.n_branches = 16, .n_accounts = 128});
  bank.seed(cluster.servers());
  auto config = quick_driver();
  config.intervals = 2;
  const auto result = run(cluster, bank, Protocol::kCheckpoint, config);
  EXPECT_GT(result.stats.commits, 0u);
  EXPECT_GT(result.stats.checkpoints_taken, result.stats.commits);
  EXPECT_EQ(result.stats.partial_aborts, 0u);  // restores instead
}

// Building a submitter registers its client node with the transport, which
// is not safe against other clients' in-flight calls: the driver must build
// every submitter before the first transaction starts.
TEST(Integration, SubmittersAllBuiltBeforeFirstTransaction) {
  struct NoopSubmitter final : Submitter {
    std::function<void()> on_first_tx;
    void run(Protocol, const RunOptions&, const std::vector<ir::Record>&,
             ExecStats&) override {
      if (on_first_tx) std::exchange(on_first_tx, nullptr)();
    }
  };
  Cluster cluster(quick_cluster());
  workloads::Bank bank({.n_branches = 16, .n_accounts = 128});
  bank.seed(cluster.servers());
  auto config = quick_driver();
  config.intervals = 1;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t built = 0;
  bool first_tx_started = false;
  const std::thread::id test_thread = std::this_thread::get_id();
  config.make_submitter = [&](Cluster&, std::size_t t, const ExecutorConfig&,
                              std::uint64_t) -> std::unique_ptr<Submitter> {
    std::unique_lock lock(mutex);
    // Built inside a worker: hold this one until another client's first
    // transaction has started, so a driver that builds submitters in its
    // workers fails on every run instead of by chance.
    if (t > 0 && std::this_thread::get_id() != test_thread)
      cv.wait(lock, [&] { return first_tx_started; });
    ++built;
    auto submitter = std::make_unique<NoopSubmitter>();
    submitter->on_first_tx = [&] {
      std::lock_guard first_lock(mutex);
      EXPECT_EQ(built, config.n_clients)
          << "a transaction ran before every submitter was built";
      first_tx_started = true;
      cv.notify_all();
    };
    return submitter;
  };
  run(cluster, bank, Protocol::kFlat, config);
  EXPECT_EQ(built, config.n_clients);
}

TEST(Integration, LevelMajorityQuorumClusterWorks) {
  auto cluster_config = quick_cluster();
  cluster_config.quorum_policy = QuorumPolicy::kLevelMajority;
  Cluster cluster(cluster_config);
  workloads::Bank bank({.n_branches = 16, .n_accounts = 128});
  bank.seed(cluster.servers());
  auto config = quick_driver();
  config.intervals = 2;
  const auto result = run(cluster, bank, Protocol::kAcn, config);
  EXPECT_GT(result.stats.commits, 0u);
}

TEST(Integration, NetworkFaultToleranceUnderLoad) {
  // A non-root server going down mid-run must not stop progress (reads
  // re-select quorums around it; writes keep their quorums root-anchored).
  Cluster cluster(quick_cluster());
  workloads::Bank bank({.n_branches = 16, .n_accounts = 128});
  bank.seed(cluster.servers());
  cluster.network().set_node_down(5, true);
  auto config = quick_driver();
  config.intervals = 2;
  const auto result = run(cluster, bank, Protocol::kManualCN, config);
  EXPECT_GT(result.stats.commits, 0u);
}

}  // namespace
}  // namespace acn::harness
