// Partition-and-heal acceptance scenario for the fault subsystem.
//
// One scripted chaos run over the Bank workload:
//   * 10% bidirectional message drops for the middle of the run,
//   * a leaf server crashes and rejoins mid-run (anti-entropy catch-up),
//   * two leaves are partitioned away from the rest and healed,
//   * a second leaf crashes near the end and stays down until the run
//     stops, so its rejoin catch-up runs against a quiescent cluster,
//   * an orphaned two-phase commit (prepared, never finished) holds two
//     account keys until its prepare lease expires.
//
// The run must keep committing transactions throughout, and at exit it
// verifies, beyond the driver's Bank-sum invariant:
//   1. rpc.lease.expired > 0 — the orphaned prepare was reclaimed;
//   2. zero prepared locks outstanding on every replica;
//   3. the node that rejoined after traffic stopped — synced from one read
//      quorum — matches the newest version of every key across ALL
//      replicas (an exhaustive catch-up finds nothing to pull), i.e. the
//      read-quorum sync was as complete as a quorum read promises.
// Exit status is non-zero when any check fails, so CI can gate on it.
//
// With --durability=wal the same checks run against durable replicas:
// every restart then clears the node's memory and rebuilds it from its
// log and snapshot — the orphaned prepare's protections are re-armed from
// the log, and lease expiry must reclaim them all the same.  Two extra
// checks assert the log actually participated (records appended, records
// replayed during the mid-run rejoin).
//
// With --shards=N (> 1) the same chaos plan runs against a sharded cluster
// with Bank submitted through shard::Client, and the orphan becomes a
// cross-shard prepare spanning two groups.  Cross-shard prepares are never
// presumed aborted by expiry — they park in-doubt — so the orphan check
// changes shape: the ChaosController's in-doubt pump must resolve it
// during the run (to abort; the coordinator recorded no decision) so the
// clients retrying its keys get through, nothing may stay parked, and the
// fleet-wide atomicity_breaches counter must be zero at exit.  The Bank
// sum is verified after the heal, when no prepare can still be in flight.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "bench/figure_common.hpp"
#include "src/chaos/chaos.hpp"
#include "src/shard/coordinator.hpp"
#include "src/workloads/bank.hpp"

int main(int argc, char** argv) {
  using namespace acn;
  auto args = bench::BenchOptions::parse(argc, argv);
  if (args.cluster.prepare_lease_ns <= 0)
    args.cluster.prepare_lease_ns = 150'000'000;  // 150ms default
  if (args.drop_probability <= 0) args.drop_probability = 0.10;
  // Check 3 needs commit/abort delivery to be reliable enough that no
  // member silently misses an install: with p = 0.19 per member and round
  // (both legs at 10% loss), 12 replays push residual loss below 1e-9.
  args.cluster.stub.max_commit_replays = 12;
  if (!args.obs) {
    args.obs = std::make_shared<obs::Observability>();
    args.driver.obs = args.obs.get();
  }
  const bool durable =
      args.cluster.durability.mode == harness::DurabilityMode::kWal;
  // Each invocation is a fresh cluster, not a restart of the last one.
  if (durable) std::filesystem::remove_all(args.cluster.durability.data_dir);

  const bool sharded = args.cluster.n_groups > 1;
  std::printf("\n=== Partition & heal: Bank under QR-ACN with leases%s%s ===\n",
              durable ? " (durable replicas)" : "",
              sharded ? " (sharded)" : "");
  harness::Cluster cluster(args.cluster);
  cluster.set_obs(args.obs.get());
  workloads::Bank bank;
  std::unique_ptr<shard::ClientFleet> fleet;
  if (sharded) {
    fleet = std::make_unique<shard::ClientFleet>(
        bank, static_cast<std::uint32_t>(args.cluster.n_groups));
    fleet->seed(cluster, bank);
  } else {
    bank.seed(cluster.servers());
  }
  // Seeding writes the stores directly, bypassing the WAL; checkpoint so
  // the seed state survives the disk-faithful restarts below.
  cluster.checkpoint_all();

  // An orphaned 2PC: prepare two cold account keys and walk away.  Nothing
  // will ever commit or abort this transaction.  Unsharded, only lease
  // expiry can release the keys; sharded, the orphan spans two groups, so
  // expiry parks it in-doubt and cooperative termination must release it
  // instead.
  std::unique_ptr<shard::CrossShardCoordinator> orphan_owner;
  std::optional<shard::ShardTx> orphan_tx;
  if (sharded) {
    const shard::ShardMap& map = fleet->map();
    const store::ObjectKey a = workloads::Bank::account_key(40);
    store::ObjectKey b = a;
    for (store::Field id = 41;; ++id) {
      b = workloads::Bank::account_key(id);
      if (map.shard_of(b) != map.shard_of(a)) break;
    }
    orphan_owner = std::make_unique<shard::CrossShardCoordinator>(
        cluster, fleet->router(), /*client_ordinal=*/500'000);
    acn::KeyFootprint footprint;
    footprint.push_back({std::min(a, b), true});
    footprint.push_back({std::max(a, b), true});
    orphan_tx.emplace(orphan_owner->begin(footprint));
    orphan_tx->write(a, store::Record{0});
    orphan_tx->write(b, store::Record{0});
    if (orphan_tx->prepare_all() < 2)
      throw std::runtime_error("orphan prepared fewer than 2 groups");
    std::printf("[setup] orphaned cross-shard prepare holds %s and %s\n",
                store::to_string(a).c_str(), store::to_string(b).c_str());
  } else {
    auto doomed = cluster.make_stub(/*client_ordinal=*/500'000);
    const dtm::TxId orphan = 0xD00DULL << 32;
    std::vector<store::ObjectKey> orphan_keys = {
        workloads::Bank::account_key(40), workloads::Bank::account_key(41)};
    doomed.prepare(orphan, {}, orphan_keys, {0, 0});
    std::printf("[setup] orphaned prepare holds accounts 40,41\n");
  }

  const auto interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      args.driver.interval);
  const auto victims = chaos::ChaosController::leaf_victims(cluster, 4);
  const net::NodeId midrun_victim = victims.front();
  const net::NodeId late_victim = victims.back();

  chaos::FaultPlan plan;
  plan.drop_burst(interval * 1, args.drop_probability, interval * 5);
  plan.crash(interval * 3 / 2, {midrun_victim}, /*down_for=*/interval * 2);
  if (victims.size() >= 4)
    plan.isolate(interval * 5, {victims[1], victims[2]},
                 /*heal_after=*/interval * 3 / 2);
  if (late_victim != midrun_victim)
    plan.crash(interval * 13 / 2, {late_victim});  // healed by chaos.stop()

  chaos::ChaosController chaos(cluster, plan, args.obs.get());

  auto driver = args.driver;
  // Sharded, the driver's end-of-run invariant check would race the
  // in-doubt machinery (a handed-off phase 2 may still hold protections);
  // it moves to after the heal, when nothing can be in flight.
  if (sharded) driver.check_invariants = false;
  try {
    chaos.start();
    const auto result =
        sharded
            ? bench::run_sharded(cluster, bank, harness::Protocol::kAcn,
                                 driver, *fleet)
            : harness::run(cluster, bank, harness::Protocol::kAcn, driver);
    // Traffic has stopped; stop() drains remaining events and heals —
    // rejoining late_victim from one read quorum against a quiet cluster,
    // then expiring stale leases and resolving every in-doubt prepare (the
    // sharded orphan was resolved mid-run by the pump: no decision record,
    // presumed abort).
    chaos.stop();
    if (sharded) bank.check_invariants(cluster.servers());

    std::printf("%8s %12s\n", "t(s)", "tx/s");
    const double seconds =
        std::chrono::duration<double>(driver.interval).count();
    for (std::size_t k = 0; k < result.throughput.size(); ++k)
      std::printf("%8.2f %12.1f\n", static_cast<double>(k + 1) * seconds,
                  result.throughput[k]);

    // Let the orphan's lease run out even on a short run, then force the
    // lazy expiry sweep everywhere (no traffic after the run ends).
    std::this_thread::sleep_for(
        std::chrono::nanoseconds{args.cluster.prepare_lease_ns} +
        std::chrono::milliseconds{10});
    std::uint64_t leases_expired = 0;
    std::size_t still_protected = 0;
    for (dtm::Server* server : cluster.servers()) {
      server->expire_stale_leases();
      leases_expired += server->stats().leases_expired.load();
      still_protected += server->store().protected_count();
    }
    // Exhaustive catch-up on the late victim: its rejoin synced from one
    // read quorum, so if the intersection property held there is nothing
    // newer anywhere else in the cluster.
    const std::size_t missed =
        cluster.restart_node(late_victim, harness::CatchUpScope::kAllReplicas);

    std::printf(
        "commits=%llu full_aborts=%llu rpc.lease.expired=%llu "
        "catchup_keys=%zu\n",
        static_cast<unsigned long long>(result.stats.commits),
        static_cast<unsigned long long>(result.stats.full_aborts),
        static_cast<unsigned long long>(leases_expired),
        chaos.keys_caught_up());

    bool ok = true;
    if (result.stats.commits == 0) {
      std::fprintf(stderr, "FAIL: no transaction committed\n");
      ok = false;
    }
    if (!sharded && leases_expired == 0) {
      std::fprintf(stderr, "FAIL: no prepare lease expired\n");
      ok = false;
    }
    if (sharded) {
      // The cross-shard orphan must have been terminated cooperatively, not
      // presumed aborted by expiry, and the hard invariant must hold:
      // no coordinator anywhere half-committed a transaction.
      const harness::IndoubtReport& indoubt = chaos.indoubt_report();
      std::size_t still_parked = 0;
      for (dtm::Server* server : cluster.servers())
        still_parked += server->indoubt_count();
      std::printf("indoubt: %zu queries, %zu resolved commit, %zu resolved "
                  "abort, %zu unresolved\n",
                  indoubt.queries, indoubt.resolved_commit,
                  indoubt.resolved_abort, indoubt.unresolved);
      if (indoubt.resolved_abort == 0) {
        std::fprintf(stderr, "FAIL: the orphaned prepare was not resolved\n");
        ok = false;
      }
      if (indoubt.unresolved != 0 || still_parked != 0) {
        std::fprintf(stderr, "FAIL: %zu prepares left in-doubt (%zu parked)\n",
                     indoubt.unresolved, still_parked);
        ok = false;
      }
      const std::uint64_t breaches = fleet->stats().atomicity_breaches.load();
      if (breaches != 0) {
        std::fprintf(stderr, "FAIL: %llu atomicity breaches\n",
                     static_cast<unsigned long long>(breaches));
        ok = false;
      }
    }
    if (still_protected != 0) {
      std::fprintf(stderr, "FAIL: %zu keys still protected at exit\n",
                   still_protected);
      ok = false;
    }
    if (missed != 0) {
      std::fprintf(stderr,
                   "FAIL: rejoined node %d was missing %zu key versions\n",
                   late_victim, missed);
      ok = false;
    }
    if (durable) {
      const auto snap = args.obs->metrics.snapshot();
      const std::uint64_t appended = snap.counter("wal.append.bytes");
      const std::uint64_t replayed = snap.counter("wal.replay.records");
      std::printf("wal.append.bytes=%llu wal.replay.records=%llu\n",
                  static_cast<unsigned long long>(appended),
                  static_cast<unsigned long long>(replayed));
      if (appended == 0) {
        std::fprintf(stderr, "FAIL: durable run logged nothing\n");
        ok = false;
      }
      if (replayed == 0) {
        std::fprintf(stderr,
                     "FAIL: durable restarts replayed no log records\n");
        ok = false;
      }
    }
    if (!args.metrics_json_path.empty()) {
      std::FILE* file = std::fopen(args.metrics_json_path.c_str(), "w");
      if (file == nullptr) {
        std::fprintf(stderr, "FAIL: cannot open %s\n",
                     args.metrics_json_path.c_str());
        ok = false;
      } else {
        std::fprintf(file, "%s\n",
                     args.obs->metrics.snapshot().to_json().c_str());
        std::fclose(file);
        std::printf("metrics written to %s\n", args.metrics_json_path.c_str());
      }
    }
    if (ok) {
      std::printf("all partition/lease/catch-up checks passed "
                  "(invariants verified)\n");
      args.cleanup_data_dir();
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    chaos.stop(/*drain=*/true);
    std::fprintf(stderr, "abl_partition failed: %s\n", e.what());
    return 1;
  }
}
