// Declarative fault injection for the simulated cluster.
//
// A FaultPlan is a deterministic schedule of fault events — crash node N at
// t, partition the cluster for d, raise the drop rate, spike latency — and
// a ChaosController replays it against a harness::Cluster from a background
// thread while a workload runs.  This replaces ad-hoc fault threads inside
// individual benchmarks: the same plan drives abl_faults, abl_partition and
// the chaos tests, and stop() always heals the cluster (clears partitions,
// restores drop/latency baselines, rejoins crashed nodes with catch-up) so
// a run never leaks fault state into the final invariant check.  While
// started, a second thread expires overdue leases and runs cooperative
// termination (harness::resolve_indoubt) every 25 ms, so a prepare parked
// in-doubt mid-run does not hold its keys until stop().
//
// Times are offsets from start() in milliseconds.  Events fire in time
// order; ties fire in insertion order.  The plan itself contains no
// randomness — seeding lives in the workload RNGs — so a chaos run is as
// reproducible as the fault-free benchmarks.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/harness/cluster.hpp"
#include "src/harness/indoubt.hpp"
#include "src/obs/obs.hpp"

namespace acn::chaos {

struct FaultEvent {
  enum class Kind {
    kCrash,           // take nodes off the network (stores preserved)
    kCrashLoseDisk,   // crash that also wipes the node's durable state
    kRestart,         // rejoin nodes after anti-entropy catch-up
    kPartition,       // install symmetric partition groups
    kHeal,            // remove the partition
    kDropBurst,       // raise the global drop probability
    kDropRestore,     // restore the pre-burst drop probability
    kLatencySpike,    // add global extra latency
    kLatencyRestore,  // remove the extra latency
    kClientDown,      // take CLIENT nodes down (coordinator crash: their
                      // decision records become unreachable; no store, no
                      // catch-up — kClientUp just flips them back)
    kClientUp,
  };

  Kind kind = Kind::kCrash;
  std::chrono::milliseconds at{0};
  std::vector<net::NodeId> nodes;                // crash / restart
  std::vector<std::vector<net::NodeId>> groups;  // partition
  double drop = 0.0;                             // drop burst
  std::chrono::nanoseconds extra_latency{0};     // latency spike
};

/// Fluent builder for a fault schedule.  Durations of zero mean "until
/// stop() heals the cluster".
class FaultPlan {
 public:
  using Ms = std::chrono::milliseconds;

  /// Crash `nodes` at `at`; when `down_for` > 0 they rejoin (with catch-up)
  /// that much later.
  FaultPlan& crash(Ms at, std::vector<net::NodeId> nodes, Ms down_for = Ms{0});
  /// Crash `nodes` *and* destroy their data directories: a durable node
  /// rejoins with nothing to replay and must rebuild entirely from peer
  /// catch-up (on a volatile cluster this behaves exactly like crash()).
  FaultPlan& crash_lose_disk(Ms at, std::vector<net::NodeId> nodes,
                             Ms down_for = Ms{0});
  FaultPlan& restart(Ms at, std::vector<net::NodeId> nodes);
  /// Split the cluster into symmetric `groups` at `at` (nodes not listed —
  /// clients in particular — stay in group 0); heal `heal_after` later when
  /// given.
  FaultPlan& partition(Ms at, std::vector<std::vector<net::NodeId>> groups,
                       Ms heal_after = Ms{0});
  /// Cut `nodes` off from everyone else (shorthand for a two-group
  /// partition whose majority side is "everyone unlisted").
  FaultPlan& isolate(Ms at, std::vector<net::NodeId> nodes,
                     Ms heal_after = Ms{0});
  FaultPlan& heal(Ms at);
  FaultPlan& drop_burst(Ms at, double probability, Ms burst_for = Ms{0});
  FaultPlan& latency_spike(Ms at, std::chrono::nanoseconds extra,
                           Ms spike_for = Ms{0});

  // -- 2PC phase-boundary helpers (cross-shard atomicity chaos) ------------
  /// Take client/coordinator nodes down at `at` (their in-flight 2PC is
  /// orphaned mid-protocol and their decision records go dark); back up
  /// `down_for` later when given.  Client nodes have no store — this is
  /// set_node_down, not crash_node.
  FaultPlan& client_down(Ms at, std::vector<net::NodeId> nodes,
                         Ms down_for = Ms{0});
  FaultPlan& client_up(Ms at, std::vector<net::NodeId> nodes);
  /// Crash ONE coordinator at `at` — sugar for client_down on its client
  /// node.  Timed between prepare_all() and phase 2 this creates the
  /// canonical in-doubt scenario: groups prepared, decision possibly
  /// recorded, nobody left to push phase 2.
  FaultPlan& crash_coordinator(Ms at, net::NodeId client_node,
                               Ms down_for = Ms{0});
  /// Partition quorum group `group` of `cluster` away from everyone else
  /// (its prepared transactions outlive their leases and park in-doubt).
  FaultPlan& isolate_group(Ms at, const harness::Cluster& cluster,
                           std::size_t group, Ms heal_after = Ms{0});
  /// A drop burst aimed at phase-two windows: same global drop knob, named
  /// so plans read as "lose commit pushes and decision queries here".
  FaultPlan& phase2_drop_burst(Ms at, double probability, Ms burst_for);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

class ChaosController {
 public:
  ChaosController(harness::Cluster& cluster, FaultPlan plan,
                  obs::Observability* obs = nullptr, bool verbose = true);
  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;
  ~ChaosController();

  /// Begin replaying the plan (event times are offsets from this call) and
  /// start the in-doubt resolver pump.
  void start();

  /// Wait for the remaining events, stop the pump, then heal the cluster:
  /// clear any partition, restore drop/latency baselines, rejoin
  /// still-crashed nodes with catch-up, bring client nodes back up — and
  /// finally expire stale leases and run cooperative termination once more,
  /// so "healed" means no cross-shard prepare is still parked in-doubt.
  /// Idempotent.  `drain` skips the wait and fires nothing further (the
  /// heal still runs).
  void stop(bool drain = false);

  std::size_t events_fired() const noexcept { return events_fired_; }
  /// Keys advanced by catch-up across every restart this controller ran.
  std::size_t keys_caught_up() const noexcept { return keys_caught_up_; }
  /// Cooperative-termination outcome of the pump and the final heal
  /// (`unresolved` is the final heal's; see stop()).
  const harness::IndoubtReport& indoubt_report() const noexcept {
    return indoubt_report_;
  }

  /// The `count` highest-numbered leaf nodes of quorum group `group`'s tree
  /// (never that group's root): the default crash victims — a leaf crash
  /// leaves write quorums constructible, so the workload keeps committing.
  /// Returned ids are global node ids inside the group's slice; on an
  /// unsharded cluster group 0 is the whole tree, the pre-sharding
  /// behavior.
  static std::vector<net::NodeId> leaf_victims(const harness::Cluster& cluster,
                                               std::size_t count,
                                               std::size_t group = 0);

  /// The cluster's groups as partition groups — `[group_members(0),
  /// group_members(1), ...]` — for plans that split the network along
  /// shard boundaries (isolating whole quorum groups instead of arbitrary
  /// node sets).
  static std::vector<std::vector<net::NodeId>> shard_partition_groups(
      const harness::Cluster& cluster);

 private:
  void run();
  void pump();
  void resolve_indoubt();
  void halt();
  void fire(const FaultEvent& event);
  void heal_all();

  harness::Cluster& cluster_;
  std::vector<FaultEvent> timeline_;  // sorted by `at`, stable
  obs::Observability* obs_;
  bool verbose_;

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool healed_ = false;

  std::vector<net::NodeId> down_;         // crashed and not yet restarted
  std::vector<net::NodeId> client_down_;  // client nodes currently down
  harness::IndoubtReport indoubt_report_;
  bool drop_saved_ = false;
  double drop_baseline_ = 0.0;
  bool latency_saved_ = false;
  std::chrono::nanoseconds latency_baseline_{0};

  std::size_t events_fired_ = 0;
  std::size_t keys_caught_up_ = 0;

  std::thread pump_;  // started by start(), joined by stop()
};

}  // namespace acn::chaos
