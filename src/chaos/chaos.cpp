#include "src/chaos/chaos.hpp"

#include <algorithm>
#include <cstdio>

namespace acn::chaos {
namespace {

const char* kind_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash:
      return "crash";
    case FaultEvent::Kind::kCrashLoseDisk:
      return "crash-lose-disk";
    case FaultEvent::Kind::kRestart:
      return "restart";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kHeal:
      return "heal";
    case FaultEvent::Kind::kDropBurst:
      return "drop-burst";
    case FaultEvent::Kind::kDropRestore:
      return "drop-restore";
    case FaultEvent::Kind::kLatencySpike:
      return "latency-spike";
    case FaultEvent::Kind::kLatencyRestore:
      return "latency-restore";
    case FaultEvent::Kind::kClientDown:
      return "client-down";
    case FaultEvent::Kind::kClientUp:
      return "client-up";
  }
  return "?";
}

}  // namespace

FaultPlan& FaultPlan::crash(Ms at, std::vector<net::NodeId> nodes,
                            Ms down_for) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kCrash;
  event.at = at;
  event.nodes = nodes;
  events_.push_back(std::move(event));
  if (down_for.count() > 0) restart(at + down_for, std::move(nodes));
  return *this;
}

FaultPlan& FaultPlan::crash_lose_disk(Ms at, std::vector<net::NodeId> nodes,
                                      Ms down_for) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kCrashLoseDisk;
  event.at = at;
  event.nodes = nodes;
  events_.push_back(std::move(event));
  if (down_for.count() > 0) restart(at + down_for, std::move(nodes));
  return *this;
}

FaultPlan& FaultPlan::restart(Ms at, std::vector<net::NodeId> nodes) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kRestart;
  event.at = at;
  event.nodes = std::move(nodes);
  events_.push_back(std::move(event));
  return *this;
}

FaultPlan& FaultPlan::partition(Ms at,
                                std::vector<std::vector<net::NodeId>> groups,
                                Ms heal_after) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kPartition;
  event.at = at;
  event.groups = std::move(groups);
  events_.push_back(std::move(event));
  if (heal_after.count() > 0) heal(at + heal_after);
  return *this;
}

FaultPlan& FaultPlan::isolate(Ms at, std::vector<net::NodeId> nodes,
                              Ms heal_after) {
  // Group 0 is implicit "everyone unlisted" (clients included); the named
  // nodes go to group 1, cut off from the rest.
  return partition(at, {{}, std::move(nodes)}, heal_after);
}

FaultPlan& FaultPlan::heal(Ms at) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kHeal;
  event.at = at;
  events_.push_back(std::move(event));
  return *this;
}

FaultPlan& FaultPlan::drop_burst(Ms at, double probability, Ms burst_for) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kDropBurst;
  event.at = at;
  event.drop = probability;
  events_.push_back(std::move(event));
  if (burst_for.count() > 0) {
    FaultEvent restore;
    restore.kind = FaultEvent::Kind::kDropRestore;
    restore.at = at + burst_for;
    events_.push_back(std::move(restore));
  }
  return *this;
}

FaultPlan& FaultPlan::latency_spike(Ms at, std::chrono::nanoseconds extra,
                                    Ms spike_for) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kLatencySpike;
  event.at = at;
  event.extra_latency = extra;
  events_.push_back(std::move(event));
  if (spike_for.count() > 0) {
    FaultEvent restore;
    restore.kind = FaultEvent::Kind::kLatencyRestore;
    restore.at = at + spike_for;
    events_.push_back(std::move(restore));
  }
  return *this;
}

FaultPlan& FaultPlan::client_down(Ms at, std::vector<net::NodeId> nodes,
                                  Ms down_for) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kClientDown;
  event.at = at;
  event.nodes = nodes;
  events_.push_back(std::move(event));
  if (down_for.count() > 0) client_up(at + down_for, std::move(nodes));
  return *this;
}

FaultPlan& FaultPlan::client_up(Ms at, std::vector<net::NodeId> nodes) {
  FaultEvent event;
  event.kind = FaultEvent::Kind::kClientUp;
  event.at = at;
  event.nodes = std::move(nodes);
  events_.push_back(std::move(event));
  return *this;
}

FaultPlan& FaultPlan::crash_coordinator(Ms at, net::NodeId client_node,
                                        Ms down_for) {
  return client_down(at, {client_node}, down_for);
}

FaultPlan& FaultPlan::isolate_group(Ms at, const harness::Cluster& cluster,
                                    std::size_t group, Ms heal_after) {
  return isolate(at, cluster.group_members(group), heal_after);
}

FaultPlan& FaultPlan::phase2_drop_burst(Ms at, double probability,
                                        Ms burst_for) {
  return drop_burst(at, probability, burst_for);
}

ChaosController::ChaosController(harness::Cluster& cluster, FaultPlan plan,
                                 obs::Observability* obs, bool verbose)
    : cluster_(cluster),
      timeline_(plan.events()),
      obs_(obs),
      verbose_(verbose) {
  std::stable_sort(timeline_.begin(), timeline_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
}

ChaosController::~ChaosController() { stop(/*drain=*/true); }

void ChaosController::start() {
  if (thread_.joinable()) return;
  stopping_ = false;
  healed_ = false;
  thread_ = std::thread([this] { run(); });
  pump_ = std::thread([this] { pump(); });
}

void ChaosController::halt() {
  std::lock_guard<std::mutex> guard(mutex_);
  stopping_ = true;
  cv_.notify_all();
}

void ChaosController::stop(bool drain) {
  if (thread_.joinable()) {
    if (drain) halt();
    thread_.join();
  }
  if (pump_.joinable()) {
    halt();
    pump_.join();
  }
  heal_all();
}

void ChaosController::run() {
  const auto start = std::chrono::steady_clock::now();
  for (const FaultEvent& event : timeline_) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_until(lock, start + event.at, [this] { return stopping_; });
      if (stopping_) return;
    }
    fire(event);
    ++events_fired_;
  }
}

void ChaosController::pump() {
  // A transaction whose phase 2 or release the faults ate parks in-doubt
  // with its keys protected, and clients retrying those keys would wait on
  // it until stop().  Termination is idempotent and version-guarded, so
  // racing live traffic is safe.
  constexpr std::chrono::milliseconds kPeriod{25};
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_for(lock, kPeriod, [this] { return stopping_; })) {
    lock.unlock();
    cluster_.expire_all_leases();
    resolve_indoubt();
    lock.lock();
  }
}

void ChaosController::resolve_indoubt() {
  const harness::IndoubtReport report = harness::resolve_indoubt(cluster_);
  indoubt_report_.queries += report.queries;
  indoubt_report_.resolved_commit += report.resolved_commit;
  indoubt_report_.resolved_abort += report.resolved_abort;
  indoubt_report_.unresolved = report.unresolved;
}

void ChaosController::fire(const FaultEvent& event) {
  auto& network = cluster_.transport();
  switch (event.kind) {
    case FaultEvent::Kind::kCrash:
    case FaultEvent::Kind::kCrashLoseDisk:
      for (const net::NodeId id : event.nodes) {
        cluster_.crash_node(
            id, event.kind == FaultEvent::Kind::kCrashLoseDisk);
        if (std::find(down_.begin(), down_.end(), id) == down_.end())
          down_.push_back(id);
        if (verbose_)
          std::printf("[chaos] %s node %d\n", kind_name(event.kind), id);
      }
      if (obs_ != nullptr) obs_->chaos_crashes.add(event.nodes.size());
      break;
    case FaultEvent::Kind::kRestart:
      for (const net::NodeId id : event.nodes) {
        const std::size_t updated = cluster_.restart_node(id);
        keys_caught_up_ += updated;
        down_.erase(std::remove(down_.begin(), down_.end(), id), down_.end());
        if (verbose_)
          std::printf("[chaos] restart node %d (caught up %zu keys)\n", id,
                      updated);
      }
      if (obs_ != nullptr) obs_->chaos_restarts.add(event.nodes.size());
      break;
    case FaultEvent::Kind::kPartition:
      network.set_partition(event.groups);
      if (verbose_) {
        std::printf("[chaos] partition into %zu groups\n",
                    event.groups.size());
      }
      if (obs_ != nullptr) obs_->chaos_partitions.add();
      break;
    case FaultEvent::Kind::kHeal:
      network.clear_partition();
      if (verbose_) std::printf("[chaos] heal partition\n");
      if (obs_ != nullptr) obs_->chaos_heals.add();
      break;
    case FaultEvent::Kind::kDropBurst:
      if (!drop_saved_) {
        drop_baseline_ = network.drop_probability();
        drop_saved_ = true;
      }
      network.set_drop_probability(event.drop);
      if (verbose_) std::printf("[chaos] drop burst p=%.3f\n", event.drop);
      if (obs_ != nullptr) obs_->chaos_drop_bursts.add();
      break;
    case FaultEvent::Kind::kDropRestore:
      if (drop_saved_) {
        network.set_drop_probability(drop_baseline_);
        drop_saved_ = false;
        if (verbose_)
          std::printf("[chaos] drop restored to p=%.3f\n", drop_baseline_);
      }
      break;
    case FaultEvent::Kind::kLatencySpike:
      if (!latency_saved_) {
        latency_baseline_ = network.extra_latency();
        latency_saved_ = true;
      }
      network.set_extra_latency(event.extra_latency);
      if (verbose_) {
        std::printf("[chaos] latency spike +%lldus\n",
                    static_cast<long long>(event.extra_latency.count() / 1000));
      }
      if (obs_ != nullptr) obs_->chaos_latency_spikes.add();
      break;
    case FaultEvent::Kind::kLatencyRestore:
      if (latency_saved_) {
        network.set_extra_latency(latency_baseline_);
        latency_saved_ = false;
        if (verbose_) std::printf("[chaos] latency restored\n");
      }
      break;
    case FaultEvent::Kind::kClientDown:
      // Client nodes have no store or durability: crash_node/restart_node
      // reject them, so a coordinator crash is just its network identity
      // going dark (taking its decision-record handler with it).
      for (const net::NodeId id : event.nodes) {
        network.set_node_down(id, true);
        if (std::find(client_down_.begin(), client_down_.end(), id) ==
            client_down_.end())
          client_down_.push_back(id);
        if (verbose_) std::printf("[chaos] client-down node %d\n", id);
      }
      if (obs_ != nullptr) obs_->chaos_crashes.add(event.nodes.size());
      break;
    case FaultEvent::Kind::kClientUp:
      for (const net::NodeId id : event.nodes) {
        network.set_node_down(id, false);
        client_down_.erase(
            std::remove(client_down_.begin(), client_down_.end(), id),
            client_down_.end());
        if (verbose_) std::printf("[chaos] client-up node %d\n", id);
      }
      if (obs_ != nullptr) obs_->chaos_restarts.add(event.nodes.size());
      break;
  }
}

void ChaosController::heal_all() {
  if (healed_) return;
  healed_ = true;
  auto& network = cluster_.transport();
  if (network.partitioned()) {
    network.clear_partition();
    if (obs_ != nullptr) obs_->chaos_heals.add();
  }
  if (drop_saved_) {
    network.set_drop_probability(drop_baseline_);
    drop_saved_ = false;
  }
  if (latency_saved_) {
    network.set_extra_latency(latency_baseline_);
    latency_saved_ = false;
  }
  for (const net::NodeId id : client_down_) {
    cluster_.transport().set_node_down(id, false);
    if (verbose_) std::printf("[chaos] final client-up node %d\n", id);
  }
  client_down_.clear();
  for (const net::NodeId id : down_) {
    const std::size_t updated = cluster_.restart_node(id);
    keys_caught_up_ += updated;
    if (obs_ != nullptr) obs_->chaos_restarts.add();
    if (verbose_)
      std::printf("[chaos] final restart node %d (caught up %zu keys)\n", id,
                  updated);
  }
  down_.clear();

  // The heal is not complete while a cross-shard prepare is still parked
  // in-doubt: force any overdue lease into the parked state, then run
  // cooperative termination over the (now fully connected) cluster.  With
  // every node back up the coordinator decision record is reachable, so
  // the report's `unresolved` should be zero here.
  cluster_.expire_all_leases();
  resolve_indoubt();
  const harness::IndoubtReport& report = indoubt_report_;
  if (verbose_ && (report.resolved_commit + report.resolved_abort +
                   report.unresolved) > 0) {
    std::printf(
        "[chaos] in-doubt termination: %zu commit, %zu abort, %zu left\n",
        report.resolved_commit, report.resolved_abort, report.unresolved);
  }
}

std::vector<net::NodeId> ChaosController::leaf_victims(
    const harness::Cluster& cluster, std::size_t count, std::size_t group) {
  // Each quorum group is its own heap-layout tree over n_servers local ids,
  // relocated to global ids at `base`.  (The pre-sharding version assumed
  // one global tree over cluster.size() nodes, which mis-names leaves —
  // and can even pick a group's root — as soon as n_groups > 1.)
  const auto n = static_cast<net::NodeId>(cluster.config().n_servers);
  const auto arity = static_cast<net::NodeId>(cluster.config().tree_arity);
  const auto base =
      static_cast<net::NodeId>(group * cluster.config().n_servers);
  std::vector<net::NodeId> victims;
  // Leaves of the implicit heap layout: a node with no first child.  Walk
  // from the highest local id down so the victims sit deepest in the tree.
  for (net::NodeId id = n - 1; id >= 1 && victims.size() < count; --id)
    if (arity * id + 1 >= n) victims.push_back(base + id);
  // Tiny groups (everything a child of the root): settle for any non-root
  // member rather than returning fewer victims than asked.
  for (net::NodeId id = n - 1; id >= 1 && victims.size() < count; --id)
    if (std::find(victims.begin(), victims.end(), base + id) == victims.end())
      victims.push_back(base + id);
  return victims;
}

std::vector<std::vector<net::NodeId>> ChaosController::shard_partition_groups(
    const harness::Cluster& cluster) {
  std::vector<std::vector<net::NodeId>> groups;
  groups.reserve(cluster.n_groups());
  for (std::size_t g = 0; g < cluster.n_groups(); ++g)
    groups.push_back(cluster.group_members(g));
  return groups;
}

}  // namespace acn::chaos
