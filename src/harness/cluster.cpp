#include "src/harness/cluster.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/common/clock.hpp"
#include "src/common/rng.hpp"
#include "src/transport/replica.hpp"
#include "src/transport/spawn.hpp"
#include "src/transport/tcp_transport.hpp"
#include "src/transport/topology.hpp"

namespace acn::harness {
namespace {

std::shared_ptr<const LatencyModel> make_latency(const ClusterConfig& config) {
  if (config.base_latency.count() <= 0) return std::make_shared<ZeroLatency>();
  return std::make_shared<FixedLatency>(config.base_latency,
                                        config.per_kilobyte);
}

std::unique_ptr<quorum::QuorumSystem> make_group_quorums(
    const ClusterConfig& config, std::size_t group) {
  quorum::TreeTopology topology(config.n_servers, config.tree_arity);
  std::unique_ptr<quorum::QuorumSystem> inner;
  switch (config.quorum_policy) {
    case QuorumPolicy::kLevelMajority:
      inner = std::make_unique<quorum::LevelMajorityQuorumSystem>(topology);
      break;
    case QuorumPolicy::kRowa:
      inner = std::make_unique<quorum::RowaQuorumSystem>(config.n_servers);
      break;
    case QuorumPolicy::kTree:
      inner = std::make_unique<quorum::TreeQuorumSystem>(topology,
                                                         config.root_read_bias);
      break;
  }
  // Group g's replicas sit at global ids [g*n, (g+1)*n); the inner system
  // numbers them 0..n-1, so relocate its quorums.  Group 0 needs no shift —
  // the unsharded cluster keeps its exact pre-sharding quorum objects.
  if (group == 0) return inner;
  return std::make_unique<quorum::OffsetQuorumSystem>(
      std::move(inner),
      static_cast<quorum::NodeId>(group * config.n_servers));
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config), network_(make_latency(config)) {
  if (config_.n_groups == 0)
    throw std::invalid_argument("Cluster: n_groups must be >= 1");
  total_nodes_ = config_.n_servers * config_.n_groups;
  quorums_.reserve(config_.n_groups);
  for (std::size_t g = 0; g < config_.n_groups; ++g)
    quorums_.push_back(make_group_quorums(config_, g));

  replicas_.reserve(total_nodes_);
  if (remote()) {
    spawn_fleet();
    for (std::size_t i = 0; i < total_nodes_; ++i)
      replicas_.push_back(
          transport::remote_replica(*tcp_, static_cast<net::NodeId>(i)));
    return;
  }

  transport_ =
      std::make_unique<net::SimTransport<dtm::Request, dtm::Response>>(
          network_);
  local_.reserve(total_nodes_);
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    auto replica = std::make_unique<transport::Replica>(replica_config(i));
    dtm::Server* server = &replica->server();
    network_.register_node(
        static_cast<net::NodeId>(i),
        [server](net::NodeId from, const dtm::Request& request) {
          return server->handle(from, request);
        });
    local_.push_back(replica.get());
    replicas_.push_back(std::move(replica));
  }
}

Cluster::~Cluster() { shutdown_fleet(); }

transport::ReplicaConfig Cluster::replica_config(std::size_t i) const {
  transport::ReplicaConfig replica;
  replica.node = static_cast<net::NodeId>(i);
  replica.group = static_cast<std::uint32_t>(i / config_.n_servers);
  replica.lease_ns = config_.prepare_lease_ns;
  replica.window_ns = config_.contention_window_ns;
  if (config_.durability.mode == DurabilityMode::kWal) {
    wal::WalConfig& wal = replica.wal.emplace();
    wal.dir = config_.durability.data_dir + "/node-" + std::to_string(i);
    wal.flush_interval_ns = config_.durability.flush_interval_ns;
    wal.snapshot_every_bytes = config_.durability.snapshot_every_bytes;
    wal.fsync = config_.durability.fsync;
  }
  return replica;
}

void Cluster::spawn_fleet() {
  namespace fs = std::filesystem;
  const std::string log_dir = config_.tcp.log_dir;
  fs::create_directories(log_dir);
  const std::string binary = config_.tcp.binary.empty()
                                 ? transport::ProcessFleet::default_binary()
                                 : config_.tcp.binary;
  fleet_ = std::make_unique<transport::ProcessFleet>();

  transport::Topology topology;
  topology.servers = config_.n_servers;
  topology.groups = config_.n_groups;
  topology.durability =
      config_.durability.mode == DurabilityMode::kWal ? "wal" : "none";
  std::map<net::NodeId, transport::Endpoint> peers;
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    // Each process builds its Replica from exactly the config the sim
    // path would construct in process.
    const transport::ReplicaConfig replica = replica_config(i);
    std::vector<std::string> args = {
        "--node=" + std::to_string(replica.node),
        "--group=" + std::to_string(replica.group),
        "--host=" + config_.tcp.host,
        "--port=0",
        "--lease-ns=" + std::to_string(replica.lease_ns),
        "--window-ns=" + std::to_string(replica.window_ns),
        "--workers=" + std::to_string(config_.tcp.server_workers),
    };
    if (const auto& wal = replica.wal) {
      args.push_back("--durability=wal");
      args.push_back("--data-dir=" + wal->dir);
      args.push_back("--flush-ns=" + std::to_string(wal->flush_interval_ns));
      args.push_back("--snapshot-bytes=" +
                     std::to_string(wal->snapshot_every_bytes));
      if (!wal->fsync) args.push_back("--no-fsync");
    }
    const int port = fleet_->spawn(
        binary, static_cast<int>(i), args,
        log_dir + "/node-" + std::to_string(i) + ".log",
        config_.tcp.ready_timeout);
    peers[replica.node] = {config_.tcp.host, port};
    topology.nodes.push_back(
        {static_cast<int>(i), replica.group, config_.tcp.host, port});
  }
  // Record what ran: a failed CI job's artifacts then name every process.
  transport::save_topology(topology, log_dir + "/topology.toml");

  transport::TcpTransportConfig transport_config;
  transport_config.call_timeout = config_.tcp.call_timeout;
  auto tcp = std::make_unique<transport::TcpTransport>(
      std::move(peers), transport_config, /*seed=*/0xacd7c9);
  tcp_ = tcp.get();
  transport_ = std::move(tcp);
}

bool Cluster::shutdown_fleet() {
  if (fleet_ == nullptr) return true;
  for (auto& replica : replicas_) replica->shutdown();
  const bool clean = fleet_->wait_all(std::chrono::milliseconds(3000));
  fleet_->kill_all();
  return clean;
}

transport::ReplicaControl& Cluster::replica(std::size_t i) {
  if (i >= replicas_.size())
    throw std::invalid_argument("Cluster: unknown replica id " +
                                std::to_string(i) + " (cluster has " +
                                std::to_string(replicas_.size()) + ")");
  return *replicas_[i];
}

dtm::Server& Cluster::server(std::size_t i) {
  if (remote())
    throw std::logic_error(
        "Cluster::server: replicas are remote processes (TransportMode::kTcp);"
        " use store_snapshot()/mirror() or the control plane");
  replica(i);  // rejects an unknown id
  return local_[i]->server();
}

std::vector<dtm::Server*> Cluster::servers() {
  if (remote())
    throw std::logic_error(
        "Cluster::servers: replicas are remote processes (TransportMode::kTcp);"
        " use store_snapshot()/mirror() or the control plane");
  std::vector<dtm::Server*> out;
  out.reserve(local_.size());
  for (transport::Replica* replica : local_) out.push_back(&replica->server());
  return out;
}

wal::ReplicaPersistence* Cluster::persistence(std::size_t i) {
  return i < local_.size() ? local_[i]->persistence() : nullptr;
}

void Cluster::set_obs(obs::Observability* obs) noexcept {
  config_.stub.obs = obs;
  for (transport::Replica* replica : local_) replica->set_obs(obs);
}

dtm::DtmNetwork& Cluster::network() {
  if (remote())
    throw std::logic_error(
        "Cluster::network: no simulated network under TransportMode::kTcp;"
        " route faults through Cluster::transport()");
  return network_;
}

std::vector<net::NodeId> Cluster::group_members(std::size_t g) const {
  if (g >= config_.n_groups)
    throw std::out_of_range("Cluster::group_members: unknown group");
  std::vector<net::NodeId> out;
  out.reserve(config_.n_servers);
  const std::size_t base = g * config_.n_servers;
  for (std::size_t i = 0; i < config_.n_servers; ++i)
    out.push_back(static_cast<net::NodeId>(base + i));
  return out;
}

std::vector<dtm::Server*> Cluster::group_servers(std::size_t g) {
  std::vector<dtm::Server*> out;
  out.reserve(config_.n_servers);
  for (const net::NodeId id : group_members(g))
    out.push_back(&server(static_cast<std::size_t>(id)));
  return out;
}

dtm::QuorumStub Cluster::make_stub(int client_ordinal, std::uint64_t seed) {
  return make_group_stub(0, client_ordinal, seed);
}

dtm::QuorumStub Cluster::make_group_stub(std::size_t group, int client_ordinal,
                                         std::uint64_t seed) {
  if (group >= config_.n_groups)
    throw std::out_of_range("Cluster::make_group_stub: unknown group");
  const auto client_node =
      static_cast<net::NodeId>(total_nodes_) + client_ordinal;
  // Decorrelate per group so a coordinator's stubs don't pick rhyming
  // quorums across its groups.
  const std::uint64_t stub_seed =
      (seed != 0 ? seed
                 : 0x57ab0000ULL + static_cast<std::uint64_t>(client_ordinal)) ^
      (static_cast<std::uint64_t>(group) << 48);
  dtm::StubConfig stub_config = config_.stub;
  stub_config.group = static_cast<std::uint32_t>(group);
  return dtm::QuorumStub(*transport_, *quorums_[group], client_node, stub_seed,
                         stub_config);
}

void Cluster::seed_object(const store::ObjectKey& key,
                          const store::Record& value) {
  for (std::size_t g = 0; g < config_.n_groups; ++g) seed_object(key, value, g);
}

void Cluster::seed_object(const store::ObjectKey& key,
                          const store::Record& value, std::size_t group) {
  if (group >= config_.n_groups)
    throw std::out_of_range("Cluster::seed_object: unknown group");
  const std::size_t base = group * config_.n_servers;
  for (std::size_t i = 0; i < config_.n_servers; ++i)
    replicas_[base + i]->seed(key, value);
}

void Cluster::flush_seeds() {
  for (auto& replica : replicas_) replica->flush_seeds();
}

std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>
Cluster::store_snapshot(std::size_t i) {
  return replica(i).dump();
}

StateMirror Cluster::mirror() {
  StateMirror m;
  m.owned.reserve(total_nodes_);
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    auto server = std::make_unique<dtm::Server>(static_cast<net::NodeId>(i));
    server->set_group(static_cast<std::uint32_t>(i / config_.n_servers));
    for (auto& [key, rec] : store_snapshot(i))
      server->store().apply(key, rec.value, rec.version, store::kNoTx);
    m.servers.push_back(server.get());
    m.owned.push_back(std::move(server));
  }
  return m;
}

std::size_t Cluster::expire_all_leases() {
  std::size_t expired = 0;
  for (auto& replica : replicas_) expired += replica->expire_leases();
  return expired;
}

std::vector<dtm::InDoubtTx> Cluster::indoubt_transactions(std::size_t i) {
  return replica(i).indoubt();
}

transport::ReplicaProbe Cluster::probe_replica(std::size_t i) {
  return replica(i).probe();
}

void Cluster::roll_contention_windows() {
  for (auto& replica : replicas_) replica->roll_window();
}

std::vector<std::uint64_t> Cluster::class_levels(
    const std::vector<store::ClassId>& classes) {
  std::vector<std::uint64_t> levels(classes.size(), 0);
  for (auto& replica : replicas_) {
    const auto replica_levels = replica->class_levels(classes);
    for (std::size_t c = 0; c < levels.size() && c < replica_levels.size(); ++c)
      levels[c] = std::max(levels[c], replica_levels[c]);
  }
  return levels;
}

void Cluster::crash_node(net::NodeId id, bool lose_disk) {
  transport::ReplicaControl& victim = replica(static_cast<std::size_t>(id));
  // Stop traffic before the group-commit buffer is dropped: a commit the
  // replica logged after the drop would otherwise survive the crash.  On
  // TCP this fails the harness's calls fast instead of letting them burn
  // their deadlines.
  transport_->set_node_down(id, true);
  victim.crash(lose_disk);
}

void Cluster::checkpoint_node(std::size_t i) {
  transport::ReplicaControl& target = replica(i);
  if (config_.durability.mode == DurabilityMode::kWal) target.checkpoint();
}

void Cluster::checkpoint_all() {
  for (std::size_t i = 0; i < total_nodes_; ++i) checkpoint_node(i);
}

std::size_t Cluster::restart_node(net::NodeId id, CatchUpScope scope) {
  transport::ReplicaControl& joiner = replica(static_cast<std::size_t>(id));
  const std::uint64_t start_ns = now_ns();
  const bool durable = config_.durability.mode == DurabilityMode::kWal;

  // Disk-faithful reboot: a durable replica sheds its volatile state and
  // recovers from its own log and snapshot, so the peer sync below becomes
  // a *delta* pass fetching just what the log lost.
  joiner.restart();

  // The joiner's post-recovery versions, so the peer sync ships a delta.
  std::unordered_map<store::ObjectKey, store::Version, store::ObjectKeyHash>
      local;
  for (const auto& [key, rec] : joiner.dump()) local[key] = rec.version;

  // Gather the newest version of every key across the sources — always
  // within the joiner's own quorum group (see catchup_sources).  A source
  // the data plane treats as dead, or whose process cannot be reached, is
  // skipped; dumps ride the control plane on TCP, so a data-plane
  // partition cannot starve recovery.
  std::unordered_map<store::ObjectKey, store::VersionedRecord,
                     store::ObjectKeyHash>
      newest;
  for (const net::NodeId src : catchup_sources(id, scope)) {
    if (transport_->node_down(src)) continue;
    transport::StoreSnapshot snapshot;
    try {
      snapshot = replica(static_cast<std::size_t>(src)).dump();
    } catch (const transport::TransportError&) {
      continue;
    }
    for (auto& [key, rec] : snapshot) {
      auto [it, inserted] = newest.try_emplace(key, rec);
      if (!inserted && rec.version > it->second.version)
        it->second = std::move(rec);
    }
  }

  // Push whatever is newer than the joiner's copy.  The install is
  // version-guarded, so racing live commit traffic can only lose to newer
  // versions.
  std::vector<transport::SeedEntry> delta;
  for (auto& [key, rec] : newest) {
    const auto it = local.find(key);
    if (it != local.end() && it->second >= rec.version) continue;
    delta.push_back({key, std::move(rec.value), rec.version});
  }
  const std::size_t updated = delta.size();
  if (!delta.empty()) joiner.install(std::move(delta));

  // Reopen the replica's data plane, then let traffic reach it.
  joiner.resume();
  transport_->set_node_down(id, false);

  obs::Observability* obs = config_.stub.obs;
  if (obs != nullptr) {
    obs->recovery_catchup_keys.add(updated);
    if (durable) {
      // For a durable node the peer sync was a delta pass on top of log
      // replay; `updated` is what the log could not cover.
      obs->recovery_delta_keys.add(updated);
      obs->recovery_time_ns.observe(now_ns() - start_ns);
    }
  }
  // Make the recovered + caught-up state durable in one snapshot; this also
  // compacts the log the replay just consumed.
  if (durable) joiner.checkpoint();
  return updated;
}

std::vector<net::NodeId> Cluster::catchup_sources(net::NodeId id,
                                                  CatchUpScope scope) {
  // Sources come from the joiner's own quorum group: the groups' keyspaces
  // are disjoint, so a foreign peer holds nothing this replica should serve
  // (and syncing from one would install keys the group does not own).  A
  // read quorum of the group suffices: every committed write reached a
  // write quorum, and read and write quorums intersect, so the newest
  // version of every key is present among the sources.
  const std::size_t joiner_group = group_of(id);
  const std::vector<net::NodeId> peers = group_members(joiner_group);
  std::vector<net::NodeId> sources;
  if (scope == CatchUpScope::kAllReplicas) {
    for (const net::NodeId peer : peers)
      if (peer != id) sources.push_back(peer);
  } else {
    Rng rng(0xca7c4b00ULL ^ (static_cast<std::uint64_t>(id) << 32) ^
            catchup_seq_++);
    sources = quorums_[joiner_group]->read_quorum(rng);
    sources.erase(std::remove(sources.begin(), sources.end(), id),
                  sources.end());
    if (sources.empty())
      for (const net::NodeId peer : peers)
        if (peer != id) sources.push_back(peer);
  }
  return sources;
}

}  // namespace acn::harness
