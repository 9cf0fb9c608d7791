#include "src/transport/replica.hpp"

#include <utility>

#include "src/transport/tcp_transport.hpp"

namespace acn::transport {

// ---- Replica ------------------------------------------------------------

Replica::Replica(ReplicaConfig config)
    : server_(std::make_unique<dtm::Server>(config.node, config.window_ns,
                                            config.lease_ns)) {
  server_->set_group(config.group);
  if (!config.wal) return;
  persistence_ =
      std::make_unique<wal::ReplicaPersistence>(std::move(*config.wal));
  recover();
  server_->set_durability(persistence_.get());
}

void Replica::recover() {
  auto recovered = persistence_->recover();
  server_->install_recovered(recovered.objects, recovered.open_prepares);
}

void Replica::set_obs(obs::Observability* obs) noexcept {
  server_->set_obs(obs);
  if (persistence_) persistence_->set_obs(obs);
}

void Replica::install(std::vector<SeedEntry> entries) {
  // Racing live commits can only lose to newer versions: apply() is
  // version-guarded.
  for (const SeedEntry& e : entries)
    server_->store().apply(e.key, e.value, e.version, store::kNoTx);
}

void Replica::crash(bool lose_disk) {
  if (!persistence_) return;
  persistence_->drop_unflushed();
  if (lose_disk) persistence_->wipe();
}

void Replica::restart() {
  if (!persistence_) return;
  // The "crash" left memory intact; what a real reboot keeps is exactly
  // what recover() reads back from the log and snapshot.
  server_->reset_volatile_state();
  recover();
}

void Replica::checkpoint() {
  if (!persistence_) return;
  dtm::Server* server = server_.get();
  persistence_->write_snapshot([server] {
    return dtm::SnapshotData{server->store().snapshot(),
                             server->open_prepares()};
  });
}

ReplicaProbe Replica::probe() {
  ReplicaProbe probe;
  probe.open_leases = server_->open_lease_count();
  probe.protected_keys = server_->store().protected_count();
  probe.wrong_group = server_->stats().wrong_group.load();
  probe.indoubt = server_->indoubt_count();
  probe.open_prepares = server_->open_prepares().size();
  return probe;
}

// ---- RemoteReplica ------------------------------------------------------

namespace {

ControlRequest request(ControlOp op) {
  ControlRequest req;
  req.op = op;
  return req;
}

class RemoteReplica final : public ReplicaControl {
 public:
  RemoteReplica(TcpTransport& tcp, net::NodeId node) : tcp_(tcp), node_(node) {}

  void seed(const store::ObjectKey& key, const store::Record& value) override {
    pending_seeds_.push_back({key, value, 1});
  }
  void flush_seeds() override {
    if (pending_seeds_.empty()) return;
    install(std::exchange(pending_seeds_, {}));
  }
  void install(std::vector<SeedEntry> entries) override {
    ControlRequest req = request(ControlOp::kSeed);
    req.entries = std::move(entries);
    tcp_.control(node_, req);
  }
  StoreSnapshot dump() override {
    ControlReply reply = tcp_.control(node_, request(ControlOp::kDump));
    StoreSnapshot out;
    out.reserve(reply.entries.size());
    for (SeedEntry& entry : reply.entries)
      out.push_back({entry.key, {std::move(entry.value), entry.version}});
    return out;
  }
  void crash(bool lose_disk) override {
    // The process also suspends its data plane: it refuses data hellos
    // and kills live data connections until kResume.
    ControlRequest req = request(ControlOp::kCrash);
    req.lose_disk = lose_disk;
    tcp_.control(node_, req);
  }
  void restart() override { tcp_.control(node_, request(ControlOp::kRestart)); }
  void resume() override { tcp_.control(node_, request(ControlOp::kResume)); }
  void checkpoint() override { try_op(ControlOp::kCheckpoint); }
  std::size_t expire_leases() override {
    const auto reply = try_op(ControlOp::kExpireLeases);
    return reply ? reply->count : 0;
  }
  std::vector<dtm::InDoubtTx> indoubt() override {
    auto reply = try_op(ControlOp::kIndoubtList);
    return reply ? std::move(reply->indoubt) : std::vector<dtm::InDoubtTx>{};
  }
  ReplicaProbe probe() override {
    const auto reply = try_op(ControlOp::kProbe);
    return reply ? reply->probe : ReplicaProbe{};
  }
  void roll_window() override { try_op(ControlOp::kRollWindows); }
  std::vector<std::uint64_t> class_levels(
      const std::vector<store::ClassId>& classes) override {
    ControlRequest req = request(ControlOp::kClassLevels);
    req.classes = classes;
    auto reply = tcp_.try_control(node_, req);
    return reply ? std::move(reply->levels) : std::vector<std::uint64_t>{};
  }
  void shutdown() override { try_op(ControlOp::kShutdown); }

 private:
  std::optional<ControlReply> try_op(ControlOp op) {
    return tcp_.try_control(node_, request(op));
  }

  TcpTransport& tcp_;
  net::NodeId node_;
  std::vector<SeedEntry> pending_seeds_;
};

}  // namespace

std::unique_ptr<ReplicaControl> remote_replica(TcpTransport& tcp,
                                               net::NodeId node) {
  return std::make_unique<RemoteReplica>(tcp, node);
}

}  // namespace acn::transport
