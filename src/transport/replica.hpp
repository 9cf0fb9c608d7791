// One QR-DTM replica and its management surface, defined once.
//
// A replica is a dtm::Server plus, when durable, the wal::ReplicaPersistence
// it logs through.  Replica builds that pair from one ReplicaConfig and
// implements every management operation — seed, dump, crash, restart,
// checkpoint, lease expiry, in-doubt listing, probes, contention windows —
// exactly once.  Two places host it:
//
//   * harness::Cluster in sim mode keeps one Replica per node in process;
//   * cluster_main hosts one behind a TcpServer and maps each control-plane
//     op (src/transport/wire.hpp) onto the matching Replica method.
//
// ReplicaControl is the surface the harness manages a node through.  Replica
// implements it directly; remote_replica() implements it by sending each
// operation as a ControlRequest to a cluster_main process, so the harness
// runs one algorithm (e.g. crash/rejoin catch-up) over either transport.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/dtm/server.hpp"
#include "src/transport/wire.hpp"
#include "src/wal/persistence.hpp"

namespace acn::transport {

class TcpTransport;

/// A replica's committed objects, as store::VersionedStore::snapshot()
/// lists them.
using StoreSnapshot =
    std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>;

struct ReplicaConfig {
  net::NodeId node = 0;
  /// Quorum group the replica belongs to (see dtm::Server::set_group).
  std::uint32_t group = 0;
  /// Prepare-lease lifetime; <= 0 never expires (see dtm::Server).
  std::int64_t lease_ns = 0;
  /// Contention window; <= 0 rolls only through roll_window().
  std::int64_t window_ns = 0;
  /// Durable replica (WAL + snapshots) when set, volatile otherwise.
  std::optional<wal::WalConfig> wal;
};

/// Management operations on one replica, in process or remote.
class ReplicaControl {
 public:
  ReplicaControl() = default;
  virtual ~ReplicaControl() = default;
  ReplicaControl(const ReplicaControl&) = delete;
  ReplicaControl& operator=(const ReplicaControl&) = delete;

  /// Initial load: `key` = `value` at version 1.  An in-process replica
  /// installs it at once; a remote one buffers until flush_seeds().
  virtual void seed(const store::ObjectKey& key,
                    const store::Record& value) = 0;
  virtual void flush_seeds() = 0;
  /// Version-guarded install (anti-entropy push): an entry older than the
  /// replica's own version of the key is ignored.
  virtual void install(std::vector<SeedEntry> entries) = 0;
  virtual StoreSnapshot dump() = 0;

  /// Lose what the group-commit buffer never flushed (and, with
  /// `lose_disk`, the whole data directory).  The caller stops the node's
  /// traffic first, so no commit is logged after the drop.
  virtual void crash(bool lose_disk) = 0;
  /// Reboot: a durable replica sheds its volatile state and recovers from
  /// its log and snapshot; a volatile one keeps its store (offline node).
  virtual void restart() = 0;
  /// Reopen the replica's own data plane after restart().
  virtual void resume() = 0;
  /// Cut a snapshot now (no-op for a volatile replica).
  virtual void checkpoint() = 0;

  // Fleet-wide aggregates: a remote replica that cannot be reached reports
  // zero / empty, so a sum over the fleet tolerates a crashed process.
  virtual std::size_t expire_leases() = 0;
  virtual std::vector<dtm::InDoubtTx> indoubt() = 0;
  virtual ReplicaProbe probe() = 0;
  virtual void roll_window() = 0;
  virtual std::vector<std::uint64_t> class_levels(
      const std::vector<store::ClassId>& classes) = 0;

  /// Flush the WAL before the hosting process exits.
  virtual void shutdown() = 0;
};

/// The replica itself: owns the server and its durable backend.
class Replica final : public ReplicaControl {
 public:
  /// Builds the server; a durable replica then recovers from its data
  /// directory before serving (a replica built over existing data is a
  /// restart) and logs through the WAL from then on.
  explicit Replica(ReplicaConfig config);

  dtm::Server& server() noexcept { return *server_; }
  /// The durable backend, or nullptr for a volatile replica.
  wal::ReplicaPersistence* persistence() noexcept { return persistence_.get(); }
  void set_obs(obs::Observability* obs) noexcept;

  void seed(const store::ObjectKey& key, const store::Record& value) override {
    server_->store().seed(key, value);
  }
  void flush_seeds() override {}
  void install(std::vector<SeedEntry> entries) override;
  StoreSnapshot dump() override { return server_->store().snapshot(); }
  void crash(bool lose_disk) override;
  void restart() override;
  void resume() override {}
  void checkpoint() override;
  std::size_t expire_leases() override {
    return server_->expire_stale_leases();
  }
  std::vector<dtm::InDoubtTx> indoubt() override {
    return server_->indoubt_transactions();
  }
  ReplicaProbe probe() override;
  void roll_window() override { server_->roll_contention_window(); }
  std::vector<std::uint64_t> class_levels(
      const std::vector<store::ClassId>& classes) override {
    return server_->contention().class_levels(classes);
  }
  void shutdown() override {
    if (persistence_) persistence_->flush();
  }

 private:
  void recover();

  // Declared before server_ so the sink outlives the server pointing at it.
  std::unique_ptr<wal::ReplicaPersistence> persistence_;
  std::unique_ptr<dtm::Server> server_;
};

/// Replica `node` hosted by a cluster_main process, managed over `tcp`'s
/// control plane.  State-moving operations (seed flush, install, dump,
/// crash, restart, resume) throw TransportError when the process cannot
/// be reached.
std::unique_ptr<ReplicaControl> remote_replica(TcpTransport& tcp,
                                               net::NodeId node);

}  // namespace acn::transport
