// cluster_main — one QR-DTM replica as a standalone OS process.
//
// The real-transport deployment shape: harness::Cluster (or an operator)
// launches one cluster_main per replica, each hosting a transport::Replica
// — the same server + WAL type the simulated cluster keeps in process —
// behind a transport::TcpServer.  The data plane decodes dtm::Requests off
// CRC-framed TCP and answers through the exact same Server::handle the
// simulated cluster calls inline.  The control plane decodes each
// ControlRequest, calls the matching Replica method and encodes its result;
// only suspending, resuming and exiting act on the process itself.
//
// Flags (every one mirrors a ClusterConfig field):
//   --node=N            global node id (required)
//   --group=G           quorum group (default: id/servers when --config
//                       names a topology, else 0)
//   --host=H --port=P   listen address (default 127.0.0.1:0 = ephemeral)
//   --config=FILE       topology file (src/transport/topology.hpp); the
//                       node's group/host/port come from its [[node]] entry
//   --lease-ns=N        prepare lease lifetime (0 = never expires)
//   --window-ns=N       contention window (0 = rolled via control plane)
//   --durability=MODE   none | wal
//   --data-dir=DIR      WAL directory (mode wal; default acn-data/node-N)
//   --flush-ns=N --snapshot-bytes=N --no-fsync   WAL tuning
//   --workers=N         request worker threads (default 2)
//
// Stdout prints exactly one line, `ACN_READY <node> <port>`, once the
// listener is up — the spawn handshake (ephemeral ports keep parallel CI
// jobs from colliding).  Logs go to stderr.  The process exits 0 on a
// control-plane shutdown.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "src/dtm/codec.hpp"
#include "src/transport/replica.hpp"
#include "src/transport/tcp_server.hpp"
#include "src/transport/topology.hpp"
#include "src/transport/wire.hpp"

namespace {

using namespace acn;

struct Options {
  /// node/group/lease/window; `replica.wal` is set from `wal` after
  /// parsing when --durability=wal.
  transport::ReplicaConfig replica;
  bool group_set = false;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string config_path;
  std::string durability = "none";
  wal::WalConfig wal;
  std::size_t workers = 2;
};

bool parse_i64(const char* text, std::int64_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options opt;
  bool node_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    std::int64_t num = 0;
    if (const char* v = value("--node=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.replica.node = static_cast<net::NodeId>(num);
      node_set = true;
    } else if (const char* v = value("--group=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.replica.group = static_cast<std::uint32_t>(num);
      opt.group_set = true;
    } else if (const char* v = value("--host=")) {
      opt.host = v;
    } else if (const char* v = value("--port=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.port = static_cast<int>(num);
    } else if (const char* v = value("--config=")) {
      opt.config_path = v;
    } else if (const char* v = value("--lease-ns=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.replica.lease_ns = num;
    } else if (const char* v = value("--window-ns=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.replica.window_ns = num;
    } else if (const char* v = value("--durability=")) {
      opt.durability = v;
    } else if (const char* v = value("--data-dir=")) {
      opt.wal.dir = v;
    } else if (const char* v = value("--flush-ns=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.wal.flush_interval_ns = num;
    } else if (const char* v = value("--snapshot-bytes=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.wal.snapshot_every_bytes = static_cast<std::uint64_t>(num);
    } else if (arg == "--no-fsync") {
      opt.wal.fsync = false;
    } else if (const char* v = value("--workers=")) {
      if (!parse_i64(v, num)) return std::nullopt;
      opt.workers = static_cast<std::size_t>(num);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (!node_set || opt.replica.node < 0) {
    std::fprintf(stderr, "--node is required\n");
    return std::nullopt;
  }
  if (opt.durability != "none" && opt.durability != "wal") {
    std::fprintf(stderr, "--durability must be none|wal\n");
    return std::nullopt;
  }
  return opt;
}

/// Control plane: decode, run the op on the replica, encode the result.
transport::ControlOutcome handle_control(transport::Replica& replica,
                                         std::span<const std::uint8_t> body) {
  using transport::ControlOp;
  transport::ControlOutcome out;
  transport::ControlReply reply;
  try {
    transport::ControlRequest req = transport::decode_control(body);
    switch (req.op) {
      case ControlOp::kPing:
        break;
      case ControlOp::kSeed:
        // Initial seeding and anti-entropy delta pushes both land here.
        reply.count = req.entries.size();
        replica.install(std::move(req.entries));
        break;
      case ControlOp::kDump:
        for (auto& [key, rec] : replica.dump())
          reply.entries.push_back({key, std::move(rec.value), rec.version});
        break;
      case ControlOp::kRollWindows:
        replica.roll_window();
        break;
      case ControlOp::kClassLevels:
        reply.levels = replica.class_levels(req.classes);
        break;
      case ControlOp::kCrash:
        // The process and its memory survive; kRestart decides what a
        // reboot would have kept.
        replica.crash(req.lose_disk);
        out.action = transport::ControlAction::kSuspend;
        break;
      case ControlOp::kRestart:
        replica.restart();
        break;
      case ControlOp::kResume:
        out.action = transport::ControlAction::kResume;
        break;
      case ControlOp::kCheckpoint:
        replica.checkpoint();
        break;
      case ControlOp::kExpireLeases:
        reply.count = replica.expire_leases();
        break;
      case ControlOp::kIndoubtList:
        reply.indoubt = replica.indoubt();
        break;
      case ControlOp::kProbe:
        reply.probe = replica.probe();
        break;
      case ControlOp::kShutdown:
        replica.shutdown();
        out.action = transport::ControlAction::kShutdown;
        break;
    }
  } catch (const std::exception& e) {
    reply = {};
    reply.ok = false;
    reply.error = e.what();
  }
  out.reply_body = transport::encode_control_reply(reply);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = parse_args(argc, argv);
  if (!parsed) return 2;
  Options opt = *std::move(parsed);

  if (!opt.config_path.empty()) {
    std::string error;
    const auto topo = transport::load_topology(opt.config_path, &error);
    if (!topo) {
      std::fprintf(stderr, "bad --config %s: %s\n", opt.config_path.c_str(),
                   error.c_str());
      return 2;
    }
    if (const transport::TopologyNode* self = topo->find(opt.replica.node)) {
      if (!opt.group_set) opt.replica.group = self->group;
      opt.host = self->host;
      if (opt.port == 0) opt.port = self->port;
    } else {
      std::fprintf(stderr, "node %d not in topology %s\n", opt.replica.node,
                   opt.config_path.c_str());
      return 2;
    }
    if (opt.durability == "none" && topo->durability == "wal")
      opt.durability = "wal";
  }
  if (opt.durability == "wal") {
    if (opt.wal.dir.empty())
      opt.wal.dir = "acn-data/node-" + std::to_string(opt.replica.node);
    opt.replica.wal = opt.wal;
  }

  try {
    transport::Replica replica(opt.replica);

    transport::TcpServerConfig server_config;
    server_config.host = opt.host;
    server_config.port = opt.port;
    server_config.workers = opt.workers;

    dtm::Server* server = &replica.server();
    transport::TcpServer tcp(
        server_config,
        [server](std::int64_t from, std::span<const std::uint8_t> body)
            -> std::optional<std::vector<std::uint8_t>> {
          try {
            const dtm::Request request = dtm::decode_request(body);
            const dtm::Response response =
                server->handle(static_cast<net::NodeId>(from), request);
            return dtm::encode(response);
          } catch (const dtm::CodecError& e) {
            // Malformed dtm payload inside a CRC-valid frame: the stream
            // is not trustworthy — poison the connection.
            std::fprintf(stderr, "data codec error: %s\n", e.what());
            return std::nullopt;
          }
        },
        [&replica](std::span<const std::uint8_t> body) {
          return handle_control(replica, body);
        });

    const net::NodeId node = opt.replica.node;
    std::printf("ACN_READY %d %d\n", node, tcp.port());
    std::fflush(stdout);
    std::fprintf(stderr, "node %d (group %u) listening on %s:%d\n", node,
                 opt.replica.group, opt.host.c_str(), tcp.port());

    tcp.wait_shutdown();
    tcp.stop();
    std::fprintf(stderr, "node %d: clean shutdown\n", node);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
