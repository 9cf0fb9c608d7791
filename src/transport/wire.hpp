// Frame payload envelope and the control-plane message set.
//
// Every TCP frame payload begins with the same envelope:
//
//   [u8 FrameKind][u64 id][body]
//
// Data plane (id = request id, correlates a response with its in-flight
// call):
//   kHello        body: [u8 Channel][i64 sender node id] — first frame on
//                 every connection; tells the server which plane this
//                 connection belongs to.
//   kRequest      body: [i64 from][codec-encoded dtm::Request]
//   kResponse     body: [codec-encoded dtm::Response]
//
// Control plane (id = control sequence number):
//   kControl      body: encoded ControlRequest
//   kControlReply body: encoded ControlReply
//
// The control plane is the harness's management surface over a replica
// process: seeding, store dumps, contention-window rolls, crash /
// restart / resume orchestration, lease expiry, in-doubt listing, probes
// and shutdown.  It deliberately rides a SEPARATE connection per peer —
// chaos suspends a replica's data plane (connection kills + refusing new
// data hellos) while control keeps answering, modelling the out-of-band
// operator access a real deployment retains into a partitioned node.
// Everything is encoded with the dtm codec primitives, so control
// messages inherit the wire discipline (and CodecError on malformed
// bytes) of the protocol proper.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/dtm/codec.hpp"
#include "src/dtm/server.hpp"

namespace acn::transport {

enum class FrameKind : std::uint8_t {
  kHello = 1,
  kRequest = 2,
  kResponse = 3,
  kControl = 4,
  kControlReply = 5,
};

enum class Channel : std::uint8_t { kData = 0, kControl = 1 };

struct Envelope {
  FrameKind kind;
  std::uint64_t id = 0;
  /// Offset of the kind-specific body within the payload bytes.
  std::size_t body_offset = 0;
};

/// Prepend the envelope to `enc` (call before encoding the body).
void put_envelope(dtm::Encoder& enc, FrameKind kind, std::uint64_t id);

/// Decode the envelope; throws dtm::CodecError on truncation or an unknown
/// kind byte.
Envelope read_envelope(std::span<const std::uint8_t> payload);

// ---- control plane ------------------------------------------------------

enum class ControlOp : std::uint8_t {
  kPing = 1,
  kSeed = 2,          // install entries (version-guarded apply)
  kDump = 3,          // full committed-state snapshot
  kRollWindows = 4,   // roll the contention window
  kClassLevels = 5,   // contention levels for the named classes
  kCrash = 6,         // drop unflushed WAL, optionally wipe disk, suspend
  kRestart = 7,       // reset volatile state, recover from disk
  kResume = 8,        // lift suspension (rejoin the data plane)
  kCheckpoint = 9,    // flush WAL + cut a snapshot
  kExpireLeases = 10, // expire stale prepare leases now
  kIndoubtList = 11,  // cross-shard prepares parked in-doubt
  kProbe = 12,        // cheap replica gauges (leases, protected, ...)
  kShutdown = 13,     // clean process exit
};

/// One object installed by kSeed / returned by kDump.
struct SeedEntry {
  store::ObjectKey key;
  store::Record value;
  store::Version version = 1;
};

struct ControlRequest {
  ControlOp op = ControlOp::kPing;
  std::vector<SeedEntry> entries;       // kSeed
  std::vector<store::ClassId> classes;  // kClassLevels
  bool lose_disk = false;               // kCrash
};

/// Cheap gauges a replica reports (Replica::probe).
struct ReplicaProbe {
  std::uint64_t open_leases = 0;
  std::uint64_t protected_keys = 0;
  std::uint64_t wrong_group = 0;
  std::uint64_t indoubt = 0;
  std::uint64_t open_prepares = 0;
};

struct ControlReply {
  bool ok = true;
  std::string error;                    // when !ok
  std::vector<SeedEntry> entries;       // kDump
  std::vector<std::uint64_t> levels;    // kClassLevels
  std::uint64_t count = 0;              // kSeed applied / kExpireLeases expired
  std::vector<dtm::InDoubtTx> indoubt;  // kIndoubtList
  ReplicaProbe probe;                   // kProbe
};

/// Body-only encoders (no envelope — combine with make_payload).
std::vector<std::uint8_t> encode_control(const ControlRequest& req);
std::vector<std::uint8_t> encode_control_reply(const ControlReply& reply);
/// Decode the body of a kControl / kControlReply frame (envelope already
/// stripped).  Throw dtm::CodecError on malformed bytes.
ControlRequest decode_control(std::span<const std::uint8_t> body);
ControlReply decode_control_reply(std::span<const std::uint8_t> body);

// ---- payload assembly ---------------------------------------------------

/// envelope(kind, id) + body, ready for frame framing.
std::vector<std::uint8_t> make_payload(FrameKind kind, std::uint64_t id,
                                       std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_hello(Channel channel, std::int64_t node);
std::vector<std::uint8_t> encode_request_payload(std::uint64_t id,
                                                 net::NodeId from,
                                                 const dtm::Request& req);
std::vector<std::uint8_t> encode_response_payload(std::uint64_t id,
                                                  const dtm::Response& res);

}  // namespace acn::transport
