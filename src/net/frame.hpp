// Length-prefixed message framing for the fleet wire protocol.
//
// Every message on a fleet connection is one frame:
//
//   u32  length   little-endian, = 1 (type byte) + payload size
//   u8   type     MsgType below
//   ...  payload  type-specific bytes (possibly empty)
//
// A connection serves one campaign and holds at most one shard at a time,
// so after the handshake no frame names a lease, a connection or a
// manifest (docs/FLEET.md):
//
//   HELLO      worker -> fleetd   {"version": 2}; acked with {"version",
//                                  "manifest", "lease_timeout_s"}
//   LEASE      fleetd -> worker   {"cell", "begin", "end"}; an empty payload
//                                  means "drained, disconnect"
//   ROWS       worker -> fleetd   encode_row(): u64 LE trial index, then the
//                                  trial's JSONL line verbatim
//   DONE       worker -> fleetd   empty: the held shard is finished
//   HEARTBEAT  worker -> fleetd   empty: refreshes the held shard's deadline
//
// A ROWS frame carries the *serialized* JSONL line, not a re-encoded object:
// the coordinator writes worker lines into the merged artifact verbatim, so
// the fleet's --trials-out is byte-identical to a single-process run by
// construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/socket.hpp"
#include "util/json.hpp"

namespace ckptfi::net {

enum class MsgType : std::uint8_t {
  Hello = 1,
  Lease = 2,
  Rows = 3,
  Done = 4,
  Heartbeat = 5,
};

/// Human-readable type name (diagnostics and error messages).
const char* msg_type_name(MsgType t);

struct Message {
  MsgType type = MsgType::Hello;
  std::string payload;

  /// Parse a JSON payload (HELLO, LEASE); throws FormatError on malformed
  /// JSON.
  Json json() const { return Json::parse(payload); }
};

/// Frames larger than this are a protocol violation (a corrupted length
/// prefix would otherwise ask for a multi-GB allocation).
constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// Wire protocol version spoken by this build; HELLO carries it and the
/// coordinator refuses mismatches.
constexpr int kProtocolVersion = 2;

void send_message(Socket& s, MsgType type, const std::string& payload);
inline void send_message(Socket& s, MsgType type, const Json& payload) {
  send_message(s, type, payload.dump());
}

/// Read one frame. Returns false on clean EOF before the frame starts
/// (orderly disconnect); throws NetError on torn frames, unknown types or
/// oversized lengths.
bool recv_message(Socket& s, Message& out);

/// A ROWS payload: one trial's index and its JSONL line.
struct Row {
  std::uint64_t trial = 0;
  std::string_view line;  ///< view into the decoded payload
};

/// ROWS payload for `trial`: the index as u64 little-endian, then `line`.
std::string encode_row(std::uint64_t trial, std::string_view line);

/// Split a ROWS payload; throws NetError when it is shorter than the index.
Row decode_row(std::string_view payload);

}  // namespace ckptfi::net
