#include "net/frame.hpp"

#include <cstring>

namespace ckptfi::net {

namespace {

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::Hello) &&
         t <= static_cast<std::uint8_t>(MsgType::Heartbeat);
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "HELLO";
    case MsgType::Lease: return "LEASE";
    case MsgType::Rows: return "ROWS";
    case MsgType::Done: return "DONE";
    case MsgType::Heartbeat: return "HEARTBEAT";
  }
  return "?";
}

void send_message(Socket& s, MsgType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw NetError("send: frame payload over the " +
                   std::to_string(kMaxFramePayload) + "-byte cap");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size()) + 1;
  // One buffered send per frame: the header must not interleave with another
  // thread's frame (worker trial threads and the heartbeat thread share one
  // socket under a mutex, but a single syscall keeps frames atomic on the
  // wire regardless).
  std::string wire;
  wire.resize(4 + 1 + payload.size());
  std::memcpy(wire.data(), &length, 4);
  wire[4] = static_cast<char>(type);
  std::memcpy(wire.data() + 5, payload.data(), payload.size());
  s.send_all(wire.data(), wire.size());
}

bool recv_message(Socket& s, Message& out) {
  std::uint32_t length = 0;
  if (!s.recv_all(&length, 4)) return false;
  if (length == 0 || length - 1 > kMaxFramePayload) {
    throw NetError("recv: bad frame length " + std::to_string(length));
  }
  std::uint8_t type = 0;
  if (!s.recv_all(&type, 1)) {
    throw NetError("recv: peer closed between length and type");
  }
  if (!known_type(type)) {
    throw NetError("recv: unknown message type " + std::to_string(type));
  }
  out.type = static_cast<MsgType>(type);
  out.payload.resize(length - 1);
  if (length > 1 && !s.recv_all(out.payload.data(), out.payload.size())) {
    throw NetError("recv: peer closed inside a " +
                   std::string(msg_type_name(out.type)) + " payload");
  }
  return true;
}

std::string encode_row(std::uint64_t trial, std::string_view line) {
  std::string payload(8, '\0');
  for (std::size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<char>(trial >> (8 * i));
  }
  payload.append(line);
  return payload;
}

Row decode_row(std::string_view payload) {
  if (payload.size() < 8) {
    throw NetError("ROWS payload of " + std::to_string(payload.size()) +
                   " bytes has no 8-byte trial index");
  }
  Row row;
  for (std::size_t i = 0; i < 8; ++i) {
    row.trial |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(payload[i]))
                 << (8 * i);
  }
  row.line = payload.substr(8);
  return row;
}

}  // namespace ckptfi::net
