// Wire-level tests for the fleet framing layer (net/socket.hpp,
// net/frame.hpp): every message type round-trips over a real loopback
// connection byte-for-byte, the ROWS payload codec pins its byte layout, and
// the defensive paths — torn frames, oversized length prefixes, unknown type
// bytes, clean EOF — behave exactly as the coordinator's worker-death
// handling assumes they do. The fleet treats "recv_message returned false"
// as an orderly disconnect and any NetError as a dead worker, so these
// distinctions are load-bearing, not cosmetic.
#include "net/frame.hpp"
#include "net/socket.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ckptfi::net {
namespace {

/// Loopback socket pair: an ephemeral-port listener plus a connected client,
/// built the same way the fleet tests wire a coordinator to its workers.
struct Loopback {
  Listener listener{0};
  Socket client;
  Socket server;

  Loopback() {
    std::thread t([this] { server = listener.accept(); });
    client = Socket::connect("127.0.0.1", listener.port());
    t.join();
  }
};

TEST(Frame, EveryTypeRoundTripsOverLoopback) {
  Loopback lo;
  const std::vector<std::pair<MsgType, std::string>> cases = {
      {MsgType::Hello, "{\"version\":2}"},
      {MsgType::Lease, "{\"cell\":\"chainer/alexnet/10\",\"begin\":0,"
                       "\"end\":2}"},
      {MsgType::Rows, encode_row(1, "{\"trial\": 1}")},
      {MsgType::Done, ""},
      {MsgType::Heartbeat, ""},
  };
  for (const auto& [type, payload] : cases) {
    send_message(lo.client, type, payload);
    Message got;
    ASSERT_TRUE(recv_message(lo.server, got)) << msg_type_name(type);
    EXPECT_EQ(got.type, type);
    EXPECT_EQ(got.payload, payload);
  }
}

TEST(Frame, EmptyPayloadIsAValidFrame) {
  Loopback lo;
  send_message(lo.client, MsgType::Done, std::string());
  Message got;
  ASSERT_TRUE(recv_message(lo.server, got));
  EXPECT_EQ(got.type, MsgType::Done);
  EXPECT_TRUE(got.payload.empty());
}

TEST(Frame, JsonHelperParsesThePayload) {
  Loopback lo;
  Json hello = Json::object();
  hello["version"] = Json(kProtocolVersion);
  send_message(lo.client, MsgType::Hello, hello);
  Message got;
  ASSERT_TRUE(recv_message(lo.server, got));
  EXPECT_EQ(got.json().at("version").as_int(), kProtocolVersion);
}

TEST(Frame, RowPayloadIsTheLittleEndianIndexThenTheLine) {
  const std::string line = "{\"cell\": \"fig6/propagation\", \"trial\": 258}";
  const std::string payload = encode_row(258, line);
  ASSERT_EQ(payload.size(), 8 + line.size());
  EXPECT_EQ(payload.substr(0, 8), std::string("\x02\x01\0\0\0\0\0\0", 8));
  EXPECT_EQ(payload.substr(8), line);
  const Row row = decode_row(payload);
  EXPECT_EQ(row.trial, 258u);
  EXPECT_EQ(row.line, line);
  // An index with no line is a valid (empty) row; fewer than 8 bytes is not.
  EXPECT_TRUE(decode_row(encode_row(~0ull, "")).line.empty());
  EXPECT_EQ(decode_row(encode_row(~0ull, "")).trial, ~0ull);
  EXPECT_THROW(decode_row("12345"), NetError);
}

TEST(Frame, CleanEofBeforeAFrameIsFalseNotAnError) {
  Loopback lo;
  lo.client.close();
  Message got;
  EXPECT_FALSE(recv_message(lo.server, got));
}

TEST(Frame, EofMidFrameIsTornAndThrows) {
  Loopback lo;
  // A worker SIGKILLed mid-send leaves a length prefix with no body: the
  // coordinator must see a NetError (death), not a silent empty message.
  const std::uint32_t len = 1 + 5;  // promises a type byte and 5 payload bytes
  lo.client.send_all(&len, sizeof(len));
  lo.client.close();
  Message got;
  EXPECT_THROW(recv_message(lo.server, got), NetError);
}

TEST(Frame, OversizedLengthPrefixIsRefusedWithoutAllocating) {
  Loopback lo;
  const std::uint32_t len = kMaxFramePayload + 2;  // type byte + too much
  lo.client.send_all(&len, sizeof(len));
  Message got;
  EXPECT_THROW(recv_message(lo.server, got), NetError);
}

TEST(Frame, ZeroLengthFrameIsMalformed) {
  Loopback lo;
  // length must cover at least the type byte; 0 is a corrupted prefix.
  const std::uint32_t len = 0;
  lo.client.send_all(&len, sizeof(len));
  Message got;
  EXPECT_THROW(recv_message(lo.server, got), NetError);
}

TEST(Frame, UnknownTypeByteIsRefused) {
  Loopback lo;
  const std::uint32_t len = 1;
  const std::uint8_t type = 0x7f;
  lo.client.send_all(&len, sizeof(len));
  lo.client.send_all(&type, sizeof(type));
  Message got;
  EXPECT_THROW(recv_message(lo.server, got), NetError);
}

TEST(Frame, RecvTimeoutDeclaresASilentPeerDead) {
  Loopback lo;
  lo.server.set_recv_timeout(0.1);
  Message got;
  // The client stays connected but silent — deadline expiry, not EOF.
  EXPECT_THROW(recv_message(lo.server, got), NetError);
}

}  // namespace
}  // namespace ckptfi::net
