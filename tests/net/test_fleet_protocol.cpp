// Protocol tests for ckptfi-fleetd that need no worker binary and no
// training: a scripted raw-frame client talks to an in-process Fleetd
// serving a fig6 manifest (one cell of 3 trials; the coordinator never
// prepares a cell, so nothing trains). Every client that breaks the protocol
// is dropped, and a shard it held is re-issued. A well-behaved scripted
// client then completes the campaign, and the artifact is exactly its lines
// in artifact order — no row from a dropped client gets in.
#include "fleetd.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/campaign.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace ckptfi {
namespace {

namespace fs = std::filesystem;

constexpr const char* kCell = "fig6/propagation";
constexpr std::size_t kTrials = 3;

Json fig6_manifest() {
  core::CampaignOptions o;
  o.bench = "fig6";
  return core::campaign_manifest(*core::Campaign::make(o));
}

/// The line the well-behaved client streams for `trial`.
std::string good_line(std::size_t trial) {
  return "{\"cell\": \"" + std::string(kCell) +
         "\", \"trial\": " + std::to_string(trial) + "}";
}

std::string good_artifact() {
  std::string out;
  for (std::size_t i = 0; i < kTrials; ++i) out += good_line(i) + "\n";
  return out;
}

/// A Fleetd serving on a background thread until its campaign completes.
class Served {
 public:
  explicit Served(fleet::FleetdOptions opts) : fleetd_(std::move(opts)) {
    fleetd_.start();
    thread_ = std::thread([this] {
      try {
        promise_.set_value(fleetd_.run());
      } catch (...) {
        promise_.set_exception(std::current_exception());
      }
    });
  }
  ~Served() {
    if (thread_.joinable()) finish();
  }

  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  std::uint16_t port() const { return fleetd_.port(); }

  /// The stats of the completed campaign. A fleetd still serving after 60 s
  /// aborts the test binary rather than hang the suite.
  fleet::FleetdStats finish() {
    if (result_.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "fleetd never completed the campaign\n");
      std::abort();
    }
    thread_.join();
    return result_.get();
  }

 private:
  fleet::Fleetd fleetd_;
  std::promise<fleet::FleetdStats> promise_;
  std::future<fleet::FleetdStats> result_ = promise_.get_future();
  std::thread thread_;
};

/// A raw-frame client; every receive gives up after 10 s.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : sock_(net::Socket::connect("127.0.0.1", port)) {
    sock_.set_recv_timeout(10.0);
  }

  void send(net::MsgType type, const std::string& payload) {
    net::send_message(sock_, type, payload);
  }

  net::Message recv() {
    net::Message m;
    EXPECT_TRUE(net::recv_message(sock_, m)) << "fleetd hung up";
    return m;
  }

  /// HELLO at `version`, returning the ack's JSON.
  Json hello(int version = net::kProtocolVersion) {
    Json h = Json::object();
    h["version"] = version;
    send(net::MsgType::Hello, h.dump());
    const net::Message ack = recv();
    EXPECT_EQ(ack.type, net::MsgType::Hello);
    return ack.json();
  }

  /// The next LEASE as {cell, begin, end}.
  Json lease() {
    const net::Message m = recv();
    EXPECT_EQ(m.type, net::MsgType::Lease);
    EXPECT_FALSE(m.payload.empty()) << "dismissed instead of leased";
    return m.json();
  }

  /// True once fleetd has closed the connection (frames still queued
  /// before the close are read and discarded); false if it is still silent
  /// past the receive deadline.
  bool hung_up() {
    try {
      net::Message m;
      while (net::recv_message(sock_, m)) {
      }
      return true;
    } catch (const net::NetError& e) {
      return std::string(e.what()).find("deadline") == std::string::npos;
    }
  }

 private:
  net::Socket sock_;
};

/// The well-behaved client: serves leases with good_line() rows until
/// dismissed.
void serve_until_dismissed(std::uint16_t port) {
  Client c(port);
  const Json ack = c.hello();
  EXPECT_EQ(ack.at("manifest").at("fp").as_string(),
            fig6_manifest().at("fp").as_string());
  for (;;) {
    const net::Message m = c.recv();
    ASSERT_EQ(m.type, net::MsgType::Lease);
    if (m.payload.empty()) return;
    const Json j = m.json();
    EXPECT_EQ(j.at("cell").as_string(), kCell);
    for (auto i = static_cast<std::size_t>(j.at("begin").as_int());
         i < static_cast<std::size_t>(j.at("end").as_int()); ++i) {
      c.send(net::MsgType::Rows, net::encode_row(i, good_line(i)));
    }
    c.send(net::MsgType::Done, "");
  }
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class FleetProtocol : public ::testing::Test {
 protected:
  fleet::FleetdOptions options() const {
    fleet::FleetdOptions opts;
    opts.manifest = fig6_manifest();
    opts.trials_out = out_.string();
    opts.shard_trials = 2;  // shards [0,2) and [2,3)
    return opts;
  }

  /// Run the well-behaved client to the end; the artifact must be its lines.
  fleet::FleetdStats complete_with_good_client(Served& fleetd) {
    serve_until_dismissed(fleetd.port());
    const fleet::FleetdStats stats = fleetd.finish();
    EXPECT_EQ(slurp(out_), good_artifact());
    return stats;
  }

  void TearDown() override { fs::remove(out_); }

  const fs::path out_ =
      fs::temp_directory_path() /
      ("fleet_protocol_" + std::to_string(getpid()) + ".jsonl");
};

TEST_F(FleetProtocol, WellBehavedClientCompletesTheCampaign) {
  Served fleetd(options());
  const fleet::FleetdStats stats = complete_with_good_client(fleetd);
  EXPECT_EQ(stats.workers_seen, 1u);
  EXPECT_EQ(stats.shards_issued, 2u);
  EXPECT_EQ(stats.rows_streamed, kTrials);
  EXPECT_EQ(stats.worker_deaths, 0u);
}

TEST_F(FleetProtocol, AckCarriesTheManifestAndLeaseTimeout) {
  fleet::FleetdOptions opts = options();
  opts.lease_timeout_s = 7.5;
  Served fleetd(opts);
  {
    Client c(fleetd.port());
    const Json ack = c.hello();
    EXPECT_EQ(ack.at("version").as_int(), net::kProtocolVersion);
    EXPECT_EQ(ack.at("manifest").dump(), fig6_manifest().dump());
    EXPECT_DOUBLE_EQ(ack.at("lease_timeout_s").as_double(), 7.5);
    const Json lease = c.lease();
    EXPECT_EQ(lease.at("cell").as_string(), kCell);
    EXPECT_EQ(lease.at("begin").as_int(), 0);
    EXPECT_EQ(lease.at("end").as_int(), 2);
    EXPECT_EQ(lease.members().size(), 3u);  // no id, no manifest
  }  // hangs up holding [0,2): a death, and the shard goes back
  const fleet::FleetdStats stats = complete_with_good_client(fleetd);
  EXPECT_EQ(stats.worker_deaths, 1u);
}

TEST_F(FleetProtocol, V1HelloIsRefused) {
  Served fleetd(options());
  Client v1(fleetd.port());
  Json h = Json::object();
  h["version"] = 1;
  v1.send(net::MsgType::Hello, h.dump());
  EXPECT_TRUE(v1.hung_up());
  const fleet::FleetdStats stats = complete_with_good_client(fleetd);
  EXPECT_EQ(stats.workers_seen, 1u);  // only the good client
  EXPECT_EQ(stats.worker_deaths, 0u);  // it never held a shard
}

TEST_F(FleetProtocol, RowsOrDoneBeforeAnyLeaseAreRefused) {
  fleet::FleetdOptions opts = options();
  opts.shard_trials = kTrials;  // one shard, so later clients park
  Served fleetd(opts);
  Client holder(fleetd.port());
  holder.hello();
  const Json lease = holder.lease();
  ASSERT_EQ(lease.at("end").as_int(), static_cast<std::int64_t>(kTrials));

  // A parked client holds no shard: its row for a real (cell, trial) must
  // not get in, even though it would arrive first, and it has no shard to
  // call DONE.
  const std::pair<net::MsgType, std::string> shardless[] = {
      {net::MsgType::Rows, net::encode_row(0, "{\"bogus\": true}")},
      {net::MsgType::Done, ""},
  };
  for (const auto& [type, payload] : shardless) {
    Client parked(fleetd.port());
    parked.hello();
    parked.send(type, payload);
    EXPECT_TRUE(parked.hung_up()) << net::msg_type_name(type);
  }

  for (std::size_t i = 0; i < kTrials; ++i) {
    holder.send(net::MsgType::Rows, net::encode_row(i, good_line(i)));
  }
  holder.send(net::MsgType::Done, "");
  EXPECT_TRUE(holder.hung_up());  // dismissed: the campaign is complete
  const fleet::FleetdStats stats = fleetd.finish();
  EXPECT_EQ(slurp(out_), good_artifact());
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.rows_streamed, kTrials);
}

TEST_F(FleetProtocol, RowsOutsideTheHeldShardAreRefused) {
  Served fleetd(options());
  Client c(fleetd.port());
  c.hello();
  const Json lease = c.lease();
  ASSERT_EQ(lease.at("begin").as_int(), 0);
  ASSERT_EQ(lease.at("end").as_int(), 2);
  // Trial 2 is the manifest's, but it lies in the other shard.
  c.send(net::MsgType::Rows, net::encode_row(2, "{\"bogus\": true}"));
  EXPECT_TRUE(c.hung_up());
  const fleet::FleetdStats stats = complete_with_good_client(fleetd);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.shards_reissued, 1u);
  EXPECT_EQ(stats.rows_streamed, kTrials);
}

TEST_F(FleetProtocol, ShortRowsFrameIsRefused) {
  Served fleetd(options());
  Client c(fleetd.port());
  c.hello();
  c.lease();
  c.send(net::MsgType::Rows, "12345");  // no room for the 8-byte index
  EXPECT_TRUE(c.hung_up());
  const fleet::FleetdStats stats = complete_with_good_client(fleetd);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.shards_reissued, 1u);
}

TEST_F(FleetProtocol, SilentShardHolderExpires) {
  fleet::FleetdOptions opts = options();
  opts.lease_timeout_s = 0.5;
  Served fleetd(opts);
  Client c(fleetd.port());
  c.hello();
  c.lease();
  // Holds [0,2) and says nothing: the deadline passes and fleetd hangs up.
  EXPECT_TRUE(c.hung_up());
  const fleet::FleetdStats stats = complete_with_good_client(fleetd);
  EXPECT_EQ(stats.worker_deaths, 1u);
  EXPECT_EQ(stats.shards_reissued, 1u);
}

}  // namespace
}  // namespace ckptfi
