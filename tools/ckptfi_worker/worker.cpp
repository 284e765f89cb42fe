#include "worker.hpp"

#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "core/campaign.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/common.hpp"

namespace ckptfi::fleet {

namespace {

/// Receive deadline on the coordinator socket: how long a parked worker
/// waits for its next lease before it gives up.
constexpr double kParkedRecvTimeout_s = 600.0;

// Deadline-refresh side channel. Shares the socket's send mutex with the row
// stream; joined before the socket dies.
class Heartbeat {
 public:
  Heartbeat(net::Socket& sock, std::mutex& send_mu, double period_s)
      : sock_(sock), send_mu_(send_mu), period_s_(period_s) {
    if (period_s_ <= 0.0) return;
    thread_ = std::thread([this] { loop(); });
  }

  ~Heartbeat() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_s_),
                         [this] { return stop_; })) {
      try {
        std::lock_guard send_lock(send_mu_);
        net::send_message(sock_, net::MsgType::Heartbeat, std::string());
      } catch (const net::NetError&) {
        // The main loop will see the same dead socket; go quiet.
        return;
      }
    }
  }

  net::Socket& sock_;
  std::mutex& send_mu_;
  double period_s_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int run_worker(const WorkerOptions& opts) {
  try {
    net::Socket sock = net::Socket::connect(opts.host, opts.port);
    sock.set_recv_timeout(kParkedRecvTimeout_s);

    Json hello = Json::object();
    hello["version"] = net::kProtocolVersion;
    net::send_message(sock, net::MsgType::Hello, hello);
    net::Message ack;
    if (!net::recv_message(sock, ack) || ack.type != net::MsgType::Hello) {
      std::fprintf(stderr, "worker: coordinator refused the handshake\n");
      return 1;
    }
    const Json welcome = ack.json();
    if (welcome.at("version").as_int() != net::kProtocolVersion) {
      std::fprintf(stderr, "worker: protocol version mismatch\n");
      return 1;
    }
    const std::unique_ptr<core::Campaign> campaign =
        core::campaign_from_manifest(welcome.at("manifest"));

    std::mutex send_mu;
    Heartbeat heartbeat(sock, send_mu,
                        welcome.at("lease_timeout_s").as_double() / 4.0);
    std::size_t rows_streamed = 0;

    for (;;) {
      net::Message msg;
      if (!net::recv_message(sock, msg)) {
        std::fprintf(stderr, "worker: coordinator hung up\n");
        return 1;
      }
      if (msg.type != net::MsgType::Lease) {
        std::fprintf(stderr, "worker: expected LEASE, got %s\n",
                     net::msg_type_name(msg.type));
        return 1;
      }
      if (msg.payload.empty()) return 0;  // drained: orderly dismissal

      const Json j = msg.json();
      const std::string cell = j.at("cell").as_string();
      const auto begin = static_cast<std::size_t>(j.at("begin").as_int());
      const auto end = static_cast<std::size_t>(j.at("end").as_int());

      // Baseline training for the cell happens before the shard fans out —
      // the same prepare-then-run shape the single-process benches use, so
      // the heartbeat thread is what keeps the shard alive through it.
      campaign->prepare_cell(cell);

      core::TrialScheduler::Config sc;
      sc.jobs = opts.jobs;
      sc.campaign_seed = campaign->cell_seed(cell);
      core::TrialScheduler(sc).run_range(
          begin, end, [&](const core::TrialContext& trial) {
            const std::string row = net::encode_row(
                trial.index, campaign->run_trial(cell, trial).dump());
            std::lock_guard lock(send_mu);
            net::send_message(sock, net::MsgType::Rows, row);
            if (++rows_streamed >= opts.kill_after_rows) {
              // Deterministic node-loss fixture: die the hard way, exactly
              // like a kernel OOM-kill or a pulled power cord would.
              std::raise(SIGKILL);
            }
          });

      std::lock_guard lock(send_mu);
      net::send_message(sock, net::MsgType::Done, std::string());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace ckptfi::fleet
