// ckptfi-fleetd: the campaign fleet coordinator.
//
// Splits a campaign manifest (core::campaign_manifest) into shards —
// contiguous trial ranges within a cell — and leases them to ckptfi-worker
// processes over the framed TCP protocol in net/frame.hpp. The connection is
// the lease: the HELLO ack hands a worker the manifest once, and the
// connection then holds at most one shard, so no later frame names a lease.
// Workers stream back one ROWS frame per finished trial carrying the trial's
// index and JSONL line verbatim; the coordinator keeps a row only when its
// index lies inside the shard the sending connection holds, and writes the
// --trials-out artifact in artifact order (cells in manifest order, trial
// index ascending), byte-identical to a single-process bench run.
//
// Fault tolerance, both directions:
//   - a worker that dies (EOF, socket error, a frame that breaks the
//     protocol, or its shard's deadline passed with no ROWS/HEARTBEAT) is
//     dropped; its shard's still-missing trials are re-queued and re-issued.
//     Re-execution is bitwise-identical (per-trial seeds are pure functions
//     of (seed, cell, index)), so rows that did arrive before the death are
//     kept and double-completed trials dedupe trivially.
//   - the coordinator itself checkpoints the merged artifact to
//     `--trials-out + ".tmp"` after completed shards (at most every 5 s), so
//     a killed fleetd leaves a well-formed partial artifact that a rerun
//     heals from via --resume-from. The final artifact is committed with an
//     atomic rename (core::TrialLogWriter).
//
// Single-threaded: one poll() loop owns the listener and every worker
// socket. Workers with nothing to do are parked (no reply to their DONE)
// until a shard frees up or the campaign drains, at which point they are
// dismissed with an empty lease.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace ckptfi::fleet {

struct FleetdOptions {
  Json manifest;             ///< core::campaign_manifest output
  std::string trials_out;    ///< merged JSONL artifact (required)
  std::string resume_from;   ///< prior artifact to heal from ("" = none)
  std::uint16_t port = 0;    ///< 0 = ephemeral (read back via Fleetd::port())
  std::string port_file;     ///< write the bound port here ("" = don't)
  std::size_t shard_trials = 2;    ///< max trials per lease
  /// Silence budget before a held shard is revoked (> 0). Workers learn it
  /// from the HELLO ack and heartbeat at a quarter of it.
  double lease_timeout_s = 60.0;
};

struct FleetdStats {
  std::size_t shards_issued = 0;    ///< leases sent (including re-issues)
  std::size_t shards_reissued = 0;  ///< re-queued shard fragments
  std::size_t rows_streamed = 0;    ///< in-shard ROWS frames received
  std::size_t rows_resumed = 0;     ///< rows carried over from --resume-from
  std::size_t worker_deaths = 0;    ///< connections dropped holding a shard
  std::size_t workers_seen = 0;     ///< HELLOs accepted
};

class Fleetd {
 public:
  /// Binds the listener (NetError on failure); port() is live immediately.
  explicit Fleetd(FleetdOptions opts);

  /// Build the campaign from the manifest, load --resume-from, build the
  /// shard queue. Throws Error/FormatError on a bad manifest, unreadable
  /// resume file, or fingerprint mismatch.
  void start();

  std::uint16_t port() const { return listener_.port(); }

  /// Serve until every trial row is present and no connection holds a
  /// shard, then commit the artifact and dismiss the workers. Returns the
  /// stats.
  FleetdStats run();

  const FleetdStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Shard {
    std::string cell;
    std::size_t begin = 0;
    std::size_t end = 0;  ///< exclusive
  };

  /// One worker connection; it is also the lease.
  struct Conn {
    net::Socket sock;
    bool helloed = false;
    std::optional<Shard> shard;  ///< none = idle (parked once queue empties)
    Clock::time_point deadline;  ///< when the held shard is revoked
  };

  bool complete() const;

  void enqueue_missing(const std::string& cell, std::size_t begin,
                       std::size_t end, bool reissue);
  void pump_leases();
  void issue(Conn& conn, Shard shard);
  void handle_frame(Conn& conn, const net::Message& msg);
  void drop_conn(std::list<Conn>::iterator it, const char* why);
  void expire_leases();
  void touch(Conn& conn) const;
  void checkpoint(bool final_commit);

  FleetdOptions opts_;
  std::unique_ptr<core::Campaign> campaign_;
  std::string fp_hex_;
  net::Listener listener_;

  /// Merged rows keyed (cell, trial); values are verbatim JSONL lines. Only
  /// the manifest's trials ever get in.
  std::map<std::pair<std::string, std::size_t>, std::string> rows_;
  std::size_t expected_ = 0;

  std::deque<Shard> queue_;
  std::list<Conn> conns_;

  Clock::time_point last_checkpoint_;
  bool dirty_ = false;  ///< rows arrived since the last checkpoint
  FleetdStats stats_;
};

}  // namespace ckptfi::fleet
