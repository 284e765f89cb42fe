// ckptfi-worker: executes leased campaign shards for ckptfi-fleetd.
//
// A worker connects to the coordinator and handshakes: the HELLO ack carries
// the campaign manifest, which the worker builds once, and the lease
// timeout, a quarter of which is its heartbeat period. The connection then
// serves that one campaign: receive a LEASE naming a cell and a trial range
// [begin, end), prepare the cell, run the shard through
// core::TrialScheduler::run_range, and stream one ROWS frame per finished
// trial back — the trial's index and its serialized JSONL line verbatim.
// DONE closes the shard; the empty LEASE dismisses the worker and it exits 0.
//
// Trial rows are pure functions of (campaign, cell, index), so whatever
// worker runs a shard — or re-runs it after another worker's death —
// produces byte-identical lines. The worker holds no durable state at all:
// crash recovery is entirely the coordinator's shard re-issue.
//
// A heartbeat thread refreshes the deadline of whatever shard the
// connection holds while a long trial computes. All socket writes (rows,
// DONE, heartbeats) are serialized by one mutex so frames never interleave.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ckptfi::fleet {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t jobs = 1;      ///< trials in flight within a leased shard
  /// Test hook: after streaming this many rows, die by raise(SIGKILL) —
  /// the deterministic stand-in for a node loss mid-shard. SIZE_MAX = off.
  std::size_t kill_after_rows = static_cast<std::size_t>(-1);
};

/// Serve until dismissed. Returns the process exit code: 0 after an orderly
/// dismissal, 1 on protocol/network failure (diagnostics on stderr).
int run_worker(const WorkerOptions& opts);

}  // namespace ckptfi::fleet
