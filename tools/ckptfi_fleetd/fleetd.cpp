#include "fleetd.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/trial_log.hpp"
#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"

namespace ckptfi::fleet {

namespace {

/// Minimum spacing of the merged artifact's temp checkpoints.
constexpr double kCheckpointEvery_s = 5.0;

}  // namespace

Fleetd::Fleetd(FleetdOptions opts)
    : opts_(std::move(opts)), listener_(opts_.port) {}

void Fleetd::start() {
  if (!(opts_.lease_timeout_s > 0.0)) {
    throw Error("fleetd: the lease timeout must be positive");
  }
  campaign_ = core::campaign_from_manifest(opts_.manifest);
  fp_hex_ = campaign_->options().fingerprint_hex();
  if (opts_.trials_out.empty()) {
    throw Error("fleetd: --trials-out is required (it IS the fleet's output)");
  }

  expected_ = 0;
  for (const core::CampaignCell& c : campaign_->cells()) expected_ += c.trials;

  if (!opts_.resume_from.empty()) {
    core::TrialLogReader prior;
    prior.load(opts_.resume_from, fp_hex_);
    for (const auto& [key, row] : prior.rows()) {
      rows_.emplace(key, row.line);
    }
    // Drop rows outside the manifest's cells/ranges (a shrunk campaign):
    // they are the same campaign's rows, just no longer asked for.
    std::size_t kept = 0;
    std::map<std::pair<std::string, std::size_t>, std::string> trimmed;
    for (const core::CampaignCell& c : campaign_->cells()) {
      for (std::size_t i = 0; i < c.trials; ++i) {
        const auto hit = rows_.find({c.name, i});
        if (hit != rows_.end()) {
          trimmed.emplace(hit->first, std::move(hit->second));
          ++kept;
        }
      }
    }
    rows_ = std::move(trimmed);
    stats_.rows_resumed = kept;
  }

  for (const core::CampaignCell& c : campaign_->cells()) {
    enqueue_missing(c.name, 0, c.trials, /*reissue=*/false);
  }

  if (!opts_.port_file.empty()) {
    std::ofstream pf(opts_.port_file, std::ios::trunc);
    if (!pf) throw Error("fleetd: cannot write port file " + opts_.port_file);
    pf << listener_.port() << "\n";
  }
  last_checkpoint_ = Clock::now();
}

void Fleetd::enqueue_missing(const std::string& cell, std::size_t begin,
                             std::size_t end, bool reissue) {
  // Contiguous runs of missing trials, chopped to shard_trials-sized leases.
  const std::size_t cap = std::max<std::size_t>(1, opts_.shard_trials);
  std::size_t i = begin;
  while (i < end) {
    if (rows_.count({cell, i}) != 0) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < end && j - i < cap && rows_.count({cell, j}) == 0) ++j;
    queue_.push_back({cell, i, j});
    if (reissue) {
      ++stats_.shards_reissued;
      obs::counter_add("fleet.shards_reissued");
    }
    i = j;
  }
}

bool Fleetd::complete() const {
  return rows_.size() == expected_ &&
         std::none_of(conns_.begin(), conns_.end(),
                      [](const Conn& c) { return c.shard.has_value(); });
}

void Fleetd::issue(Conn& conn, Shard shard) {
  Json j = Json::object();
  j["cell"] = shard.cell;
  j["begin"] = shard.begin;
  j["end"] = shard.end;
  net::send_message(conn.sock, net::MsgType::Lease, j);
  conn.shard = std::move(shard);
  touch(conn);
  ++stats_.shards_issued;
  obs::counter_add("fleet.shards_issued");
}

void Fleetd::pump_leases() {
  auto it = conns_.begin();
  while (it != conns_.end() && !queue_.empty()) {
    if (!it->helloed || it->shard) {
      ++it;
      continue;
    }
    Shard shard = queue_.front();
    queue_.pop_front();
    try {
      issue(*it, shard);
      ++it;
    } catch (const net::NetError& e) {
      // The worker vanished between frames; the shard goes back to the
      // queue head and the next pump hands it to someone alive. issue()
      // sends before it records the shard, so there is nothing to unwind.
      std::fprintf(stderr, "fleetd: worker lost while leasing: %s\n",
                   e.what());
      queue_.push_front(std::move(shard));
      it = conns_.erase(it);
    }
  }
}

void Fleetd::touch(Conn& conn) const {
  conn.deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts_.lease_timeout_s));
}

void Fleetd::handle_frame(Conn& conn, const net::Message& msg) {
  switch (msg.type) {
    case net::MsgType::Hello: {
      const Json j = msg.json();
      const auto version = j.at("version").as_int();
      if (version != net::kProtocolVersion) {
        throw net::NetError("worker speaks protocol v" +
                            std::to_string(version) + ", this fleetd is v" +
                            std::to_string(net::kProtocolVersion));
      }
      Json ack = Json::object();
      ack["version"] = net::kProtocolVersion;
      ack["manifest"] = opts_.manifest;
      ack["lease_timeout_s"] = opts_.lease_timeout_s;
      net::send_message(conn.sock, net::MsgType::Hello, ack);
      conn.helloed = true;
      ++stats_.workers_seen;
      obs::gauge_set("fleet.workers", static_cast<double>(conns_.size()));
      return;
    }
    case net::MsgType::Rows: {
      if (!conn.shard) throw net::NetError("ROWS before any lease");
      const Shard& shard = *conn.shard;
      const net::Row row = net::decode_row(msg.payload);
      if (row.trial < shard.begin || row.trial >= shard.end) {
        throw net::NetError("ROWS for trial " + std::to_string(row.trial) +
                            ", outside the held shard");
      }
      touch(conn);
      ++stats_.rows_streamed;
      obs::counter_add("fleet.rows_streamed");
      // Dedupe by (cell, trial): a re-issued shard's duplicate rows are
      // bitwise-identical by the determinism contract, first write wins.
      rows_.emplace(
          std::make_pair(shard.cell, static_cast<std::size_t>(row.trial)),
          std::string(row.line));
      dirty_ = true;
      return;
    }
    case net::MsgType::Done: {
      if (!conn.shard) throw net::NetError("DONE before any lease");
      const Shard shard = std::move(*conn.shard);
      conn.shard.reset();
      // A DONE with rows still missing is a worker bug, not a death — but
      // the campaign must finish either way, so re-queue the gap.
      enqueue_missing(shard.cell, shard.begin, shard.end, /*reissue=*/true);
      checkpoint(/*final_commit=*/false);
      return;
    }
    case net::MsgType::Heartbeat: {
      obs::Span span("fleet.heartbeat", "fleet");
      if (conn.shard) touch(conn);
      return;
    }
    case net::MsgType::Lease:
      throw net::NetError("worker sent a LEASE frame (coordinator-only)");
  }
  throw net::NetError("unhandled frame type");
}

void Fleetd::drop_conn(std::list<Conn>::iterator it, const char* why) {
  if (it->shard) {
    const Shard& shard = *it->shard;
    ++stats_.worker_deaths;
    obs::counter_add("fleet.worker_deaths");
    std::fprintf(stderr,
                 "fleetd: worker died holding %s[%zu,%zu) (%s); "
                 "re-queuing its missing trials\n",
                 shard.cell.c_str(), shard.begin, shard.end, why);
    enqueue_missing(shard.cell, shard.begin, shard.end, /*reissue=*/true);
  }
  conns_.erase(it);
  obs::gauge_set("fleet.workers", static_cast<double>(conns_.size()));
}

void Fleetd::expire_leases() {
  const auto now = Clock::now();
  for (auto it = conns_.begin(); it != conns_.end();) {
    const auto next = std::next(it);
    if (it->shard && it->deadline <= now) {
      drop_conn(it, "lease deadline passed");
    }
    it = next;
  }
}

void Fleetd::checkpoint(bool final_commit) {
  if (!final_commit) {
    if (!dirty_) return;
    const double since = std::chrono::duration<double>(Clock::now() -
                                                       last_checkpoint_)
                             .count();
    // DONE-triggered checkpoints ride through here too; rate-limit them so a
    // flood of tiny shards does not turn into quadratic rewriting.
    if (since < kCheckpointEvery_s && rows_.size() != expected_) return;
  }
  // Full rewrite of the merged artifact in artifact order (gaps skipped),
  // left at `path + ".tmp"` until the final commit renames it into place —
  // a killed fleetd leaves the temp as its crash-survival artifact.
  core::TrialLogWriter w;
  w.open(opts_.trials_out);
  for (const core::CampaignCell& c : campaign_->cells()) {
    for (std::size_t i = 0; i < c.trials; ++i) {
      const auto hit = rows_.find({c.name, i});
      if (hit != rows_.end()) w.write_line(hit->second);
    }
  }
  if (final_commit) {
    w.commit();
  } else {
    w.flush();
  }
  dirty_ = false;
  last_checkpoint_ = Clock::now();
}

FleetdStats Fleetd::run() {
  while (!complete()) {
    pump_leases();

    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const Conn& c : conns_) fds.push_back({c.sock.fd(), POLLIN, 0});
    const int timeout_ms = std::max(
        50, static_cast<int>(1000.0 * std::min(opts_.lease_timeout_s / 4.0,
                                               kCheckpointEvery_s)));
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) {
      throw net::NetError("fleetd: poll failed");
    }

    if ((fds[0].revents & POLLIN) != 0) {
      Conn conn;
      conn.sock = listener_.accept();
      conn.sock.set_recv_timeout(opts_.lease_timeout_s);
      conns_.push_back(std::move(conn));
    }

    std::size_t slot = 1;
    for (auto it = conns_.begin(); it != conns_.end(); ++slot) {
      if (slot >= fds.size() || fds[slot].fd != it->sock.fd() ||
          (fds[slot].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        ++it;
        continue;
      }
      auto next = std::next(it);
      try {
        net::Message msg;
        if (!net::recv_message(it->sock, msg)) {
          drop_conn(it, "disconnected");
        } else {
          handle_frame(*it, msg);
        }
      } catch (const std::exception& e) {
        drop_conn(it, e.what());
      }
      it = next;
    }

    expire_leases();
    checkpoint(/*final_commit=*/false);
  }

  checkpoint(/*final_commit=*/true);

  // Drain: every connected worker gets the empty lease and a close. A send
  // failing here just means the worker is already gone.
  for (Conn& c : conns_) {
    try {
      net::send_message(c.sock, net::MsgType::Lease, std::string());
    } catch (const net::NetError&) {
    }
  }
  conns_.clear();
  listener_.close();

  Json f = Json::object();
  f["rows"] = rows_.size();
  f["shards_issued"] = stats_.shards_issued;
  f["shards_reissued"] = stats_.shards_reissued;
  f["worker_deaths"] = stats_.worker_deaths;
  obs::emit_event("fleet_complete", std::move(f));
  return stats_;
}

}  // namespace ckptfi::fleet
