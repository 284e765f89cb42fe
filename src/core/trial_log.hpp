// Durable campaign trial-row artifacts (--trials-out JSONL), shared by the
// bench driver (bench::run_campaign), the fleet coordinator and the resume
// machinery.
//
// One JSON line per trial is the campaign's unit of durable work: per-trial
// splitmix64 seeds are pure functions of (master seed, cell, index), so any
// subset of rows can be reused verbatim and the missing ones recomputed to
// the exact same bytes. That contract only holds if the artifact handling is
// itself crash-safe, which is what this module pins down:
//
//   - TrialLogReader tolerates torn trailing lines (a campaign killed
//     mid-write leaves one) and any other malformed line: skipped with a
//     stderr warning and counted (campaign.resume_malformed_lines), never a
//     constructor throw — resume must work in exactly the crashed-campaign
//     scenario it exists for.
//   - Every row carries a campaign fingerprint ("fp": crc32 over the
//     canonical campaign identity, seed included). The reader refuses rows
//     whose fingerprint does not match the resuming campaign's, so two
//     different campaigns can never silently merge into one artifact.
//   - TrialLogWriter writes through `path + ".tmp"` and renames onto `path`
//     only at commit() (the hdf5::FileSink idiom), so an in-place resume
//     (--resume-from=X --trials-out=X) cannot destroy the only copy of the
//     prior artifact before the first new trial lands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace ckptfi::core {

/// Campaign fingerprint: crc32 over a canonical identity string (see
/// CampaignOptions::canonical() and bench::BenchOptions). Rendered as 8 hex
/// digits in the "fp" row field.
std::uint32_t campaign_fingerprint(const std::string& canonical);
std::string fingerprint_hex(std::uint32_t fp);

/// Stamp `row["fp"]` (appended last, so fresh and resumed rows serialize to
/// the same bytes). No-op when the row already carries a fingerprint.
void stamp_fingerprint(Json& row, const std::string& fp_hex);

/// Prior-campaign rows indexed by (cell, trial).
class TrialLogReader {
 public:
  struct Row {
    std::string line;  ///< original JSONL text, re-emitted verbatim
    Json row;
  };

  /// Load `path`. Lines that fail to parse, or that are not trial rows, are
  /// skipped (malformed ones with a stderr warning + counter). When
  /// `expected_fp_hex` is non-empty, a row with a different "fp" makes the
  /// whole load throw FormatError — resuming across campaigns is refused,
  /// not merged. Rows with no "fp" (pre-fingerprint artifacts) are accepted
  /// with a one-line warning. Throws Error when the file cannot be opened.
  void load(const std::string& path, const std::string& expected_fp_hex);

  const Row* find(const std::string& cell, std::size_t trial) const;
  std::size_t size() const { return rows_.size(); }
  std::size_t malformed_lines() const { return malformed_lines_; }

  using Map = std::map<std::pair<std::string, std::size_t>, Row>;
  const Map& rows() const { return rows_; }

 private:
  Map rows_;
  std::size_t malformed_lines_ = 0;
};

/// Crash-safe JSONL writer: lines go to `path + ".tmp"` (flushed per cell,
/// so a killed campaign leaves a well-formed partial artifact there) and the
/// temp is renamed onto `path` only at commit(). Destruction without commit
/// leaves the temp file in place — it IS the crash-survival artifact — and
/// the prior `path` contents untouched.
class TrialLogWriter {
 public:
  TrialLogWriter() = default;
  ~TrialLogWriter() = default;

  TrialLogWriter(const TrialLogWriter&) = delete;
  TrialLogWriter& operator=(const TrialLogWriter&) = delete;

  /// Open `path + ".tmp"` for writing. Throws Error on failure.
  void open(const std::string& path);

  bool is_open() const { return open_; }
  const std::string& path() const { return path_; }
  const std::string& tmp_path() const { return tmp_path_; }

  void write_line(const std::string& line);
  void flush();

  /// Flush, close, atomically rename the temp onto `path`. Throws Error on
  /// any I/O failure; the writer is closed afterwards either way.
  void commit();

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool open_ = false;
};

}  // namespace ckptfi::core
