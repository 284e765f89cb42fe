// ckptfi-report: campaign forensics from --trials-out JSONL artifacts.
//
// Every campaign bench can emit one JSON row per trial (outcome, injection
// log, divergence trace). This analyzer re-derives the paper's summary
// numbers from those rows alone — per-cell N-EV/SDC/masked breakdowns,
// per-layer and per-bit sensitivity tables, and a propagation-depth
// histogram — so a finished campaign can be sliced after the fact without
// rerunning a single training.
//
// Split into a library so the tests can drive the classifier and aggregator
// in-process and cross-check them against a live bench run's own table.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace ckptfi::report {

/// Trial outcome taxonomy (paper section V):
///   nev    — training collapsed with NaN/extreme values;
///   sdc    — finished, but silently off the clean baseline (accuracy or
///            probe timeline differs);
///   masked — finished bitwise on the clean baseline (the paper's RWC);
///   unknown — the row carries too little to classify.
enum class Outcome { kNev, kSdc, kMasked, kUnknown };

const char* outcome_name(Outcome o);

/// Classify one trial row. Signals, strongest first:
///   1. "collapsed": true            -> nev
///   2. "rwc" present                -> true: masked, false: sdc
///   3. "clean_accuracy" present     -> equal to "final_accuracy": masked,
///                                      else sdc
///   4. "divergence" present         -> diverged: sdc, else masked
///   5. otherwise                    -> unknown
Outcome classify_trial(const Json& row);

struct OutcomeCounts {
  std::size_t trials = 0;
  std::size_t nev = 0;
  std::size_t sdc = 0;
  std::size_t masked = 0;
  std::size_t unknown = 0;

  void add(Outcome o);
  Json to_json() const;
};

/// Aggregated view over a set of trial rows.
struct Analysis {
  OutcomeCounts total;
  /// Keyed by the row's "cell" ("" when absent).
  std::map<std::string, OutcomeCounts> by_cell;
  /// Keyed by injected layer (from the injection log; the raw location when
  /// no canonical layer was recorded). A trial whose log touches k layers
  /// contributes its outcome to each of the k.
  std::map<std::string, OutcomeCounts> by_layer;
  /// Keyed by flipped bit position; multi-bit trials contribute per bit.
  std::map<int, OutcomeCounts> by_bit;
  /// Propagation-depth histogram over divergence-traced trials:
  /// depth (distinct layers reached) -> trial count. Depth 0 = no
  /// divergence.
  std::map<std::size_t, std::size_t> depth_histogram;
  std::size_t with_divergence = 0;  ///< rows carrying a divergence trace
  std::size_t diverged = 0;         ///< ... of which actually diverged
  std::size_t nan_onsets = 0;       ///< traces with a NaN onset coordinate

  Json to_json() const;
};

Analysis analyze(const std::vector<Json>& rows);

/// Parse one JSONL file (one JSON object per line; blank lines skipped).
/// Throws util Error on unreadable files or malformed lines.
std::vector<Json> load_jsonl(const std::string& path);

/// Render the human-readable report (the text the CLI prints).
std::string render_text(const Analysis& a);

/// Extract the prefix-reuse telemetry from a bench --json-out metrics
/// snapshot: every "prefix.*" counter (hits, misses, segments_skipped) plus
/// the "prefix.bytes_cached" gauge. Returns an insertion-ordered flat
/// object; empty when the snapshot carries no prefix activity (prefix reuse
/// off, or no fig4 --mode=predict trials).
Json prefix_metrics(const Json& snapshot);

/// Render the prefix-reuse section of the report ("" when `metrics` is
/// empty).
std::string render_prefix_metrics(const Json& metrics);

/// Extract the kernel-compute telemetry from a bench --json-out metrics
/// snapshot: every "kernels.*" histogram (gemm_time, im2col_time — seconds
/// per dispatched call) summarised as count/mean/p50/p99/max, plus the
/// active backend tier, simd ISA and GEMM precision stamped on the run's
/// run_start event. Empty when the snapshot carries neither.
Json kernel_metrics(const Json& snapshot);

/// Render the kernel-compute section of the report ("" when `metrics` is
/// empty).
std::string render_kernel_metrics(const Json& metrics);

}  // namespace ckptfi::report
