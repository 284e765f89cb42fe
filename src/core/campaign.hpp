// First-class campaign definitions: the trial bodies behind every paper
// campaign bench (tables IV-VIII, figures 2-7, the N-EV guard ablation),
// factored out of the bench harnesses so the SAME code produces a trial's
// JSONL row everywhere it can run — the single-process bench loop, and a
// `ckptfi-worker` executing a leased shard on another host.
//
// A campaign is a pure function:
//
//   (CampaignOptions, cell name, trial index) -> one JSON row
//
// Per-cell seeds are campaign_cell_seed(master seed, cell) and per-trial
// seeds are trial_seed(cell seed, index), so any shard of any cell replays
// bitwise wherever it executes. That is the determinism contract the fleet's
// lease re-issue leans on: a SIGKILLed worker's shard re-run elsewhere
// produces byte-identical rows, and double-completed shards dedupe trivially
// by (cell, trial).
//
// The *campaign manifest* (docs/FLEET.md) is the serialized CampaignOptions
// plus the derived cell list and the campaign fingerprint — everything a
// worker needs to reconstruct the campaign and everything the coordinator
// needs to shard it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "util/json.hpp"

namespace ckptfi::core {

/// Per-cell campaign seed: the master seed mixed with the cell's identity
/// string, so every cell fans out decorrelated trial streams while staying a
/// pure function of (seed, cell) — never of jobs, sharding or scheduling.
std::uint64_t campaign_cell_seed(std::uint64_t master_seed,
                                 const std::string& cell);

/// Per-model width rule shared by the bench harnesses and campaign configs:
/// ResNet50 has ~3x the layer count, so it gets half the base width to keep
/// wall-clock balanced across models.
std::size_t campaign_model_width(std::size_t width, const std::string& model);

/// Everything that parameterizes a campaign. A pure function of the bench's
/// BenchOptions + the campaign kind; serialized as JSON inside the manifest.
struct CampaignOptions {
  std::string bench = "table4";  ///< campaign kind: one of campaign_kinds()
  /// fig4: "train" | "predict"; table7: GEMM compute precision, "fp64" |
  /// "fp16"; every other kind: "train". Campaign::make refuses any other.
  std::string mode = "train";
  /// fig4: injected-layer override (canonical names); empty = the paper's
  /// first/middle/last trio.
  std::vector<std::string> layers;
  std::size_t trainings = 6;  ///< trials per cell (NOT part of the identity:
                              ///< extending a campaign is still the same
                              ///< campaign)
  std::size_t train_images = 160;
  std::size_t test_images = 80;
  std::size_t width = 4;
  std::size_t total_epochs = 6;
  std::size_t restart_epoch = 2;
  std::size_t resume_epochs = 1;
  std::uint64_t seed = 42;
  /// Bitwise-neutral execution knob (prefix-on ≡ prefix-off), so not part of
  /// the identity either.
  bool prefix_reuse = true;

  /// Canonical identity string: every field that can change a row's bytes.
  std::string canonical() const;
  std::uint32_t fingerprint() const;
  std::string fingerprint_hex() const;

  Json to_json() const;
  /// Throws FormatError on a missing or mistyped key, a negative size, or a
  /// seed that is not a plain decimal u64.
  static CampaignOptions from_json(const Json& j);
};

struct CampaignCell {
  std::string name;
  std::size_t trials;
};

class Campaign {
 public:
  /// Build the campaign for opts.bench; throws Error on an unknown kind
  /// (naming the registered ones) or a mode the kind does not know.
  static std::unique_ptr<Campaign> make(const CampaignOptions& opts);

  virtual ~Campaign() = default;

  const CampaignOptions& options() const { return opts_; }

  /// Cells in artifact order: the merged --trials-out file lists each cell's
  /// rows in this order, trial-index ascending within a cell.
  const std::vector<CampaignCell>& cells() const { return cells_; }

  std::uint64_t cell_seed(const std::string& cell) const {
    return campaign_cell_seed(opts_.seed, cell);
  }

  /// Apply the campaign's GEMM compute precision (fp16 for table7's fp16
  /// mode, fp64 for everything else), then build the cell's shared state
  /// (baseline training, memoized clean probed run) before trials fan out.
  /// The precision is process-wide, so trials compute at the precision of
  /// the campaign prepared last. Idempotent; NOT thread-safe — call it from
  /// one thread, then run trials from any number of them. Throws Error on an
  /// unknown cell name.
  void prepare_cell(const std::string& cell);

  /// One trial's JSONL row — a pure function of (options, cell, index).
  /// Thread-safe after prepare_cell(cell); trial.seed must equal
  /// trial_seed(cell_seed(cell), trial.index). Throws Error on an unknown
  /// cell name.
  virtual Json run_trial(const std::string& cell,
                         const TrialContext& trial) = 0;

  /// Campaign-level clean-baseline summary: what the bench prints beside
  /// the injected series (fig4 train mode: the error-free trajectory; fig3,
  /// fig5, fig7 and the guard ablation: an object keyed by "framework/model"
  /// panel). Null when the campaign has none. May train the baseline — call
  /// it outside the trial fan-out.
  virtual Json clean_summary() { return Json(); }

 protected:
  explicit Campaign(CampaignOptions opts) : opts_(std::move(opts)) {}

  /// The kind's part of prepare_cell, run at the campaign's precision.
  virtual void build_cell(const std::string& cell) = 0;

  CampaignOptions opts_;
  std::vector<CampaignCell> cells_;  ///< filled by the concrete constructor
};

/// Registered campaign kinds (the values CampaignOptions::bench accepts),
/// in registry order.
std::vector<std::string> campaign_kinds();

/// The fleet manifest: options + fingerprint + derived cells, as JSON
/// (schema in docs/FLEET.md). This is what --fleet-manifest=PATH writes and
/// what `ckptfi-fleetd --manifest` consumes.
Json campaign_manifest(const Campaign& campaign);

/// Rebuild a campaign from a manifest. Verifies the embedded fingerprint
/// against the recomputed one (a hand-edited manifest whose identity fields
/// drifted from its fingerprint is refused). Throws Error/FormatError.
std::unique_ptr<Campaign> campaign_from_manifest(const Json& manifest);

}  // namespace ckptfi::core
