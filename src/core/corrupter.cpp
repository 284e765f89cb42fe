#include "core/corrupter.hpp"

#include <bit>
#include <cmath>

#include "obs/obs.hpp"
#include "util/bitops.hpp"
#include "util/common.hpp"
#include "util/strings.hpp"

namespace ckptfi::core {

ModelContext::ModelContext(nn::Model& model,
                           const fw::FrameworkAdapter& adapter)
    : adapter_(adapter) {
  for (const auto& p : model.params()) {
    const fw::ParamKind kind = fw::classify_param(p.name, *p.value);
    ParamInfo info;
    info.canonical_param = p.name;
    info.layer = fw::split_canonical(p.name).first;
    info.canonical_dims = p.value->shape();
    info.kind = kind;
    by_path_[adapter.dataset_path(p.name, kind)] = std::move(info);
  }
}

const ModelContext::ParamInfo* ModelContext::lookup(
    const std::string& dataset_path) const {
  const auto it = by_path_.find(dataset_path);
  return it == by_path_.end() ? nullptr : &it->second;
}

Corrupter::Corrupter(CorrupterConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  cfg_.validate();
}

std::vector<std::string> Corrupter::resolve_locations(
    const mh5::File& file) const {
  // The TOC of a streamed container is the dataset universe without a tree
  // walk; it is cleared on tree mutation, so falling back is always safe.
  const auto all = file.toc().empty() ? file.dataset_paths() : [&] {
    std::vector<std::string> paths;
    paths.reserve(file.toc().size());
    for (const auto& e : file.toc()) paths.push_back(e.path);
    return paths;
  }();
  if (cfg_.use_random_locations) return all;
  // "all sublocations inside a location will be corrupted": expand each
  // configured location (dataset or group path) to the datasets under it.
  std::vector<std::string> out;
  for (const auto& loc : cfg_.locations_to_corrupt) {
    bool matched = false;
    for (const auto& path : all) {
      if (path_has_prefix(path, loc)) {
        if (std::find(out.begin(), out.end(), path) == out.end())
          out.push_back(path);
        matched = true;
      }
    }
    require(matched, "Corrupter: location '" + loc +
                         "' matches no dataset in the file");
  }
  return out;
}

std::uint64_t Corrupter::resolve_attempts(const mh5::File& file) const {
  if (cfg_.injection_type == InjectionType::Count) {
    return static_cast<std::uint64_t>(std::llround(cfg_.injection_attempts));
  }
  // Percentage of the corruptible entries across the resolved locations.
  std::uint64_t entries = 0;
  for (const auto& path : resolve_locations(file)) {
    entries += file.dataset(path).num_elements();
  }
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(entries) * cfg_.injection_attempts /
                   100.0));
}

InjectionReport Corrupter::corrupt(mh5::File& file, const ModelContext* ctx) {
  obs::Span span("corrupter.corrupt", "corrupt", "corrupter.corrupt_time");
  // Provenance stamping is decided once per run, not per injection, so the
  // hot loop pays a single member-bool test instead of three atomic loads.
  provenance_armed_ = obs::events_enabled() || obs::metrics_enabled() ||
                      obs::tracing_enabled();
  if (provenance_armed_) run_start_ = std::chrono::steady_clock::now();
  const auto locations = resolve_locations(file);
  require(!locations.empty(), "Corrupter: no corruptible locations");
  const std::uint64_t attempts = resolve_attempts(file);

  // Each location's dataset and model coordinates, resolved on its first
  // draw: a tree walk (and a context lookup) per location, not per flip.
  std::vector<Target> targets(locations.size());
  InjectionReport report;
  for (std::uint64_t a = 0; a < attempts; ++a) {
    ++report.attempts;
    const auto li =
        static_cast<std::size_t>(rng_.uniform_u64(locations.size()));
    Target& t = targets[li];
    if (t.ds == nullptr) {
      t.path = &locations[li];
      t.ds = &file.dataset(*t.path);
      t.info = ctx != nullptr ? ctx->lookup(*t.path) : nullptr;
    }
    mh5::Dataset& ds = *t.ds;
    const std::uint64_t index = rng_.uniform_u64(ds.num_elements());
    if (!rng_.bernoulli(cfg_.injection_probability)) {
      ++report.prob_skipped;
      continue;
    }
    if (mh5::dtype_is_float(ds.dtype())) {
      if (!corrupt_float(t, index, ctx, report)) ++report.nan_gave_up;
    } else {
      corrupt_int(t, index, ctx, report);
    }
  }
  if (obs::metrics_enabled()) {
    obs::counter_add("corrupter.runs");
    obs::counter_add("corrupter.flips_attempted", report.attempts);
    obs::counter_add("corrupter.flips_applied", report.injections);
    obs::counter_add("corrupter.nan_filtered", report.nan_retries);
    obs::counter_add("corrupter.nan_gave_up", report.nan_gave_up);
    obs::counter_add("corrupter.prob_skipped", report.prob_skipped);
    obs::counter_add("corrupter.bytes_scanned", report.bytes_scanned);
  }
  return report;
}

InjectionReport Corrupter::corrupt_file(const std::string& in_path,
                                        const std::string& out_path,
                                        const ModelContext* ctx) {
  // Open lazily: only the datasets the injections actually land in are
  // faulted into memory, and save() copies every untouched payload range
  // verbatim from the source file — the corruption cycle costs bytes
  // proportional to what was hit, not to checkpoint size.
  mh5::File f = mh5::File::load_lazy(in_path);
  InjectionReport report = corrupt(f, ctx);
  report.log.set_meta("target_file", in_path);
  if (out_path != in_path) report.log.set_meta("output_file", out_path);
  f.save(out_path);
  return report;
}

bool Corrupter::corrupt_float(const Target& t, std::uint64_t index,
                              const ModelContext* ctx,
                              InjectionReport& report) {
  mh5::Dataset& ds = *t.ds;
  // Bits that exist on disk are the bits that can flip: corrupt at the
  // dataset's stored width even if the config names a different precision.
  const int bits = mh5::dtype_bits(ds.dtype());
  constexpr int kMaxNanRetries = 10000;

  for (int attempt = 0; attempt < kMaxNanRetries; ++attempt) {
    report.bytes_scanned += static_cast<std::uint64_t>(bits) / 8;
    const std::uint64_t old_repr = ds.element_bits(index);
    const double old_value = decode_float(old_repr, bits);
    std::uint64_t new_repr = old_repr;
    std::vector<int> flipped;
    std::optional<double> scale;

    switch (cfg_.corruption_mode) {
      case CorruptionMode::BitMask: {
        const std::uint64_t mask = parse_binary_string(cfg_.bit_mask);
        const int mask_len = static_cast<int>(cfg_.bit_mask.size());
        const int max_off = bits - mask_len;
        const int offset =
            max_off > 0 ? static_cast<int>(rng_.uniform_int(0, max_off)) : 0;
        new_repr = apply_mask(old_repr, mask, offset);
        for (int b = 0; b < mask_len; ++b) {
          if (test_bit(mask, b)) flipped.push_back(b + offset);
        }
        break;
      }
      case CorruptionMode::BitRange: {
        const int hi = std::min(cfg_.last_bit, bits - 1);
        const int lo = std::min(cfg_.first_bit, hi);
        const int bit = static_cast<int>(rng_.uniform_int(lo, hi));
        new_repr = flip_bit(old_repr, bit);
        flipped.push_back(bit);
        break;
      }
      case CorruptionMode::ScalingFactor: {
        const double scaled = old_value * cfg_.scaling_factor;
        new_repr = encode_float(scaled, bits);
        scale = cfg_.scaling_factor;
        break;
      }
    }

    const double new_value = decode_float(new_repr, bits);
    if (!cfg_.allow_nan_values && !std::isfinite(new_value)) {
      ++report.nan_retries;
      // Scaling a given finite value by a fixed factor is deterministic, so
      // retrying the same element cannot succeed: re-draw the element.
      if (cfg_.corruption_mode == CorruptionMode::ScalingFactor) {
        index = rng_.uniform_u64(ds.num_elements());
      }
      continue;
    }

    ds.set_element_bits(index, new_repr);
    record(t, index, std::move(flipped), scale, old_value, new_value, ctx,
           report);
    return true;
  }
  return false;
}

void Corrupter::corrupt_int(const Target& t, std::uint64_t index,
                            const ModelContext* ctx, InjectionReport& report) {
  mh5::Dataset& ds = *t.ds;
  // Python-bin() semantics (paper Section IV-B): flip a random bit within
  // the value's binary representation. bin(|v|) of 0 is "0", one digit.
  report.bytes_scanned += sizeof(std::int64_t);
  const std::int64_t old_int = ds.get_int(index);
  const std::uint64_t mag = old_int < 0
                                ? static_cast<std::uint64_t>(-(old_int + 1)) + 1
                                : static_cast<std::uint64_t>(old_int);
  const int bit_length =
      mag == 0 ? 1 : 64 - std::countl_zero(mag);
  const int bit = static_cast<int>(rng_.uniform_int(0, bit_length - 1));
  const std::uint64_t new_mag = flip_bit(mag, bit);
  const std::int64_t new_int =
      old_int < 0 ? -static_cast<std::int64_t>(new_mag)
                  : static_cast<std::int64_t>(new_mag);
  ds.set_int(index, new_int);
  record(t, index, {bit}, std::nullopt, static_cast<double>(old_int),
         static_cast<double>(new_int), ctx, report);
}

void Corrupter::record(const Target& t, std::uint64_t stored_index,
                       std::vector<int> bits, std::optional<double> scale,
                       double old_value, double new_value,
                       const ModelContext* ctx, InjectionReport& report) {
  InjectionRecord rec;
  rec.location = *t.path;
  rec.index = stored_index;
  rec.bits = std::move(bits);
  rec.scale = scale;
  rec.old_value = old_value;
  rec.new_value = new_value;
  // Provenance costs a clock read per injection, so it is stamped only when
  // an obs facility was enabled at the start of the run.
  if (provenance_armed_) {
    rec.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - run_start_)
                      .count();
    rec.rng_draw = rng_.draws();
  }
  if (t.info != nullptr) {
    rec.canonical_param = t.info->canonical_param;
    rec.layer = t.info->layer;
    rec.canonical_index = ctx->adapter().canonical_index(
        stored_index, t.info->canonical_dims, t.info->kind);
  }
  ++report.injections;
  if (obs::events_enabled()) obs::emit_event("bitflip_applied", rec.to_json());
  report.log.add(std::move(rec));
}

}  // namespace ckptfi::core
