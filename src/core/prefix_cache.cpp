#include "core/prefix_cache.hpp"

#include "obs/obs.hpp"

namespace ckptfi::core {

std::shared_ptr<const PrefixEntryData> PrefixCache::get_or_build(
    const PrefixKey& key, const Builder& build) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    obs::counter_add("prefix.hits");
    return it->second;
  }

  // Miss: build under the lock. Builds serialize, but each trial group needs
  // exactly one, so contention is a startup cost, not a steady-state one.
  ++misses_;
  obs::counter_add("prefix.misses");
  auto entry = std::make_shared<const PrefixEntryData>(build());
  for (const Tensor& t : entry->boundary)
    bytes_cached_ += t.numel() * sizeof(double);
  entries_.emplace(key, entry);
  obs::gauge_set("prefix.bytes_cached", static_cast<double>(bytes_cached_));
  return entry;
}

std::uint64_t PrefixCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t PrefixCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::size_t PrefixCache::bytes_cached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_cached_;
}

}  // namespace ckptfi::core
