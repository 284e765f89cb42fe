// Deterministic-module caller reaching entropy only through the util
// helper: no banned token of its own, a transitive det-rng-entropy finding.
#include <cstdint>

#include "util/mix_helper.hpp"

namespace ckptfi {

std::uint64_t mix_seed(std::uint64_t base) {
  return noisy_mix(base);
}

}  // namespace ckptfi
