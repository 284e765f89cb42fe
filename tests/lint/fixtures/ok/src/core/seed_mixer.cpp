// Deterministic-module caller whose helper chain is entropy-free: the same
// call shape as the bad tree, quiet under det-rng-entropy.
#include <cstdint>

#include "util/mix_helper.hpp"

namespace ckptfi {

std::uint64_t mix_seed(std::uint64_t base) {
  return noisy_mix(base);
}

}  // namespace ckptfi
