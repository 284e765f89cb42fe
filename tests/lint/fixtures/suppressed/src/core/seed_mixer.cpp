#include <cstdint>

#include "util/mix_helper.hpp"

namespace ckptfi {

std::uint64_t mix_seed(std::uint64_t base) {
  // ckptfi-lint: allow(det-rng-entropy) one-time log-name salt at startup; never feeds row bytes
  return noisy_mix(base);
}

}  // namespace ckptfi
