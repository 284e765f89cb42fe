// Helper in the exempt util module: the entropy draw is no finding here, but
// det-rng-entropy follows the call from a deterministic-module caller.
#pragma once
#include <cstdint>
#include <random>

namespace ckptfi {

inline std::uint64_t entropy_word() {
  std::random_device dev;
  return dev();
}

inline std::uint64_t noisy_mix(std::uint64_t x) {
  return x ^ entropy_word();
}

}  // namespace ckptfi
