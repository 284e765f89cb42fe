// Pins the simd tier's instruction set for one scope and restores the
// previous one, so a test can run the same check on the vector ISA and on
// the scalar lanes (kScalar is accepted on every host).
#pragma once

#include "tensor/kernels.hpp"

namespace ckptfi {

class IsaGuard {
 public:
  explicit IsaGuard(SimdIsa isa) : prev_(simd_isa()) { set_simd_isa(isa); }
  ~IsaGuard() { set_simd_isa(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  SimdIsa prev_;
};

}  // namespace ckptfi
