#include "tensor/scratch_helper.hpp"

namespace ckptfi {

void warmup_kernel(float* x, int n) {
  // ckptfi-lint: allow(arena-kernel-heap) one-shot warmup path before the arena exists; never runs per trial
  float* tmp = scratch_grow(n);
  for (int i = 0; i < n; ++i) x[i] = tmp[i];
  delete[] tmp;
}

}  // namespace ckptfi
