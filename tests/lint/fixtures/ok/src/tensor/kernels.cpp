// Kernel hot-path file whose helper chain stays on caller-provided storage:
// same call shape as the bad tree, quiet under arena-kernel-heap.
#include "tensor/scratch_helper.hpp"

namespace ckptfi {

void relu_kernel(float* x, float* tmp, int n) {
  scratch_fill(tmp, x, n);
  for (int i = 0; i < n; ++i) x[i] = tmp[i];
}

}  // namespace ckptfi
