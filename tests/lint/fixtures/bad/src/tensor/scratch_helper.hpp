// Allocating helper outside the kernel hot-path file list: no finding here,
// but arena-kernel-heap follows the call from the hot-path kernel.
#pragma once

namespace ckptfi {

inline float* scratch_grow(int n) {
  return new float[static_cast<unsigned>(n)];
}

}  // namespace ckptfi
