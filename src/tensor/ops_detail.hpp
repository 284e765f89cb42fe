// Internals shared by the kernel translation units (ops.cpp, ops_simd.cpp)
// and the reference kernels the tests check them against (tests/support).
#pragma once

#include <chrono>
#include <cstddef>

#include "obs/registry.hpp"
#include "tensor/ops.hpp"
#include "util/common.hpp"

namespace ckptfi::detail {

struct ConvDims {
  std::size_t n, ci, h, w, co, kh, kw, ho, wo;
};

inline ConvDims conv_dims(const Tensor& x, const Tensor& w,
                          const ConvSpec& spec) {
  require(x.rank() == 4, "conv2d: input must be [N,C,H,W]");
  require(w.rank() == 4, "conv2d: weight must be [Co,Ci,kh,kw]");
  ConvDims d;
  d.n = x.dim(0);
  d.ci = x.dim(1);
  d.h = x.dim(2);
  d.w = x.dim(3);
  d.co = w.dim(0);
  d.kh = w.dim(2);
  d.kw = w.dim(3);
  require(w.dim(1) == d.ci, "conv2d: channel mismatch");
  require(d.kh == spec.kernel && d.kw == spec.kernel,
          "conv2d: weight kernel size disagrees with spec");
  d.ho = spec.out_extent(d.h);
  d.wo = spec.out_extent(d.w);
  return d;
}

/// Observes `name` (seconds) on destruction; a single relaxed load and no
/// clock read when metrics are disabled.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(const char* name) : name_(name) {
    if (obs::metrics_enabled()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedHistTimer() {
    if (!armed_) return;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start_;
    obs::histogram_observe(name_, dt.count());
  }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  const char* name_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ckptfi::detail
