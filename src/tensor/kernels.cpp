#include "tensor/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "util/common.hpp"

namespace ckptfi {

namespace {

/// What the CPU can actually execute, independent of CKPTFI_SIMD. Used to
/// pick the default ISA and to validate set_simd_isa() requests.
SimdIsa hardware_isa() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
#elif defined(__aarch64__)
  return SimdIsa::kNeon;  // Advanced SIMD is baseline on aarch64
#else
  return SimdIsa::kScalar;
#endif
}

std::atomic<SimdIsa>& isa_slot() {
  // A throwing initializer leaves the static uninitialized, so a refused
  // host refuses again at every later kernel call.
  static std::atomic<SimdIsa> slot{
      select_simd_isa(hardware_isa(), std::getenv("CKPTFI_SIMD"))};
  return slot;
}

std::atomic<GemmPrecision> g_precision{GemmPrecision::kFp64};

}  // namespace

const char* kernel_backend_name() { return "simd"; }

SimdIsa select_simd_isa(SimdIsa hardware, const char* simd_env) {
  const std::string v = simd_env == nullptr ? "" : simd_env;
  if (v == "off" || v == "0" || v == "false") return SimdIsa::kScalar;
  if (!v.empty() && v != "on" && v != "1" && v != "true")
    throw InvalidArgument(
        "CKPTFI_SIMD must be on|off (or 1|0, true|false), got \"" + v + "\"");
  if (hardware == SimdIsa::kScalar)
    throw InvalidArgument(
        "this CPU has neither AVX2+FMA nor NEON, which the kernels need; set "
        "CKPTFI_SIMD=off to run their scalar lanes instead (bitwise-identical "
        "results, 84-460x slower)");
  return hardware;
}

SimdIsa simd_isa() { return isa_slot().load(std::memory_order_relaxed); }

void set_simd_isa(SimdIsa isa) {
  if (isa != SimdIsa::kScalar && isa != hardware_isa())
    throw InvalidArgument(
        "set_simd_isa: requested vector ISA is not available on this host");
  isa_slot().store(isa, std::memory_order_relaxed);
}

const char* simd_isa_name() {
  switch (simd_isa()) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
    case SimdIsa::kScalar:
      break;
  }
  return "scalar";
}

GemmPrecision gemm_precision() {
  return g_precision.load(std::memory_order_relaxed);
}

void set_gemm_precision(GemmPrecision p) {
  g_precision.store(p, std::memory_order_relaxed);
}

const char* gemm_precision_name() {
  return gemm_precision() == GemmPrecision::kFp16 ? "fp16" : "fp64";
}

}  // namespace ckptfi
