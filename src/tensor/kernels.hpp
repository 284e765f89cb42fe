// Kernel configuration: the simd tier's instruction set and the GEMM compute
// precision.
//
// The tensor layer has one kernel tier, simd (ops_simd.cpp): explicitly
// vectorized FMA microkernels (AVX2+FMA on x86-64, NEON on aarch64) behind
// runtime CPU-feature dispatch, plus portable fixed-width scalar lanes that
// compute the *identical* reduction order — scalar ≡ avx2 ≡ neon bitwise
// (docs/KERNELS.md). Results are a pure function of the inputs and
// CKPTFI_THREADS, never of scheduling or of which ISA ran them.
//
// The ISA is chosen once per process by select_simd_isa(): the host's vector
// ISA, or the scalar lanes under CKPTFI_SIMD=off. A host with no vector ISA
// refuses at its first kernel call unless CKPTFI_SIMD=off opts into the
// scalar lanes — same bytes, far slower (EXPERIMENTS.md).
//
// GEMM compute precision is fp64 unless set_gemm_precision() selects the
// fp16 mixed-precision path (fp16 storage panels, fp32 accumulate — the
// MPGemmFI shape; ops_simd.cpp). Table VII's fp16 campaign mode is what
// selects it, so the precision a campaign computes in is part of its
// fingerprint.
#pragma once

namespace ckptfi {

/// "simd", the one kernel tier — stamped on run-start obs events and bench
/// banners.
const char* kernel_backend_name();

/// Instruction set the simd tier executes with. kScalar is the portable
/// path — same lane structure, same reduction order, bitwise-identical
/// results to the vector paths.
enum class SimdIsa {
  kScalar,  ///< portable fixed-lane path (std::fma)
  kAvx2,    ///< x86-64 AVX2 + FMA3
  kNeon,    ///< aarch64 Advanced SIMD
};

/// The ISA the simd tier runs with on a CPU offering `hardware`, given the
/// CKPTFI_SIMD value `simd_env` (nullptr or "" when unset): off|0|false
/// selects kScalar; unset or on|1|true selects `hardware`. Throws
/// InvalidArgument on any other value, and when `hardware` is kScalar
/// without the explicit CKPTFI_SIMD=off opt-in. Pure, so tests can drive
/// every host.
SimdIsa select_simd_isa(SimdIsa hardware, const char* simd_env);

/// Active ISA: select_simd_isa(host CPU, CKPTFI_SIMD) on first call — the
/// first kernel call, so a refused host fails there — or the last
/// set_simd_isa() override.
SimdIsa simd_isa();

/// Override the ISA (tests pin kScalar to check scalar ≡ vector bitwise).
/// Requesting a vector ISA the host CPU lacks throws InvalidArgument;
/// kScalar is always accepted.
void set_simd_isa(SimdIsa isa);

/// "scalar", "avx2" or "neon" — stamped on run-start obs events.
const char* simd_isa_name();

/// GEMM compute precision. kFp16 is the mixed-precision path: operands are
/// quantized to IEEE binary16 storage panels (util/float16, identical to
/// quantize_value(v, 16)) and accumulated in fp32 lanes.
enum class GemmPrecision {
  kFp64,  ///< full double compute (default)
  kFp16,  ///< fp16 storage panels, fp32 accumulate (MPGemmFI shape)
};

/// Active GEMM precision: kFp64 until set_gemm_precision() says otherwise.
GemmPrecision gemm_precision();

/// Set the GEMM precision for this process (campaign kinds, tests, benches).
/// Not thread-safe against concurrent kernel calls — flip it between runs.
void set_gemm_precision(GemmPrecision p);

/// "fp64" or "fp16" — stamped on run-start obs events.
const char* gemm_precision_name();

}  // namespace ckptfi
