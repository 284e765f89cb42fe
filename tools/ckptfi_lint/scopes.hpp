// The one rule-scope table. Which rules police which paths used to live in
// three prose locations (rules.cpp predicates, docs/LINT.md, main.cpp's
// header comment) and drifted apart was only a module-addition away. Now the
// path lists are data in this header, the predicates in rules.cpp and
// sema/index_rules.cpp read them, `ckptfi_lint --list-scopes` dumps them,
// and tests/lint/test_lint.cpp asserts every entry is documented verbatim in
// docs/LINT.md and names a path that exists — so adding a module without
// extending lint coverage (or the docs), or deleting one without dropping
// its entry, fails a test instead of silently drifting.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ckptfi::lint {

/// Path prefixes whose files carry the determinism contract: trial rows must
/// be a pure function of (--seed, trial index). det-* rules apply here.
inline constexpr std::string_view kDeterministicModules[] = {
    "src/tensor/",         "src/nn/",     "src/core/",
    "src/hdf5/",           "src/data/",   "src/models/",
    "src/net/",            "tools/ckptfi_fleetd/",
    "tools/ckptfi_worker/",
};

/// Deliberately outside the det-* scope, with the reason on record.
/// (Everything not listed in kDeterministicModules is exempt; these are the
/// two neighbourhoods people keep asking about.)
inline constexpr std::string_view kDeterministicExempt[] = {
    "src/util/",  // hosts the seeded RNG itself (splitmix64/xoshiro)
    "src/obs/",   // observation-only: wall clocks never feed row bytes
};

/// Kernel hot-path translation units: scratch must come from the Workspace
/// arena and reductions must keep the documented fixed lane fold.
/// arena-* and det-simd-lane-order rules apply here.
inline constexpr std::string_view kKernelHotPaths[] = {
    "src/tensor/ops.cpp",
    "src/tensor/ops_simd.cpp",
    "src/tensor/kernels.cpp",
};

/// Qualified-name prefixes the det-rng-entropy walk does not step into:
/// ckptfi::obs is observation-only by contract (its wall-clock reads are
/// diagnostics; nothing it computes feeds row bytes, the same reason src/obs
/// is exempt).
inline constexpr std::string_view kEntropyBarriers[] = {
    "ckptfi::obs::",
    "obs::",
};

/// Qualified-name prefixes the arena-kernel-heap walk does not step
/// into: Workspace IS the sanctioned allocator (high-water regrow is its
/// documented job), Tensor::resize on caller-owned outputs is the documented
/// kernel contract (docs/KERNELS.md), obs record paths carry their own
/// zero-steady-state-allocation contract (tests/obs), and parallel_for's
/// shared-state packaging is per-region control-plane allocation — the PR 3
/// pool design — not per-element kernel scratch. (Calls *inside* the loop
/// lambda are attributed to the enclosing kernel, so the barrier exempts
/// only the pool's own launch machinery.)
inline constexpr std::string_view kHeapBarriers[] = {
    "ckptfi::Workspace::",
    "Workspace::",
    "ckptfi::Tensor::resize",
    "Tensor::resize",
    "ckptfi::obs::",
    "obs::",
    "ckptfi::ThreadPool::parallel_for",
    "ThreadPool::parallel_for",
    "ckptfi::parallel_for",
};

bool in_deterministic_module(std::string_view path);
bool in_deterministic_exempt(std::string_view path);
bool is_kernel_hot_path(std::string_view path);
bool is_entropy_barrier(std::string_view qualified_name);
bool is_heap_barrier(std::string_view qualified_name);

/// The `--list-scopes` dump: one `<kind>: <entry>` line per table row, in
/// table order. test_lint.cpp asserts every entry string appears verbatim in
/// docs/LINT.md.
std::string scopes_dump();

}  // namespace ckptfi::lint
