#ifndef TKDC_COMMON_SIMD_H_
#define TKDC_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace tkdc {

/// Instruction-set backends for the vectorized leaf primitives. Which
/// backends exist is a compile-time property (the AVX2/NEON translation
/// units are only built when the toolchain supports them — see the
/// TKDC_SIMD CMake option); which backend *runs* is resolved once at
/// startup from the CPU features, overridable via the TKDC_SIMD
/// environment variable ("off"/"scalar", "avx2", "neon").
enum class SimdBackend : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Fixed accumulation width of the determinism contract (see below). Every
/// backend — including the scalar one — accumulates leaf sums in exactly
/// this many interleaved partial sums, so changing the instruction set
/// never changes a result bit. NEON implements the 4-lane block as two
/// 2-lane vectors; a hypothetical AVX-512 backend would process two blocks
/// per register but keep the same per-block partials.
inline constexpr size_t kSimdBlockWidth = 4;

/// `count` rounded up to the next multiple of kSimdBlockWidth. SoA leaf
/// blocks are padded to this length per dimension; padding coordinates are
/// +infinity, which makes a padded point's scaled squared distance
/// +infinity and therefore its kernel contribution exactly +0.0 under
/// every kernel family (exp(-inf) == 0; compact kernels vanish for
/// z >= 1). Adding +0.0 is the identity, so padded lanes never perturb a
/// sum.
inline constexpr size_t SimdPaddedCount(size_t count) {
  return (count + (kSimdBlockWidth - 1)) & ~(kSimdBlockWidth - 1);
}

/// Human-readable backend name ("scalar", "avx2", "neon") for logs and
/// bench JSON.
const char* SimdBackendName(SimdBackend backend);

/// True when the backend's translation unit was compiled into this binary.
bool SimdBackendCompiled(SimdBackend backend);

/// True when the backend is compiled in AND the running CPU supports it
/// (e.g. AVX2 checked via cpuid, so a binary built with -mavx2 TUs still
/// falls back cleanly on older x86-64).
bool SimdBackendUsable(SimdBackend backend);

/// The backend the dispatched wrappers below currently use. Resolved once
/// on first use: the TKDC_SIMD environment variable if set (an unusable
/// request falls back to scalar), otherwise the best usable backend.
SimdBackend ActiveSimdBackend();

/// Test hook: re-points the dispatched wrappers at `backend` (which must
/// be usable) and returns the previously active backend. Not thread-safe
/// against in-flight queries — the scalar-vs-SIMD equality tests flip it
/// between single-threaded runs.
SimdBackend ForceSimdBackendForTesting(SimdBackend backend);

namespace simd {

// --- Determinism contract ------------------------------------------------
//
// Every primitive below (and the kernel sums in kde/kernel_simd.h) obeys
// one contract, shared bit-for-bit by all backends:
//
//  1. A *per-point* scaled squared distance is accumulated sequentially
//     over the dimensions: z += ((x_j - p_j) * inv_bw_j)^2 for j = 0..d-1,
//     in order — the same association the legacy scalar loops used. SIMD
//     parallelism runs ACROSS points (one point per lane), never across a
//     single point's dimensions, so each lane replays the scalar
//     recurrence exactly.
//  2. A *sum over points* (leaf kernel sums) is accumulated in
//     kSimdBlockWidth interleaved partials — point i adds into partial
//     i % 4 — reduced as (acc0 + acc2) + (acc1 + acc3). That reduction is
//     what one AVX2 register reduction performs (low half + high half,
//     then horizontal add), and the scalar backend executes the identical
//     schedule.
//  3. A *per-bound* box accumulation (Eq. 6 node bounds) is sequential
//     over dimensions, one bound per lane, so a batched children call is
//     bitwise equal to the per-child scalar calls it replaces.
//
// The SIMD translation units are compiled without FMA contraction
// (-ffp-contract=off, and no fused intrinsics), so mul+add sequences round
// identically everywhere. Under this contract "scalar vs SIMD" is a pure
// scheduling choice: classifications are bit-identical by construction,
// and the equality test suite (tests/kde/simd_equivalence_test.cc) holds
// every backend to it.

/// Scaled squared distances from `x` to every point of an SoA leaf block:
/// out[k] = sum_j ((x[j] - block[j * padded + k]) * inv_bw[j])^2 for
/// k < count. `block` holds `dims` arrays of `padded` doubles each
/// (padded == SimdPaddedCount(count)); `out` must hold `padded` entries
/// (the padding lanes are written with +infinity garbage — callers consume
/// only the first `count`).
void SoaScaledSquaredDistances(const double* block, size_t padded,
                               size_t count, size_t dims, const double* x,
                               const double* inv_bw, double* out);

/// Eq. 6 min/max scaled squared distance bounds from point `x` to two
/// axis-aligned boxes in one pass: out = {min0, max0, min1, max1}.
/// Bitwise equal to BoundingBox::Min/MaxScaledSquaredDistance on each box
/// (contract rule 3).
void BoxPairScaledSquaredDistanceBounds(const double* lo0, const double* hi0,
                                        const double* lo1, const double* hi1,
                                        const double* x, const double* inv_bw,
                                        size_t dims, double out[4]);

/// Backend function table. The dispatched wrappers above route through
/// ActiveSimdBackend(); tests grab a specific table to compare backends
/// directly.
struct SimdOps {
  void (*soa_scaled_squared_distances)(const double* block, size_t padded,
                                       size_t count, size_t dims,
                                       const double* x, const double* inv_bw,
                                       double* out);
  void (*box_pair_bounds)(const double* lo0, const double* hi0,
                          const double* lo1, const double* hi1,
                          const double* x, const double* inv_bw, size_t dims,
                          double out[4]);
};

/// The table for `backend`; null when the backend is not compiled in.
/// ScalarSimdOps() is always available.
const SimdOps* SimdOpsFor(SimdBackend backend);
const SimdOps& ScalarSimdOps();

}  // namespace simd
}  // namespace tkdc

#endif  // TKDC_COMMON_SIMD_H_
