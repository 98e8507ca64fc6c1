// AVX2 implementations of the simd distance/bound primitives. Compiled
// with -mavx2 (but NOT -mfma) and -ffp-contract=off, and using only
// separate multiply/add intrinsics, so every operation rounds exactly like
// the scalar backend's — see the determinism contract in common/simd.h.
// The TU is only part of the build when the toolchain supports AVX2;
// callers additionally gate on the running CPU via SimdBackendUsable().
#include "common/simd_internal.h"

#if defined(TKDC_SIMD_AVX2)

#include <immintrin.h>

namespace tkdc {
namespace simd {
namespace {

void SoaScaledSquaredDistancesAvx2(const double* block, size_t padded,
                                   size_t count, size_t dims, const double* x,
                                   const double* inv_bw, double* out) {
  (void)count;
  for (size_t g = 0; g < padded; g += kSimdBlockWidth) {
    __m256d z = _mm256_setzero_pd();
    for (size_t j = 0; j < dims; ++j) {
      const __m256d row = _mm256_loadu_pd(block + j * padded + g);
      const __m256d diff = _mm256_sub_pd(_mm256_set1_pd(x[j]), row);
      const __m256d u = _mm256_mul_pd(diff, _mm256_set1_pd(inv_bw[j]));
      z = _mm256_add_pd(z, _mm256_mul_pd(u, u));
    }
    _mm256_storeu_pd(out + g, z);
  }
}

void BoxPairScaledSquaredDistanceBoundsAvx2(
    const double* lo0, const double* hi0, const double* lo1,
    const double* hi1, const double* x, const double* inv_bw, size_t dims,
    double out[4]) {
  // Lanes = {min0, max0, min1, max1}: one bound per lane, each accumulated
  // sequentially over dimensions (contract rule 3). The per-axis gaps are
  // computed with vector min/max/clamp so all four bounds share each
  // x[j] / inv_bw[j] load.
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  for (size_t j = 0; j < dims; ++j) {
    const __m256d xj = _mm256_set1_pd(x[j]);
    const __m256d lo = _mm256_set_pd(lo1[j], lo1[j], lo0[j], lo0[j]);
    const __m256d hi = _mm256_set_pd(hi1[j], hi1[j], hi0[j], hi0[j]);
    // Outside gap, clamped at zero: max(lo - x, x - hi, 0). Exactly the
    // scalar (x < lo ? lo - x : x > hi ? x - hi : 0) for lo <= hi.
    const __m256d gap_min = _mm256_max_pd(
        zero, _mm256_max_pd(_mm256_sub_pd(lo, xj), _mm256_sub_pd(xj, hi)));
    // Farthest-wall gap: max(x - lo, hi - x).
    const __m256d gap_max =
        _mm256_max_pd(_mm256_sub_pd(xj, lo), _mm256_sub_pd(hi, xj));
    // Lanes 0/2 take the min gap, lanes 1/3 the max gap.
    const __m256d gap = _mm256_blend_pd(gap_min, gap_max, 0b1010);
    const __m256d u = _mm256_mul_pd(gap, _mm256_set1_pd(inv_bw[j]));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(u, u));
  }
  _mm256_storeu_pd(out, acc);
}

constexpr SimdOps kAvx2Ops = {
    &SoaScaledSquaredDistancesAvx2,
    &BoxPairScaledSquaredDistanceBoundsAvx2,
};

}  // namespace

const SimdOps* Avx2SimdOpsImpl() { return &kAvx2Ops; }

}  // namespace simd
}  // namespace tkdc

#endif  // TKDC_SIMD_AVX2
