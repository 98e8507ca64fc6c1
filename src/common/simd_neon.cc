// NEON implementations of the simd distance/bound primitives, processing
// the 4-lane logical block as two float64x2_t halves. Only separate
// vmulq/vaddq intrinsics are used (no vfmaq), and the TUs are compiled
// with -ffp-contract=off, so every operation rounds exactly like the
// scalar backend's — see the determinism contract in common/simd.h.
#include "common/simd_internal.h"

#if defined(TKDC_SIMD_NEON)

#include <arm_neon.h>

namespace tkdc {
namespace simd {
namespace {

void SoaScaledSquaredDistancesNeon(const double* block, size_t padded,
                                   size_t count, size_t dims, const double* x,
                                   const double* inv_bw, double* out) {
  (void)count;
  for (size_t g = 0; g < padded; g += kSimdBlockWidth) {
    float64x2_t z01 = vdupq_n_f64(0.0);
    float64x2_t z23 = vdupq_n_f64(0.0);
    for (size_t j = 0; j < dims; ++j) {
      const double* row = block + j * padded + g;
      const float64x2_t xj = vdupq_n_f64(x[j]);
      const float64x2_t bj = vdupq_n_f64(inv_bw[j]);
      const float64x2_t u01 = vmulq_f64(vsubq_f64(xj, vld1q_f64(row)), bj);
      const float64x2_t u23 = vmulq_f64(vsubq_f64(xj, vld1q_f64(row + 2)), bj);
      z01 = vaddq_f64(z01, vmulq_f64(u01, u01));
      z23 = vaddq_f64(z23, vmulq_f64(u23, u23));
    }
    vst1q_f64(out + g, z01);
    vst1q_f64(out + g + 2, z23);
  }
}

// Per-axis gap pair for one box, lanes {min_gap, max_gap}.
inline float64x2_t BoxGapPair(double lo, double hi, float64x2_t xj,
                              float64x2_t zero) {
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  const float64x2_t gap_min = vmaxq_f64(
      zero, vmaxq_f64(vsubq_f64(vlo, xj), vsubq_f64(xj, vhi)));
  const float64x2_t gap_max =
      vmaxq_f64(vsubq_f64(xj, vlo), vsubq_f64(vhi, xj));
  return vcombine_f64(vget_low_f64(gap_min), vget_high_f64(gap_max));
}

void BoxPairScaledSquaredDistanceBoundsNeon(
    const double* lo0, const double* hi0, const double* lo1,
    const double* hi1, const double* x, const double* inv_bw, size_t dims,
    double out[4]) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  float64x2_t acc0 = zero;  // {min0, max0}
  float64x2_t acc1 = zero;  // {min1, max1}
  for (size_t j = 0; j < dims; ++j) {
    const float64x2_t xj = vdupq_n_f64(x[j]);
    const float64x2_t bj = vdupq_n_f64(inv_bw[j]);
    const float64x2_t u0 = vmulq_f64(BoxGapPair(lo0[j], hi0[j], xj, zero), bj);
    const float64x2_t u1 = vmulq_f64(BoxGapPair(lo1[j], hi1[j], xj, zero), bj);
    acc0 = vaddq_f64(acc0, vmulq_f64(u0, u0));
    acc1 = vaddq_f64(acc1, vmulq_f64(u1, u1));
  }
  vst1q_f64(out, acc0);
  vst1q_f64(out + 2, acc1);
}

constexpr SimdOps kNeonOps = {
    &SoaScaledSquaredDistancesNeon,
    &BoxPairScaledSquaredDistanceBoundsNeon,
};

}  // namespace

const SimdOps* NeonSimdOpsImpl() { return &kNeonOps; }

}  // namespace simd
}  // namespace tkdc

#endif  // TKDC_SIMD_NEON
