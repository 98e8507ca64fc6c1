#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/simd_internal.h"

namespace tkdc {
namespace simd {

#if !defined(TKDC_SIMD_AVX2)
const SimdOps* Avx2SimdOpsImpl() { return nullptr; }
#endif
#if !defined(TKDC_SIMD_NEON)
const SimdOps* NeonSimdOpsImpl() { return nullptr; }
#endif

namespace {

// --- Scalar backend ------------------------------------------------------
//
// The canonical implementations of the determinism contract: every SIMD
// backend must reproduce these bit-for-bit (the inner `lane` loops map one
// iteration per vector lane). This TU is compiled with -ffp-contract=off
// so the mul+add sequences round exactly as the vector backends' separate
// multiply and add instructions do.

void SoaScaledSquaredDistancesScalar(const double* block, size_t padded,
                                     size_t count, size_t dims,
                                     const double* x, const double* inv_bw,
                                     double* out) {
  (void)count;  // Padding lanes compute +inf distances; callers ignore them.
  for (size_t g = 0; g < padded; g += kSimdBlockWidth) {
    double z[kSimdBlockWidth] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < dims; ++j) {
      const double* row = block + j * padded + g;
      const double xj = x[j];
      const double bj = inv_bw[j];
      for (size_t lane = 0; lane < kSimdBlockWidth; ++lane) {
        const double u = (xj - row[lane]) * bj;
        z[lane] += u * u;
      }
    }
    for (size_t lane = 0; lane < kSimdBlockWidth; ++lane) {
      out[g + lane] = z[lane];
    }
  }
}

void BoxPairScaledSquaredDistanceBoundsScalar(
    const double* lo0, const double* hi0, const double* lo1,
    const double* hi1, const double* x, const double* inv_bw, size_t dims,
    double out[4]) {
  // One bound per accumulator, each summed sequentially over dimensions —
  // bitwise equal to BoundingBox::Min/MaxScaledSquaredDistance per box.
  double z_min0 = 0.0, z_max0 = 0.0, z_min1 = 0.0, z_max1 = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    const double xj = x[j];
    const double bj = inv_bw[j];
    const double gap_min0 =
        xj < lo0[j] ? lo0[j] - xj : (xj > hi0[j] ? xj - hi0[j] : 0.0);
    const double gap_max0 =
        xj - lo0[j] > hi0[j] - xj ? xj - lo0[j] : hi0[j] - xj;
    const double gap_min1 =
        xj < lo1[j] ? lo1[j] - xj : (xj > hi1[j] ? xj - hi1[j] : 0.0);
    const double gap_max1 =
        xj - lo1[j] > hi1[j] - xj ? xj - lo1[j] : hi1[j] - xj;
    const double u0 = gap_min0 * bj;
    const double v0 = gap_max0 * bj;
    const double u1 = gap_min1 * bj;
    const double v1 = gap_max1 * bj;
    z_min0 += u0 * u0;
    z_max0 += v0 * v0;
    z_min1 += u1 * u1;
    z_max1 += v1 * v1;
  }
  out[0] = z_min0;
  out[1] = z_max0;
  out[2] = z_min1;
  out[3] = z_max1;
}

constexpr SimdOps kScalarOps = {
    &SoaScaledSquaredDistancesScalar,
    &BoxPairScaledSquaredDistanceBoundsScalar,
};

// --- Backend resolution --------------------------------------------------

bool CpuSupports(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kAvx2:
#if defined(__x86_64__) && defined(__GNUC__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdBackend::kNeon:
#if defined(__aarch64__)
      return true;  // NEON is baseline on AArch64.
#else
      return false;
#endif
  }
  return false;
}

SimdBackend ResolveBackend() {
  const char* env = std::getenv("TKDC_SIMD");
  if (env != nullptr && env[0] != '\0') {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
      return SimdBackend::kScalar;
    }
    if (std::strcmp(env, "avx2") == 0 &&
        SimdBackendUsable(SimdBackend::kAvx2)) {
      return SimdBackend::kAvx2;
    }
    if (std::strcmp(env, "neon") == 0 &&
        SimdBackendUsable(SimdBackend::kNeon)) {
      return SimdBackend::kNeon;
    }
    return SimdBackend::kScalar;  // Unknown or unusable request: fall back.
  }
  if (SimdBackendUsable(SimdBackend::kAvx2)) return SimdBackend::kAvx2;
  if (SimdBackendUsable(SimdBackend::kNeon)) return SimdBackend::kNeon;
  return SimdBackend::kScalar;
}

std::atomic<int>& ActiveBackendSlot() {
  static std::atomic<int> active{static_cast<int>(ResolveBackend())};
  return active;
}

}  // namespace

const SimdOps& ScalarSimdOps() { return kScalarOps; }

const SimdOps* SimdOpsFor(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return &kScalarOps;
    case SimdBackend::kAvx2:
      return Avx2SimdOpsImpl();
    case SimdBackend::kNeon:
      return NeonSimdOpsImpl();
  }
  return nullptr;
}

void SoaScaledSquaredDistances(const double* block, size_t padded,
                               size_t count, size_t dims, const double* x,
                               const double* inv_bw, double* out) {
  SimdOpsFor(ActiveSimdBackend())
      ->soa_scaled_squared_distances(block, padded, count, dims, x, inv_bw,
                                     out);
}

void BoxPairScaledSquaredDistanceBounds(const double* lo0, const double* hi0,
                                        const double* lo1, const double* hi1,
                                        const double* x, const double* inv_bw,
                                        size_t dims, double out[4]) {
  SimdOpsFor(ActiveSimdBackend())
      ->box_pair_bounds(lo0, hi0, lo1, hi1, x, inv_bw, dims, out);
}

}  // namespace simd

const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

bool SimdBackendCompiled(SimdBackend backend) {
  return simd::SimdOpsFor(backend) != nullptr;
}

bool SimdBackendUsable(SimdBackend backend) {
  return SimdBackendCompiled(backend) && simd::CpuSupports(backend);
}

SimdBackend ActiveSimdBackend() {
  return static_cast<SimdBackend>(
      simd::ActiveBackendSlot().load(std::memory_order_relaxed));
}

SimdBackend ForceSimdBackendForTesting(SimdBackend backend) {
  if (!SimdBackendUsable(backend)) backend = SimdBackend::kScalar;
  return static_cast<SimdBackend>(simd::ActiveBackendSlot().exchange(
      static_cast<int>(backend), std::memory_order_relaxed));
}

}  // namespace tkdc
