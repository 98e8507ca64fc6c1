// Scalar-vs-SIMD equality suite: the determinism contract of
// common/simd.h says every backend is a pure scheduling choice — same
// bits, different instructions. These tests hold each compiled-in vector
// backend to exact (EXPECT_EQ on doubles) agreement with the scalar
// schedule, for every primitive, every kernel family, dims 1..17, and
// counts that exercise every remainder mod the lane width. A final
// end-to-end layer forces the dispatcher to each backend and requires
// bit-identical labels and densities from fully trained classifiers.
//
// On hosts (or builds) without a usable vector backend the backend-pinned
// tests skip; the contract tests of the scalar schedule itself still run.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "data/generators.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "kde/kernel.h"
#include "kde/kernel_simd.h"
#include "tkdc/classifier.h"

namespace tkdc {
namespace {

constexpr KernelType kAllKernels[] = {
    KernelType::kGaussian,
    KernelType::kEpanechnikov,
    KernelType::kUniform,
    KernelType::kBiweight,
};

std::string KernelName(KernelType kernel) {
  switch (kernel) {
    case KernelType::kGaussian:
      return "gaussian";
    case KernelType::kEpanechnikov:
      return "epanechnikov";
    case KernelType::kUniform:
      return "uniform";
    case KernelType::kBiweight:
      return "biweight";
  }
  return "unknown";
}

// The first usable non-scalar backend compiled into this binary, or
// kScalar when none is (then the pinned tests skip).
SimdBackend UsableVectorBackend() {
  for (const SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kNeon}) {
    if (SimdBackendUsable(b)) return b;
  }
  return SimdBackend::kScalar;
}

// An SoA block of `count` gaussian points in `dims` dimensions, padded
// with +infinity exactly as SpatialIndex::BuildLeafSoa lays leaves out.
std::vector<double> MakeBlock(size_t dims, size_t count, Rng& rng) {
  const size_t padded = SimdPaddedCount(count);
  std::vector<double> block(dims * padded,
                            std::numeric_limits<double>::infinity());
  for (size_t j = 0; j < dims; ++j) {
    for (size_t k = 0; k < count; ++k) {
      block[j * padded + k] = rng.NextGaussian();
    }
  }
  return block;
}

// Contract rule 1 reference: per-point distance accumulated sequentially
// over dimensions, exactly the legacy scalar leaf loop.
double SequentialDistance(const double* block, size_t padded, size_t dims,
                          size_t k, const double* x, const double* inv_bw) {
  double z = 0.0;
  for (size_t j = 0; j < dims; ++j) {
    const double diff = (x[j] - block[j * padded + k]) * inv_bw[j];
    z += diff * diff;
  }
  return z;
}

class SimdPrimitiveEquality : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_ = UsableVectorBackend();
    if (backend_ == SimdBackend::kScalar) {
      GTEST_SKIP() << "no vector backend usable on this host/build";
    }
    vector_ops_ = simd::SimdOpsFor(backend_);
    vector_kernel_ops_ = simd::KernelSimdOpsFor(backend_);
    ASSERT_NE(vector_ops_, nullptr);
    ASSERT_NE(vector_kernel_ops_, nullptr);
  }

  SimdBackend backend_ = SimdBackend::kScalar;
  const simd::SimdOps* vector_ops_ = nullptr;
  const simd::KernelSimdOps* vector_kernel_ops_ = nullptr;
};

// Distances: scalar table, vector table, and the sequential reference all
// produce the same bits, at every dims x count combination (counts cover
// every remainder mod 4 plus multi-block sizes).
TEST_F(SimdPrimitiveEquality, SoaDistancesBitEqualAcrossBackends) {
  const simd::SimdOps& scalar = simd::ScalarSimdOps();
  Rng rng(101);
  for (size_t dims = 1; dims <= 17; ++dims) {
    for (const size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                               size_t{5}, size_t{7}, size_t{8}, size_t{13},
                               size_t{64}, size_t{129}}) {
      const size_t padded = SimdPaddedCount(count);
      const std::vector<double> block = MakeBlock(dims, count, rng);
      std::vector<double> x(dims), inv_bw(dims);
      for (size_t j = 0; j < dims; ++j) {
        x[j] = rng.NextGaussian();
        inv_bw[j] = 0.5 + rng.NextDouble();
      }
      std::vector<double> z_scalar(padded), z_vector(padded);
      scalar.soa_scaled_squared_distances(block.data(), padded, count, dims,
                                          x.data(), inv_bw.data(),
                                          z_scalar.data());
      vector_ops_->soa_scaled_squared_distances(block.data(), padded, count,
                                                dims, x.data(), inv_bw.data(),
                                                z_vector.data());
      for (size_t k = 0; k < count; ++k) {
        const double reference = SequentialDistance(
            block.data(), padded, dims, k, x.data(), inv_bw.data());
        EXPECT_EQ(z_scalar[k], reference)
            << "dims=" << dims << " count=" << count << " k=" << k;
        EXPECT_EQ(z_vector[k], reference)
            << "dims=" << dims << " count=" << count << " k=" << k;
      }
    }
  }
}

// Node bounds: the batched two-children box call equals per-box scalar
// geometry bitwise (contract rule 3).
TEST_F(SimdPrimitiveEquality, BoxPairBoundsBitEqualAcrossBackends) {
  const simd::SimdOps& scalar = simd::ScalarSimdOps();
  Rng rng(202);
  for (size_t dims = 1; dims <= 17; ++dims) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<double> lo0(dims), hi0(dims), lo1(dims), hi1(dims);
      std::vector<double> x(dims), inv_bw(dims);
      for (size_t j = 0; j < dims; ++j) {
        const double a = rng.NextGaussian(), b = rng.NextGaussian();
        lo0[j] = std::min(a, b);
        hi0[j] = std::max(a, b);
        const double c = rng.NextGaussian(), d = rng.NextGaussian();
        lo1[j] = std::min(c, d);
        hi1[j] = std::max(c, d);
        // Sometimes place the query inside a box (both gaps clamp to 0).
        x[j] = trial % 3 == 0 ? (lo0[j] + hi0[j]) / 2 : rng.NextGaussian();
        inv_bw[j] = 0.5 + rng.NextDouble();
      }
      double out_scalar[4], out_vector[4];
      scalar.box_pair_bounds(lo0.data(), hi0.data(), lo1.data(), hi1.data(),
                             x.data(), inv_bw.data(), dims, out_scalar);
      vector_ops_->box_pair_bounds(lo0.data(), hi0.data(), lo1.data(),
                                   hi1.data(), x.data(), inv_bw.data(), dims,
                                   out_vector);
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(out_scalar[i], out_vector[i])
            << "dims=" << dims << " trial=" << trial << " slot=" << i;
      }
    }
  }
}

// Kernel sums: all four families, both the plain and the radius-masked
// variants, bit-equal between backends in default (exact) mode.
TEST_F(SimdPrimitiveEquality, KernelSumsBitEqualAcrossBackends) {
  const simd::KernelSimdOps& scalar = simd::ScalarKernelSimdOps();
  Rng rng(404);
  for (const KernelType type : kAllKernels) {
    for (size_t dims = 1; dims <= 17; ++dims) {
      for (const size_t count :
           {size_t{1}, size_t{3}, size_t{4}, size_t{6}, size_t{13},
            size_t{64}, size_t{129}}) {
        const size_t padded = SimdPaddedCount(count);
        const std::vector<double> block = MakeBlock(dims, count, rng);
        std::vector<double> x(dims), inv_bw(dims);
        for (size_t j = 0; j < dims; ++j) {
          x[j] = 0.5 * rng.NextGaussian();
          // Wide bandwidths keep compact kernels' support populated.
          inv_bw[j] = 1.0 / (1.0 + 2.0 * rng.NextDouble());
        }
        const Kernel kernel(type, std::vector<double>(dims, 1.0));
        const double norm = kernel.norm();
        const double sum_scalar =
            scalar.kernel_sum(block.data(), padded, count, dims, x.data(),
                              inv_bw.data(), type, norm, false);
        const double sum_vector = vector_kernel_ops_->kernel_sum(
            block.data(), padded, count, dims, x.data(), inv_bw.data(), type,
            norm, false);
        EXPECT_EQ(sum_scalar, sum_vector)
            << KernelName(type) << " dims=" << dims << " count=" << count;

        const double radius_sq = static_cast<double>(dims);
        uint64_t inside_scalar = 0, inside_vector = 0;
        const double within_scalar = scalar.kernel_sum_within(
            block.data(), padded, count, dims, x.data(), inv_bw.data(),
            radius_sq, type, norm, false, &inside_scalar);
        const double within_vector = vector_kernel_ops_->kernel_sum_within(
            block.data(), padded, count, dims, x.data(), inv_bw.data(),
            radius_sq, type, norm, false, &inside_vector);
        EXPECT_EQ(within_scalar, within_vector)
            << KernelName(type) << " dims=" << dims << " count=" << count;
        EXPECT_EQ(inside_scalar, inside_vector)
            << KernelName(type) << " dims=" << dims << " count=" << count;
        // The mask must agree with the distances themselves.
        uint64_t expected_inside = 0;
        for (size_t k = 0; k < count; ++k) {
          if (SequentialDistance(block.data(), padded, dims, k, x.data(),
                                 inv_bw.data()) <= radius_sq) {
            ++expected_inside;
          }
        }
        EXPECT_EQ(inside_scalar, expected_inside)
            << KernelName(type) << " dims=" << dims << " count=" << count;
      }
    }
  }
}

// Fast-math mode is an approximation of the Gaussian only: compact
// families must remain bit-exact under it, and the Gaussian must stay
// within a tight relative band of the exact sum.
TEST_F(SimdPrimitiveEquality, FastMathGaussianWithinBandOthersExact) {
  const simd::KernelSimdOps& scalar = simd::ScalarKernelSimdOps();
  Rng rng(505);
  for (const KernelType type : kAllKernels) {
    for (size_t dims = 1; dims <= 8; ++dims) {
      const size_t count = 257;
      const size_t padded = SimdPaddedCount(count);
      const std::vector<double> block = MakeBlock(dims, count, rng);
      std::vector<double> x(dims), inv_bw(dims);
      for (size_t j = 0; j < dims; ++j) {
        x[j] = 0.5 * rng.NextGaussian();
        inv_bw[j] = 1.0 / (1.0 + rng.NextDouble());
      }
      const Kernel kernel(type, std::vector<double>(dims, 1.0));
      const double exact =
          scalar.kernel_sum(block.data(), padded, count, dims, x.data(),
                            inv_bw.data(), type, kernel.norm(), false);
      const double fast = vector_kernel_ops_->kernel_sum(
          block.data(), padded, count, dims, x.data(), inv_bw.data(), type,
          kernel.norm(), true);
      if (type == KernelType::kGaussian) {
        EXPECT_NEAR(fast, exact, 1e-12 * std::fabs(exact) + 1e-300)
            << "dims=" << dims;
      } else {
        EXPECT_EQ(fast, exact) << KernelName(type) << " dims=" << dims;
      }
    }
  }
}

// The scalar schedule itself is always available, even with TKDC_SIMD=off.
TEST(SimdDispatchTest, ScalarBackendAlwaysCompiledAndUsable) {
  EXPECT_TRUE(SimdBackendCompiled(SimdBackend::kScalar));
  EXPECT_TRUE(SimdBackendUsable(SimdBackend::kScalar));
  EXPECT_NE(simd::SimdOpsFor(SimdBackend::kScalar), nullptr);
  EXPECT_NE(simd::KernelSimdOpsFor(SimdBackend::kScalar), nullptr);
  EXPECT_STREQ(SimdBackendName(SimdBackend::kScalar), "scalar");
}

TEST(SimdDispatchTest, UsableImpliesCompiled) {
  for (const SimdBackend b : {SimdBackend::kAvx2, SimdBackend::kNeon}) {
    if (SimdBackendUsable(b)) {
      EXPECT_TRUE(SimdBackendCompiled(b));
      EXPECT_NE(simd::SimdOpsFor(b), nullptr);
      EXPECT_NE(simd::KernelSimdOpsFor(b), nullptr);
    }
  }
}

// Padding lanes must be inert: growing count to the next lane boundary
// with real points changes the sum, but the padding itself contributes
// exactly +0.0 (the sum over count points equals the sum with padding).
TEST(SimdPaddingTest, PaddedLanesContributeExactZero) {
  Rng rng(606);
  const simd::KernelSimdOps& scalar = simd::ScalarKernelSimdOps();
  for (const KernelType type : kAllKernels) {
    const size_t dims = 3;
    for (const size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      const size_t padded = SimdPaddedCount(count);
      const std::vector<double> block = MakeBlock(dims, count, rng);
      std::vector<double> x(dims, 0.1), inv_bw(dims, 0.8);
      const Kernel kernel(type, std::vector<double>(dims, 1.0));
      // Treat the padded block as if all `padded` slots were points: the
      // +inf padding rows must add nothing to either variant.
      const double with_pad =
          scalar.kernel_sum(block.data(), padded, padded, dims, x.data(),
                            inv_bw.data(), type, kernel.norm(), false);
      const double without_pad =
          scalar.kernel_sum(block.data(), padded, count, dims, x.data(),
                            inv_bw.data(), type, kernel.norm(), false);
      EXPECT_EQ(with_pad, without_pad)
          << KernelName(type) << " count=" << count;
    }
  }
}

// --- End-to-end: forced backends produce bit-identical classifiers ------

class ForcedBackendEquivalence : public ::testing::TestWithParam<KernelType> {
 protected:
  void SetUp() override {
    vector_backend_ = UsableVectorBackend();
    if (vector_backend_ == SimdBackend::kScalar) {
      GTEST_SKIP() << "no vector backend usable on this host/build";
    }
  }
  void TearDown() override {
    if (vector_backend_ != SimdBackend::kScalar) {
      ForceSimdBackendForTesting(original_);
    }
  }

  SimdBackend vector_backend_ = SimdBackend::kScalar;
  SimdBackend original_ = ActiveSimdBackend();
};

TEST_P(ForcedBackendEquivalence, TrainedClassifiersBitIdentical) {
  const KernelType kernel_type = GetParam();
  TkdcConfig config;
  config.kernel = kernel_type;
  config.num_threads = 1;

  Rng rng(7000 + static_cast<uint64_t>(kernel_type));
  const Dataset data = SampleStandardGaussian(900, 3, rng);
  Rng probe(77);
  std::vector<std::vector<double>> queries(200, std::vector<double>(3));
  for (auto& q : queries) {
    for (double& v : q) v = probe.Uniform(-4.0, 4.0);
  }

  // One full train + query pass per backend; everything must match to the
  // bit — threshold, densities, labels.
  struct Run {
    double threshold;
    std::vector<double> densities;
    std::vector<Classification> labels;
  };
  auto run_with = [&](SimdBackend backend) {
    ForceSimdBackendForTesting(backend);
    TkdcClassifier classifier(config);
    classifier.Train(data);
    Run run;
    run.threshold = classifier.threshold();
    for (const auto& q : queries) {
      run.densities.push_back(classifier.EstimateDensity(q));
      run.labels.push_back(classifier.Classify(q));
    }
    return run;
  };
  const Run scalar_run = run_with(SimdBackend::kScalar);
  const Run vector_run = run_with(vector_backend_);

  EXPECT_EQ(scalar_run.threshold, vector_run.threshold);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(scalar_run.densities[i], vector_run.densities[i]) << "q " << i;
    EXPECT_EQ(scalar_run.labels[i], vector_run.labels[i]) << "q " << i;
  }
}

// Names keep the "_kdtree" suffix from when a second index existed.
INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndBackends, ForcedBackendEquivalence,
    ::testing::Values(KernelType::kGaussian, KernelType::kEpanechnikov,
                      KernelType::kUniform, KernelType::kBiweight),
    [](const ::testing::TestParamInfo<KernelType>& info) {
      return KernelName(info.param) + "_kdtree";
    });

}  // namespace
}  // namespace tkdc
