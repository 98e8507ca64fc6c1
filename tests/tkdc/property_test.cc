// Cross-configuration property sweeps: the soundness invariants of the
// bound traversal must hold for every kernel family x split rule x
// dimensionality combination, not just the defaults.

#include <cmath>
#include <limits>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "kde/bandwidth.h"
#include "common/stats.h"
#include "kde/naive_kde.h"
#include "tkdc/classifier.h"
#include "tkdc/density_bounds.h"

namespace tkdc {
namespace {

using Combo = std::tuple<KernelType, SplitRule, size_t>;

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  const auto [kernel, split, dims] = info.param;
  std::string name;
  switch (kernel) {
    case KernelType::kGaussian:
      name = "gaussian";
      break;
    case KernelType::kEpanechnikov:
      name = "epanechnikov";
      break;
    case KernelType::kUniform:
      name = "uniform";
      break;
    case KernelType::kBiweight:
      name = "biweight";
      break;
  }
  name += "_" + SplitRuleName(split) + "_d" + std::to_string(dims);
  return name;
}

class BoundSoundness : public ::testing::TestWithParam<Combo> {};

TEST_P(BoundSoundness, BoundsBracketExactDensityEverywhere) {
  const auto [kernel_type, split_rule, dims] = GetParam();
  TkdcConfig config;
  config.kernel = kernel_type;
  config.split_rule = split_rule;
  Rng rng(static_cast<uint64_t>(dims) * 1009 +
          static_cast<uint64_t>(kernel_type) * 13 +
          static_cast<uint64_t>(split_rule));
  const Dataset data = SampleStandardGaussian(800, dims, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  TreeQueryContext ctx;
  NaiveKde naive(data, kernel);

  // A plausible threshold: a low quantile of a density sample.
  const double t = naive.Density(data.Row(0)) * 0.1 + 1e-300;
  Rng probe(99);
  std::vector<double> q(dims);
  for (int trial = 0; trial < 30; ++trial) {
    for (size_t j = 0; j < dims; ++j) q[j] = probe.Uniform(-4.0, 4.0);
    const DensityBounds bounds = evaluator.BoundDensity(ctx, q, t, t);
    const double exact = naive.Density(q);
    EXPECT_LE(bounds.lower, exact * (1.0 + 1e-9) + 1e-300)
        << "trial " << trial;
    EXPECT_GE(bounds.upper, exact * (1.0 - 1e-9) - 1e-300)
        << "trial " << trial;
  }
}

TEST_P(BoundSoundness, UnboundedTraversalExact) {
  const auto [kernel_type, split_rule, dims] = GetParam();
  TkdcConfig config;
  config.kernel = kernel_type;
  config.split_rule = split_rule;
  Rng rng(static_cast<uint64_t>(dims) * 2027 + 5);
  const Dataset data = SampleStandardGaussian(400, dims, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  TreeQueryContext ctx;
  NaiveKde naive(data, kernel);
  for (size_t i = 0; i < 10; ++i) {
    const auto x = data.Row(i * 37);
    const DensityBounds bounds = evaluator.BoundDensity(
        ctx, x, 0.0, std::numeric_limits<double>::infinity());
    const double exact = naive.Density(x);
    EXPECT_NEAR(bounds.Midpoint(), exact, 1e-9 * exact + 1e-300);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BoundSoundness,
    ::testing::Combine(::testing::Values(KernelType::kGaussian,
                                         KernelType::kEpanechnikov,
                                         KernelType::kBiweight),
                       ::testing::Values(SplitRule::kMedian,
                                         SplitRule::kTrimmedMidpoint),
                       ::testing::Values(1, 2, 5)),
    ComboName);

// End-to-end rate property across kernels: the LOW rate on training data
// tracks p for every kernel family.
class KernelRate : public ::testing::TestWithParam<KernelType> {};

TEST_P(KernelRate, TrainingLowRateTracksP) {
  TkdcConfig config;
  config.kernel = GetParam();
  config.p = 0.05;
  Rng rng(31 + static_cast<uint64_t>(GetParam()));
  const Dataset data = SampleStandardGaussian(3000, 2, rng);
  TkdcClassifier classifier(config);
  classifier.Train(data);
  size_t low = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (classifier.ClassifyTraining(data.Row(i)) == Classification::kLow) {
      ++low;
    }
  }
  EXPECT_NEAR(static_cast<double>(low) / data.size(), 0.05, 0.03)
      << "kernel " << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelRate,
                         ::testing::Values(KernelType::kGaussian,
                                           KernelType::kEpanechnikov,
                                           KernelType::kUniform,
                                           KernelType::kBiweight));

// Epsilon sweep: looser tolerance must never do more traversal work.
class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, ClassificationStillCorrectOutsideBand) {
  const double eps = GetParam();
  TkdcConfig config;
  config.epsilon = eps;
  Rng rng(47);
  const Dataset data = SampleStandardGaussian(2000, 2, rng);
  TkdcClassifier classifier(config);
  classifier.Train(data);
  NaiveKde naive(data, classifier.kernel());
  const double t = classifier.threshold();
  Rng probe(53);
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<double> q{probe.Uniform(-4.0, 4.0), probe.Uniform(-4.0, 4.0)};
    const double exact = naive.Density(q);
    if (std::fabs(exact - t) < 2.5 * eps * t) continue;
    ++checked;
    EXPECT_EQ(classifier.Classify(q) == Classification::kHigh, exact > t)
        << "eps=" << eps << " exact=" << exact << " t=" << t;
  }
  // Wide epsilons exclude most of the probe box; just require a quorum.
  EXPECT_GT(checked, 20);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweep,
                         ::testing::Values(0.001, 0.01, 0.1, 0.5));

// Bootstrap parameter robustness: unusual bootstrap knobs must not break
// the threshold bracket.
struct BootstrapKnobs {
  size_t r0;
  size_t s0;
  double growth;
  const char* label;
};

class BootstrapRobustness
    : public ::testing::TestWithParam<BootstrapKnobs> {};

TEST_P(BootstrapRobustness, ThresholdStaysNearExactQuantile) {
  const BootstrapKnobs& knobs = GetParam();
  TkdcConfig config;
  config.r0 = knobs.r0;
  config.s0 = knobs.s0;
  config.h_growth = knobs.growth;
  Rng rng(61);
  const Dataset data = SampleStandardGaussian(2500, 2, rng);
  TkdcClassifier classifier(config);
  classifier.Train(data);
  NaiveKde naive(data, classifier.kernel());
  std::vector<double> densities(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    densities[i] = naive.TrainingDensity(i);
  }
  const double exact = Quantile(densities, config.p);
  EXPECT_NEAR(classifier.threshold(), exact, 0.05 * exact) << knobs.label;
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, BootstrapRobustness,
    ::testing::Values(BootstrapKnobs{10, 50, 2.0, "tiny_samples"},
                      BootstrapKnobs{200, 20000, 4.0, "paper_defaults"},
                      BootstrapKnobs{1000, 500, 16.0, "fast_growth"},
                      BootstrapKnobs{2, 2, 1.5, "degenerate_minimum"}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
}  // namespace tkdc
