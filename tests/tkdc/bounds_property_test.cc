// Property-based tests of the pruning invariants, driven through the
// TraversalTracer: for randomized datasets, kernels, and thresholds, the
// certified interval must bracket the exact density at EVERY step of the
// traversal (not just at the end), the bounds must tighten monotonically
// as nodes are expanded, the recorded cutoff reason must be consistent
// with the final bounds, and the classifier's label must agree with a
// NaiveKde ground truth whenever the query sits outside the epsilon band.
//
// Volume: 4 kernel families x 300 randomized queries = 1200 traced
// traversals, each checked step by step.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "kde/naive_kde.h"
#include "tkdc/classifier.h"
#include "tkdc/density_bounds.h"
#include "tkdc/traversal_trace.h"

namespace tkdc {
namespace {

constexpr int kQueriesPerKernel = 300;

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

class TracedInvariants : public ::testing::TestWithParam<KernelType> {
 protected:
  KernelType kernel_type() const { return GetParam(); }

  TkdcConfig MakeConfig() const {
    TkdcConfig config;
    config.kernel = kernel_type();
    return config;
  }
};

// The core property: at every traversal step the certified interval
// contains the exact density, and each expansion only tightens it.
TEST_P(TracedInvariants, BoundsBracketAndTightenAtEveryStep) {
  TkdcConfig config = MakeConfig();
  Rng rng(1000 + static_cast<uint64_t>(kernel_type()));
  const Dataset data = SampleStandardGaussian(500, 2, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  NaiveKde naive(data, kernel);

  TreeQueryContext ctx;
  TraversalTracer tracer;
  ctx.tracer = &tracer;

  Rng probe(4242 + static_cast<uint64_t>(kernel_type()));
  std::vector<double> q(2);
  for (int trial = 0; trial < kQueriesPerKernel; ++trial) {
    for (double& v : q) v = probe.Uniform(-3.5, 3.5);
    // Randomize the threshold across many orders of magnitude so every
    // cutoff reason is exercised (tight/loose thresholds, wide bands).
    const double t = std::pow(10.0, probe.Uniform(-6.0, 0.0));
    evaluator.BoundDensity(ctx, q, t, t);
    const double exact = naive.Density(q);
    const double slack = 1e-9 * (1.0 + exact) + 1e-300;

    const std::vector<TraceStep>& steps = tracer.steps();
    ASSERT_FALSE(steps.empty()) << "trial " << trial;
    double prev_lower = -std::numeric_limits<double>::infinity();
    double prev_upper = std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < steps.size(); ++s) {
      const TraceStep& step = steps[s];
      // Soundness: the interval brackets the exact density at every step.
      EXPECT_LE(step.lower, exact + slack)
          << "trial " << trial << " step " << s;
      EXPECT_GE(step.upper, exact - slack)
          << "trial " << trial << " step " << s;
      // Monotonicity: expansions only tighten (fp drift gets the slack).
      EXPECT_GE(step.lower, prev_lower - slack)
          << "trial " << trial << " step " << s;
      EXPECT_LE(step.upper, prev_upper + slack)
          << "trial " << trial << " step " << s;
      EXPECT_LE(step.lower, step.upper + slack)
          << "trial " << trial << " step " << s;
      // Leaf expansions report scanned points; internal expansions none.
      if (s > 0 && step.is_leaf) {
        EXPECT_GT(step.leaf_points, 0u) << "trial " << trial << " step " << s;
      } else {
        EXPECT_EQ(step.leaf_points, 0u) << "trial " << trial << " step " << s;
      }
      prev_lower = step.lower;
      prev_upper = step.upper;
    }
  }
}

// The recorded cutoff reason must agree with the final bounds: each break
// rule's arithmetic condition, re-checked from the outside.
TEST_P(TracedInvariants, CutoffReasonMatchesFinalBounds) {
  TkdcConfig config = MakeConfig();
  Rng rng(2000 + static_cast<uint64_t>(kernel_type()));
  const Dataset data = SampleStandardGaussian(400, 3, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);

  TreeQueryContext ctx;
  TraversalTracer tracer;
  ctx.tracer = &tracer;
  const double eps = config.epsilon;

  Rng probe(7 + static_cast<uint64_t>(kernel_type()));
  std::vector<double> q(3);
  int reasons_seen[4] = {0, 0, 0, 0};
  for (int trial = 0; trial < kQueriesPerKernel; ++trial) {
    for (double& v : q) v = probe.Uniform(-3.0, 3.0);
    const double t = std::pow(10.0, probe.Uniform(-7.0, -1.0));
    const DensityBounds bounds = evaluator.BoundDensity(ctx, q, t, t);
    EXPECT_EQ(tracer.reason(), ctx.last_cutoff) << "trial " << trial;
    switch (tracer.reason()) {
      case CutoffReason::kLowerAboveThreshold:
        EXPECT_GT(bounds.lower, t * (1.0 + eps) * (1.0 - 1e-12))
            << "trial " << trial;
        ++reasons_seen[0];
        break;
      case CutoffReason::kUpperBelowThreshold:
        EXPECT_LT(bounds.upper, t * (1.0 - eps) * (1.0 + 1e-12))
            << "trial " << trial;
        ++reasons_seen[1];
        break;
      case CutoffReason::kTolerance:
        EXPECT_LT(bounds.Width(), eps * t * (1.0 + 1e-12))
            << "trial " << trial;
        ++reasons_seen[2];
        break;
      case CutoffReason::kExactLeaf:
        // Exhausted the tree: the trace must have visited leaves.
        ++reasons_seen[3];
        break;
      default:
        ADD_FAILURE() << "unexpected reason "
                      << CutoffReasonName(tracer.reason()) << " on trial "
                      << trial;
    }
  }
  // The randomized thresholds must exercise both threshold-rule cutoffs.
  EXPECT_GT(reasons_seen[0], 0);
  EXPECT_GT(reasons_seen[1], 0);
}

// With both pruning rules disabled, the traversal must run to exhaustion
// and report kExactLeaf with collapsed (exact) bounds.
TEST_P(TracedInvariants, ExhaustiveTraversalReportsExactLeaf) {
  TkdcConfig config = MakeConfig();
  config.use_threshold_rule = false;
  config.use_tolerance_rule = false;
  Rng rng(3000 + static_cast<uint64_t>(kernel_type()));
  const Dataset data = SampleStandardGaussian(300, 2, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  NaiveKde naive(data, kernel);

  TreeQueryContext ctx;
  TraversalTracer tracer;
  ctx.tracer = &tracer;
  for (size_t i = 0; i < 20; ++i) {
    const auto x = data.Row(i * 13);
    const DensityBounds bounds = evaluator.BoundDensity(ctx, x, 0.5, 0.5);
    EXPECT_EQ(tracer.reason(), CutoffReason::kExactLeaf) << "query " << i;
    const double exact = naive.Density(x);
    EXPECT_NEAR(bounds.Midpoint(), exact, 1e-9 * exact + 1e-300);
    EXPECT_LE(bounds.Width(), 1e-9 * exact + 1e-300);
  }
}

// End-to-end label agreement: whenever the exact density is clearly
// outside the epsilon band around the trained threshold, the classifier's
// label must match the NaiveKde ground truth.
TEST_P(TracedInvariants, LabelsMatchNaiveKdeOutsideEpsilonBand) {
  TkdcConfig config = MakeConfig();
  Rng rng(4000 + static_cast<uint64_t>(kernel_type()));
  const Dataset data = SampleStandardGaussian(1500, 2, rng);
  TkdcClassifier classifier(config);
  classifier.Train(data);
  NaiveKde naive(data, classifier.kernel());
  const double t = classifier.threshold();

  Rng probe(11 + static_cast<uint64_t>(kernel_type()));
  int checked = 0;
  std::vector<double> q(2);
  for (int trial = 0; trial < kQueriesPerKernel; ++trial) {
    for (double& v : q) v = probe.Uniform(-4.0, 4.0);
    const double exact = naive.Density(q);
    // Skip the relative epsilon band around t, plus an absolute noise
    // floor: compact-support kernels can train a threshold that is
    // analytically zero (t ~ 1e-18 of cancellation crud), where comparing
    // midpoints against t is below rounding noise.
    if (std::fabs(exact - t) < 2.5 * config.epsilon * t + 1e-12) continue;
    ++checked;
    EXPECT_EQ(classifier.Classify(q) == Classification::kHigh, exact > t)
        << "trial " << trial << " exact=" << exact << " t=" << t;
  }
  EXPECT_GT(checked, kQueriesPerKernel / 3);
}

// Names keep the "_kdtree" suffix from when a second index existed.
INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndBackends, TracedInvariants,
    ::testing::Values(KernelType::kGaussian, KernelType::kEpanechnikov,
                      KernelType::kUniform, KernelType::kBiweight),
    [](const ::testing::TestParamInfo<KernelType>& info) {
      return KernelName(info.param) + "_kdtree";
    });

// --- Fast-math leaf mode ------------------------------------------------
//
// --fast-math-leaf swaps the Gaussian leaf scan's per-lane std::exp for a
// vectorized polynomial approximation. It is NOT bit-identical to the
// default, so it is gated behind this property: the certified interval of
// an exhaustive fast-math traversal must land within a band around the
// exact density far tighter than the classifier's epsilon tolerance —
// i.e. the approximation error is absorbed by the same slack the
// tolerance rule already grants. The other kernel families ignore the
// flag (their profiles are polynomial), which the suite in
// tests/kde/simd_equivalence_test.cc checks bit-for-bit.
//
// The suite ran once per spatial-index backend when there were two. It
// keeps a one-value parameter, the k-d tree, so its test names read as
// they did.
enum class TreeIndex : uint8_t { kKdTree };
class FastMathLeafBand : public ::testing::TestWithParam<TreeIndex> {};

TEST_P(FastMathLeafBand, ExhaustiveFastMathDensityWithinEpsilonBand) {
  TkdcConfig exact_config;
  exact_config.kernel = KernelType::kGaussian;
  exact_config.use_threshold_rule = false;
  exact_config.use_tolerance_rule = false;
  TkdcConfig fast_config = exact_config;
  fast_config.fast_math_leaf = true;
  Rng rng(6000);
  const Dataset data = SampleStandardGaussian(600, 3, rng);
  Kernel kernel(exact_config.kernel,
                SelectBandwidths(exact_config.bandwidth_rule, data,
                                 exact_config.bandwidth_scale));
  const SpatialIndex tree(data, exact_config.MakeIndexOptions());
  // Two evaluators over the SAME tree: the only difference is the leaf
  // exp. Comparing against the exact-mode evaluator (rather than NaiveKde)
  // isolates the approximation error from summation-order noise, which is
  // shared by both modes and already covered by the exact-mode suites.
  DensityBoundEvaluator exact_evaluator(&tree, &kernel, &exact_config);
  DensityBoundEvaluator fast_evaluator(&tree, &kernel, &fast_config);

  TreeQueryContext exact_ctx, fast_ctx;
  Rng probe(61);
  std::vector<double> q(3);
  // The vectorized exp is accurate to ~1e-14 relative per term; the band
  // enforced here is orders of magnitude inside config.epsilon (1e-2 by
  // default), so fast-math can never flip a label the tolerance rule
  // wouldn't already permit to flip.
  const double band = 1e-12;
  ASSERT_LT(band, exact_config.epsilon);
  for (int trial = 0; trial < kQueriesPerKernel; ++trial) {
    for (double& v : q) v = probe.Uniform(-3.5, 3.5);
    const double exact =
        exact_evaluator.BoundDensity(exact_ctx, q, 0.5, 0.5).Midpoint();
    const double fast =
        fast_evaluator.BoundDensity(fast_ctx, q, 0.5, 0.5).Midpoint();
    EXPECT_NEAR(fast, exact, band * exact + 1e-300) << "trial " << trial;
  }
}

// With pruning re-enabled, fast-math labels agree with the exact-mode
// classifier outside the epsilon band.
TEST_P(FastMathLeafBand, LabelsMatchExactModeOutsideEpsilonBand) {
  TkdcConfig exact_config;
  exact_config.kernel = KernelType::kGaussian;
  TkdcConfig fast_config = exact_config;
  fast_config.fast_math_leaf = true;

  Rng rng(6100);
  const Dataset data = SampleStandardGaussian(1200, 2, rng);
  TkdcClassifier exact_classifier(exact_config);
  exact_classifier.Train(data);
  TkdcClassifier fast_classifier(fast_config);
  fast_classifier.Train(data);
  const double t = exact_classifier.threshold();
  EXPECT_NEAR(fast_classifier.threshold(), t,
              2.0 * exact_config.epsilon * t + 1e-12);

  NaiveKde naive(data, exact_classifier.kernel());
  Rng probe(67);
  int checked = 0;
  std::vector<double> q(2);
  for (int trial = 0; trial < kQueriesPerKernel; ++trial) {
    for (double& v : q) v = probe.Uniform(-4.0, 4.0);
    const double exact = naive.Density(q);
    if (std::fabs(exact - t) < 2.5 * exact_config.epsilon * t + 1e-12) {
      continue;
    }
    ++checked;
    EXPECT_EQ(exact_classifier.Classify(q), fast_classifier.Classify(q))
        << "trial " << trial << " exact=" << exact << " t=" << t;
  }
  EXPECT_GT(checked, kQueriesPerKernel / 3);
}

INSTANTIATE_TEST_SUITE_P(BothBackends, FastMathLeafBand,
                         ::testing::Values(TreeIndex::kKdTree),
                         [](const auto&) { return std::string("kdtree"); });

// The tracer is strictly opt-in: with no tracer attached the traversal
// still records the cutoff reason but captures no steps.
TEST(TraversalTracerTest, DetachedTraversalStillSetsLastCutoff) {
  TkdcConfig config;
  Rng rng(5);
  const Dataset data = SampleStandardGaussian(200, 2, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  TreeQueryContext ctx;
  ASSERT_EQ(ctx.tracer, nullptr);
  EXPECT_EQ(ctx.last_cutoff, CutoffReason::kNone);
  evaluator.BoundDensity(ctx, data.Row(0), 1e-6, 1e-6);
  EXPECT_NE(ctx.last_cutoff, CutoffReason::kNone);
}

TEST(TraversalTracerTest, ReusedTracerClearsPreviousCapture) {
  TkdcConfig config;
  Rng rng(9);
  const Dataset data = SampleStandardGaussian(200, 2, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  const SpatialIndex tree(data, config.MakeIndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  TreeQueryContext ctx;
  TraversalTracer tracer;
  ctx.tracer = &tracer;

  // A hopeless threshold forces a deep traversal; a generous one prunes
  // immediately — the second capture must not contain the first's steps.
  evaluator.BoundDensity(ctx, data.Row(0), 0.0,
                         std::numeric_limits<double>::infinity());
  const size_t deep_steps = tracer.steps().size();
  evaluator.BoundDensity(ctx, data.Row(0), 1e-9, 1e-9);
  EXPECT_LT(tracer.steps().size(), deep_steps);
  EXPECT_EQ(tracer.reason(), ctx.last_cutoff);
}

}  // namespace
}  // namespace tkdc
