#include "tkdc/density_bounds.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "kde/bandwidth.h"
#include "kde/naive_kde.h"

namespace tkdc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fixture {
  Fixture(size_t n, size_t dims, uint64_t seed, TkdcConfig cfg = TkdcConfig())
      : config(cfg) {
    Rng rng(seed);
    data = std::make_unique<Dataset>(SampleStandardGaussian(n, dims, rng));
    kernel = std::make_unique<Kernel>(
        config.kernel,
        SelectBandwidths(config.bandwidth_rule, *data,
                         config.bandwidth_scale));
    tree = std::make_unique<const SpatialIndex>(*data,
                                                config.MakeIndexOptions());
    evaluator = std::make_unique<DensityBoundEvaluator>(
        tree.get(), kernel.get(), &config);
    naive = std::make_unique<NaiveKde>(*data, *kernel);
  }

  TkdcConfig config;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<const SpatialIndex> tree;
  std::unique_ptr<DensityBoundEvaluator> evaluator;
  std::unique_ptr<NaiveKde> naive;
  // Per-test query context: scratch + counters for every BoundDensity call.
  TreeQueryContext ctx;
};

TEST(DensityBoundsTest, UnboundedTraversalIsExact) {
  // With t_lo = 0 and t_hi = inf no pruning rule can fire, so the traversal
  // exhausts the tree and the bounds collapse onto the exact density.
  Fixture f(500, 2, 1);
  for (size_t i = 0; i < 20; ++i) {
    const auto x = f.data->Row(i * 7);
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, x, 0.0, kInf);
    const double exact = f.naive->Density(x);
    EXPECT_NEAR(bounds.lower, exact, 1e-10 * exact + 1e-14);
    EXPECT_NEAR(bounds.upper, exact, 1e-10 * exact + 1e-14);
  }
}

TEST(DensityBoundsTest, BoundsAlwaysBracketExactDensity) {
  Fixture f(1000, 2, 2);
  // Pick a plausible threshold and verify the certified interval contains
  // the truth for a spread of queries (core soundness of Eq. 6/7).
  const double t = 0.01;
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q{rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, q, t, t);
    const double exact = f.naive->Density(q);
    EXPECT_LE(bounds.lower, exact + 1e-12) << "trial " << trial;
    EXPECT_GE(bounds.upper, exact - 1e-12) << "trial " << trial;
  }
}

TEST(DensityBoundsTest, ThresholdRuleStopsEarlyForDensePoints) {
  Fixture f(5000, 2, 4);
  // A point at the mode is far above any small threshold: traversal should
  // touch only a tiny fraction of the tree.
  const std::vector<double> mode{0.0, 0.0};
  const double t = 1e-4;
  f.ctx.stats = TraversalStats();
  const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, mode, t, t);
  EXPECT_GT(bounds.lower, t * (1.0 + f.config.epsilon));
  EXPECT_LT(f.ctx.stats.kernel_evaluations, 2000u);
}

TEST(DensityBoundsTest, ThresholdRuleStopsEarlyForOutliers) {
  Fixture f(5000, 2, 5);
  const std::vector<double> far{40.0, 40.0};
  const double t = 1e-3;
  f.ctx.stats = TraversalStats();
  const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, far, t, t);
  EXPECT_LT(bounds.upper, t * (1.0 - f.config.epsilon));
  // An extreme outlier is certified LOW from the root bound alone.
  EXPECT_LT(f.ctx.stats.kernel_evaluations, 100u);
}

TEST(DensityBoundsTest, PruningSavesWorkVersusExhaustive) {
  Fixture f(5000, 2, 6);
  const double t = 0.02;
  // Near-mode and far queries with pruning.
  f.ctx.stats = TraversalStats();
  f.evaluator->BoundDensity(f.ctx, std::vector<double>{0.1, 0.0}, t, t);
  const uint64_t pruned = f.ctx.stats.kernel_evaluations;
  // Same query unbounded (exhaustive).
  f.ctx.stats = TraversalStats();
  f.evaluator->BoundDensity(f.ctx, std::vector<double>{0.1, 0.0}, 0.0, kInf);
  const uint64_t exhaustive = f.ctx.stats.kernel_evaluations;
  EXPECT_LT(pruned * 4, exhaustive);
}

TEST(DensityBoundsTest, ToleranceRuleBoundsWidth) {
  // Disable the threshold rule: the traversal must still stop once
  // width < eps * t_lo, and the midpoint is then within eps * t of truth.
  TkdcConfig config;
  config.use_threshold_rule = false;
  Fixture f(2000, 2, 7, config);
  const double t = 0.05;
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q{rng.NextGaussian(), rng.NextGaussian()};
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, q, t, t);
    EXPECT_LT(bounds.Width(), config.epsilon * t + 1e-12);
    const double exact = f.naive->Density(q);
    EXPECT_NEAR(bounds.Midpoint(), exact, config.epsilon * t + 1e-12);
  }
}

TEST(DensityBoundsTest, NoRulesMeansExactEverywhere) {
  TkdcConfig config;
  config.use_threshold_rule = false;
  config.use_tolerance_rule = false;
  Fixture f(800, 3, 9, config);
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q{rng.NextGaussian(), rng.NextGaussian(),
                          rng.NextGaussian()};
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, q, 0.5, 0.5);
    const double exact = f.naive->Density(q);
    EXPECT_NEAR(bounds.lower, exact, 1e-10 * exact + 1e-14);
    EXPECT_NEAR(bounds.upper, exact, 1e-10 * exact + 1e-14);
  }
}

TEST(DensityBoundsTest, ClassificationDecisionsAreCorrect) {
  // The end-to-end guarantee: for every query whose exact density is
  // outside t * (1 +- eps), the bounded classification agrees with the
  // exact classification.
  Fixture f(3000, 2, 11);
  const double t = 0.01;
  const double eps = f.config.epsilon;
  Rng rng(12);
  int checked = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    const double exact = f.naive->Density(q);
    if (exact > t * (1.0 - eps) && exact < t * (1.0 + eps)) continue;
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, q, t, t);
    const bool predicted_high = bounds.Midpoint() > t;
    EXPECT_EQ(predicted_high, exact > t)
        << "exact=" << exact << " bounds=[" << bounds.lower << ","
        << bounds.upper << "]";
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

TEST(DensityBoundsTest, StatsAccumulateAcrossQueries) {
  Fixture f(500, 2, 13);
  f.ctx.stats = TraversalStats();
  f.evaluator->BoundDensity(f.ctx, f.data->Row(0), 0.01, 0.01);
  const TraversalStats after_one = f.ctx.stats;
  EXPECT_EQ(after_one.queries, 1u);
  EXPECT_GT(after_one.kernel_evaluations, 0u);
  f.evaluator->BoundDensity(f.ctx, f.data->Row(1), 0.01, 0.01);
  EXPECT_EQ(f.ctx.stats.queries, 2u);
  EXPECT_GE(f.ctx.stats.kernel_evaluations,
            after_one.kernel_evaluations);
}

TEST(DensityBoundsTest, EpanechnikovKernelExactWhenExhausted) {
  TkdcConfig config;
  config.kernel = KernelType::kEpanechnikov;
  Fixture f(600, 2, 14, config);
  for (int i = 0; i < 10; ++i) {
    const auto x = f.data->Row(static_cast<size_t>(i) * 13);
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, x, 0.0, kInf);
    const double exact = f.naive->Density(x);
    EXPECT_NEAR(bounds.Midpoint(), exact, 1e-10 * exact + 1e-14);
  }
}

TEST(DensityBoundsTest, HighDimensionalBoundsStillBracket) {
  Fixture f(400, 10, 15);
  const double t = f.naive->Density(f.data->Row(0)) * 0.5;
  for (int i = 0; i < 10; ++i) {
    const auto x = f.data->Row(static_cast<size_t>(i) * 31);
    const DensityBounds bounds = f.evaluator->BoundDensity(f.ctx, x, t, t);
    const double exact = f.naive->Density(x);
    EXPECT_LE(bounds.lower, exact + 1e-15);
    EXPECT_GE(bounds.upper, exact - 1e-15);
  }
}

}  // namespace
}  // namespace tkdc
