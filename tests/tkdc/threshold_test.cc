#include "tkdc/threshold.h"

#include <algorithm>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "kde/naive_kde.h"

namespace tkdc {
namespace {

struct BootstrapFixture {
  BootstrapFixture(size_t n, size_t dims, uint64_t seed,
                   TkdcConfig cfg = TkdcConfig()) {
    Rng rng(seed);
    Init(SampleStandardGaussian(n, dims, rng), seed, cfg);
  }

  BootstrapFixture(Dataset points, uint64_t seed, TkdcConfig cfg) {
    Init(std::move(points), seed, cfg);
  }

  void Init(Dataset points, uint64_t seed, const TkdcConfig& cfg) {
    config = cfg;
    config.seed = seed;
    data = std::make_unique<Dataset>(std::move(points));
    kernel = std::make_unique<Kernel>(
        config.kernel, SelectBandwidths(config.bandwidth_rule, *data,
                                        config.bandwidth_scale));
    tree = std::make_unique<const SpatialIndex>(*data,
                                                config.MakeIndexOptions());
  }

  // Exact threshold t(p): the p-quantile of self-corrected exact training
  // densities (Eq. 1).
  double ExactThreshold() const {
    NaiveKde naive(*data, *kernel);
    return Quantile(naive.AllTrainingDensities(), config.p);
  }

  TkdcConfig config;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<const SpatialIndex> tree;
};

TEST(ThresholdBootstrapTest, BoundsBracketExactThreshold) {
  BootstrapFixture f(3000, 2, 1);
  ThresholdEstimator estimator(&f.config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  const double exact = f.ExactThreshold();
  EXPECT_GT(result.upper, 0.0);
  EXPECT_LE(result.lower, result.upper);
  // With delta = 0.01 this holds essentially always; allow the epsilon
  // tolerance of the density bounds.
  EXPECT_LE(result.lower * (1.0 - 2.0 * f.config.epsilon), exact);
  EXPECT_GE(result.upper * (1.0 + 2.0 * f.config.epsilon), exact);
}

TEST(ThresholdBootstrapTest, BoundsAreReasonablyTight) {
  BootstrapFixture f(5000, 2, 2);
  ThresholdEstimator estimator(&f.config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  // The final iteration runs on the full data with s = min(s0, n) query
  // points; the order-statistic spread at p = 0.01 should keep the ratio
  // well under 3x on Gaussian data.
  EXPECT_LT(result.upper / result.lower, 3.0);
}

TEST(ThresholdBootstrapTest, IterationCountMatchesGrowthSchedule) {
  // n = 3200, r0 = 200, growth 4: levels 200, 800, 3200 -> 3 iterations
  // minimum (plus any backoffs).
  BootstrapFixture f(3200, 2, 3);
  ThresholdEstimator estimator(&f.config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  EXPECT_GE(result.iterations, 3u);
  EXPECT_LE(result.iterations, 3u + result.backoffs);
}

TEST(ThresholdBootstrapTest, TinyDatasetSingleLevel) {
  BootstrapFixture f(150, 2, 4);  // n < r0: starts at r = n.
  ThresholdEstimator estimator(&f.config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_GT(result.upper, 0.0);
}

class ThresholdBootstrapSweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(ThresholdBootstrapSweep, BoundsBracketAcrossPAndSeeds) {
  const auto [p, seed] = GetParam();
  TkdcConfig config;
  config.p = p;
  BootstrapFixture f(2000, 2, seed, config);
  ThresholdEstimator estimator(&f.config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  const double exact = f.ExactThreshold();
  EXPECT_LE(result.lower * (1.0 - 2.0 * f.config.epsilon), exact)
      << "p=" << p << " seed=" << seed;
  EXPECT_GE(result.upper * (1.0 + 2.0 * f.config.epsilon), exact)
      << "p=" << p << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThresholdBootstrapSweep,
    ::testing::Combine(::testing::Values(0.01, 0.05, 0.25, 0.5),
                       ::testing::Values(5, 6, 7)));

TEST(ThresholdBootstrapTest, MultiModalDataStillBracketed) {
  TkdcConfig config;
  config.seed = 8;
  Rng rng(8);
  const Mixture mixture = RandomGaussianMixture(2, 4, 6.0, 0.3, 1.0, rng);
  Dataset data = mixture.Sample(3000, rng);
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data, 1.0));
  IndexOptions options;
  options.leaf_size = config.leaf_size;
  SpatialIndex tree(data, options);
  ThresholdEstimator estimator(&config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(data, tree, kernel);
  NaiveKde naive(data, kernel);
  const double exact = Quantile(naive.AllTrainingDensities(), config.p);
  EXPECT_LE(result.lower * (1.0 - 2.0 * config.epsilon), exact);
  EXPECT_GE(result.upper * (1.0 + 2.0 * config.epsilon), exact);
}

TEST(ThresholdBootstrapTest, DeterministicGivenSeed) {
  BootstrapFixture f1(1000, 2, 9);
  BootstrapFixture f2(1000, 2, 9);
  ThresholdEstimator e1(&f1.config);
  ThresholdEstimator e2(&f2.config);
  const auto r1 = e1.Bootstrap(*f1.data, *f1.tree, *f1.kernel);
  const auto r2 = e2.Bootstrap(*f2.data, *f2.tree, *f2.kernel);
  EXPECT_DOUBLE_EQ(r1.lower, r2.lower);
  EXPECT_DOUBLE_EQ(r1.upper, r2.upper);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

TEST(ThresholdBootstrapTest, StatsAreCollected) {
  BootstrapFixture f(1000, 2, 10);
  ThresholdEstimator estimator(&f.config);
  const auto result = estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  EXPECT_GT(result.stats.kernel_evaluations, 0u);
  EXPECT_GT(result.stats.queries, 0u);
}

TEST(ThresholdBootstrapTest, IdenticalAcrossThreadCounts) {
  // n = 12,800 runs the levels r = 200, 800, 3,200 and 12,800. From r = 800
  // on, the sample splits into several chunks per slot even at 8 threads,
  // so slots interleave their writes into the density vector.
  ThresholdBootstrapResult serial;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    TkdcConfig config;
    config.num_threads = threads;
    BootstrapFixture f(12800, 2, 11, config);
    ThresholdEstimator estimator(&f.config);
    const ThresholdBootstrapResult result =
        estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
    if (threads == 1) {
      serial = result;
      EXPECT_EQ(result.iterations, 4u + result.backoffs);
      continue;
    }
    EXPECT_EQ(result.lower, serial.lower);
    EXPECT_EQ(result.upper, serial.upper);
    EXPECT_EQ(result.iterations, serial.iterations);
    EXPECT_EQ(result.backoffs, serial.backoffs);
    EXPECT_EQ(result.stats.kernel_evaluations,
              serial.stats.kernel_evaluations);
    EXPECT_EQ(result.stats.nodes_expanded, serial.stats.nodes_expanded);
    EXPECT_EQ(result.stats.leaf_points_evaluated,
              serial.stats.leaf_points_evaluated);
    EXPECT_EQ(result.stats.queries, serial.stats.queries);
  }
}

TEST(ThresholdBootstrapTest, ZeroUpperRankDoesNotExhaustBackoffs) {
  // A compact kernel leaves more than p of a small subsample's densities at
  // 0, so the level's upper confidence rank is 0 (here tmy3 d=4) or
  // round-off, and the next level runs under that t_hi. Multiplying by
  // h_backoff never lifts 0 and needs ~20 steps from round-off: this
  // bootstrap used 31 backoffs before the backoff grew t_hi to the rank it
  // missed.
  TkdcConfig config;
  config.kernel = KernelType::kEpanechnikov;
  config.num_threads = 1;
  BootstrapFixture f(MakeDataset(DatasetId::kTmy3, 5000, 4, 1), 1, config);
  ThresholdEstimator estimator(&f.config);
  const ThresholdBootstrapResult result =
      estimator.Bootstrap(*f.data, *f.tree, *f.kernel);
  EXPECT_LE(result.backoffs, 4u);
  EXPECT_GE(result.upper, result.lower);
  EXPECT_GT(result.upper, 0.0);
}

}  // namespace
}  // namespace tkdc
