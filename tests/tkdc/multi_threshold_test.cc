#include "tkdc/multi_threshold.h"


#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "data/generators.h"
#include "kde/naive_kde.h"
#include "tkdc/classifier.h"

namespace tkdc {
namespace {

const std::vector<double> kLevels{0.01, 0.1, 0.5};

struct LadderFixture {
  explicit LadderFixture(size_t n = 3000, uint64_t seed = 1)
      : ladder(TkdcConfig(), kLevels) {
    Rng rng(seed);
    data = SampleStandardGaussian(n, 2, rng);
    ladder.Train(data);
  }

  Dataset data{2};
  MultiThresholdClassifier ladder;
};

TEST(MultiThresholdTest, ThresholdsAscendWithLevels) {
  LadderFixture f;
  const auto& thresholds = f.ladder.thresholds();
  ASSERT_EQ(thresholds.size(), kLevels.size());
  for (size_t i = 1; i < thresholds.size(); ++i) {
    EXPECT_GT(thresholds[i], thresholds[i - 1]);
  }
  EXPECT_GT(thresholds[0], 0.0);
}

TEST(MultiThresholdTest, ThresholdsMatchSingleLevelClassifiers) {
  LadderFixture f;
  for (size_t i = 0; i < kLevels.size(); ++i) {
    TkdcConfig config;
    config.p = kLevels[i];
    TkdcClassifier single(config);
    single.Train(f.data);
    EXPECT_NEAR(f.ladder.thresholds()[i], single.threshold(),
                0.03 * single.threshold())
        << "level " << kLevels[i];
  }
}

TEST(MultiThresholdTest, BandsAreMonotoneAlongARay) {
  // Walking outward from the mode, the band can only decrease (density
  // decreases).
  LadderFixture f;
  size_t prev_band = kLevels.size();
  for (double r = 0.0; r <= 6.0; r += 0.5) {
    const size_t band = f.ladder.Band(std::vector<double>{r, 0.0});
    EXPECT_LE(band, prev_band) << "r=" << r;
    prev_band = band;
  }
  EXPECT_EQ(f.ladder.Band(std::vector<double>{0.0, 0.0}), kLevels.size());
  EXPECT_EQ(f.ladder.Band(std::vector<double>{8.0, 0.0}), 0u);
}

TEST(MultiThresholdTest, BandMatchesExactDensityAwayFromContours) {
  LadderFixture f;
  NaiveKde naive(f.data, Kernel(TkdcConfig().kernel,
                                SelectBandwidths(TkdcConfig().bandwidth_rule,
                                                 f.data, 1.0)));
  Rng rng(7);
  int checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> q{rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    const double exact = naive.Density(q);
    // Skip points within 5% of any threshold.
    bool near_contour = false;
    size_t exact_band = 0;
    for (double t : f.ladder.thresholds()) {
      if (std::fabs(exact - t) < 0.05 * t) near_contour = true;
      if (exact >= t) ++exact_band;
    }
    if (near_contour) continue;
    ++checked;
    EXPECT_EQ(f.ladder.Band(q), exact_band)
        << "q=(" << q[0] << "," << q[1] << ") f=" << exact;
  }
  EXPECT_GT(checked, 100);
}

TEST(MultiThresholdTest, QuantileUpperBoundSemantics) {
  LadderFixture f;
  EXPECT_DOUBLE_EQ(f.ladder.QuantileUpperBound(std::vector<double>{9.0, 9.0}),
                   kLevels[0]);
  EXPECT_DOUBLE_EQ(f.ladder.QuantileUpperBound(std::vector<double>{0.0, 0.0}),
                   1.0);
}

TEST(MultiThresholdTest, TrainingBandRatesMatchLevels) {
  LadderFixture f(5000, 3);
  std::vector<size_t> counts(kLevels.size() + 1, 0);
  for (size_t i = 0; i < f.data.size(); ++i) {
    ++counts[f.ladder.BandTraining(f.data.Row(i))];
  }
  // Cumulative fraction below threshold i should be ~levels[i].
  size_t cumulative = 0;
  for (size_t i = 0; i < kLevels.size(); ++i) {
    cumulative += counts[i];
    EXPECT_NEAR(static_cast<double>(cumulative) / f.data.size(), kLevels[i],
                0.03)
        << "level " << kLevels[i];
  }
}

TEST(MultiThresholdTest, SingleLevelDegeneratesToClassifier) {
  Rng rng(4);
  const Dataset data = SampleStandardGaussian(2000, 2, rng);
  MultiThresholdClassifier ladder(TkdcConfig(), {0.01});
  ladder.Train(data);
  TkdcClassifier single;
  single.Train(data);
  // One level trains the same model through the same pass, so the
  // threshold is TkdcClassifier's bit for bit.
  EXPECT_EQ(ladder.thresholds()[0], single.threshold());
  Rng probe(5);
  int agreements = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> q{probe.Uniform(-4.0, 4.0), probe.Uniform(-4.0, 4.0)};
    const bool ladder_high = ladder.Band(q) == 1;
    const bool single_high = single.Classify(q) == Classification::kHigh;
    if (ladder_high == single_high) ++agreements;
  }
  EXPECT_EQ(agreements, 100);
}

TEST(MultiThresholdTest, OneTraversalPerQuery) {
  LadderFixture f;
  const uint64_t before = f.ladder.kernel_evaluations();
  // Classify the same queries through the ladder and through 3 separate
  // classifiers; the ladder must do far less work than 3x.
  std::vector<std::unique_ptr<TkdcClassifier>> singles;
  for (double p : kLevels) {
    TkdcConfig config;
    config.p = p;
    singles.push_back(std::make_unique<TkdcClassifier>(config));
    singles.back()->Train(f.data);
  }
  uint64_t singles_before = 0;
  for (auto& s : singles) singles_before += s->kernel_evaluations();
  Rng rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> q{rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    f.ladder.Band(q);
    for (auto& s : singles) s->Classify(q);
  }
  const uint64_t ladder_cost = f.ladder.kernel_evaluations() - before;
  uint64_t singles_cost = 0;
  for (auto& s : singles) singles_cost += s->kernel_evaluations();
  singles_cost -= singles_before;
  EXPECT_LT(ladder_cost, singles_cost);
}

TEST(MultiThresholdTest, RetrainingReportsTheSameWorkCount) {
  LadderFixture f;
  const uint64_t first = f.ladder.kernel_evaluations();
  EXPECT_GT(first, 0u);
  f.ladder.Train(f.data);
  EXPECT_EQ(f.ladder.kernel_evaluations(), first);
  f.ladder.Train(f.data);
  EXPECT_EQ(f.ladder.kernel_evaluations(), first);
}

}  // namespace
}  // namespace tkdc
