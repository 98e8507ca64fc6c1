#include "baselines/knn.h"

#include <cmath>
#include <cstdint>
#include <numbers>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"

namespace tkdc {
namespace {

TEST(KnnClassifierTest, NameAndBasicClassification) {
  Rng rng(1);
  const Dataset data = SampleStandardGaussian(3000, 2, rng);
  KnnClassifier classifier;
  EXPECT_EQ(classifier.name(), "knn");
  classifier.Train(data);
  EXPECT_EQ(classifier.Classify(std::vector<double>{0.0, 0.0}),
            Classification::kHigh);
  EXPECT_EQ(classifier.Classify(std::vector<double>{8.0, 8.0}),
            Classification::kLow);
}

TEST(KnnClassifierTest, KthNeighborDistanceMatchesBruteForce) {
  Rng rng(2);
  const Dataset data = SampleStandardGaussian(500, 2, rng);
  KnnOptions options;
  options.k = 5;
  KnnClassifier classifier(options);
  classifier.Train(data);
  Rng probe_rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q{probe_rng.NextGaussian(), probe_rng.NextGaussian()};
    // Brute force 5th smallest distance.
    std::vector<double> distances;
    for (size_t i = 0; i < data.size(); ++i) {
      double z = 0.0;
      for (size_t j = 0; j < 2; ++j) {
        const double delta = q[j] - data.At(i, j);
        z += delta * delta;
      }
      distances.push_back(std::sqrt(z));
    }
    std::sort(distances.begin(), distances.end());
    EXPECT_NEAR(classifier.KthNeighborDistance(q, /*training=*/false),
                distances[4], 1e-12)
        << "trial " << trial;
  }
}

TEST(KnnClassifierTest, TrainingModeSkipsSelfMatch) {
  Rng rng(4);
  const Dataset data = SampleStandardGaussian(300, 2, rng);
  KnnOptions options;
  options.k = 1;
  KnnClassifier classifier(options);
  classifier.Train(data);
  // For a training point, k=1 with self-exclusion is the nearest *other*
  // point, so the distance is strictly positive.
  EXPECT_GT(classifier.KthNeighborDistance(data.Row(0), /*training=*/true),
            0.0);
  // Without self-exclusion it is the point itself.
  EXPECT_EQ(classifier.KthNeighborDistance(data.Row(0), /*training=*/false),
            0.0);
}

TEST(KnnClassifierTest, DensityEstimateConvergesOnUniformData) {
  // On Uniform([0,1]^2) the true density is 1 everywhere; the kNN estimate
  // at interior points should be in the right ballpark.
  Rng rng(5);
  const Dataset data = SampleUniformBox(20000, 2, 0.0, 1.0, rng);
  KnnOptions options;
  options.k = 50;
  KnnClassifier classifier(options);
  classifier.Train(data);
  const double estimate =
      classifier.EstimateDensity(std::vector<double>{0.5, 0.5});
  EXPECT_GT(estimate, 0.5);
  EXPECT_LT(estimate, 2.0);
}

TEST(KnnClassifierTest, LowRateNearP) {
  Rng rng(6);
  const Dataset data = SampleStandardGaussian(4000, 2, rng);
  KnnOptions options;
  options.p = 0.05;
  KnnClassifier classifier(options);
  classifier.Train(data);
  size_t low = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (classifier.ClassifyTraining(data.Row(i)) == Classification::kLow) {
      ++low;
    }
  }
  EXPECT_NEAR(static_cast<double>(low) / data.size(), 0.05, 0.02);
}

TEST(KnnClassifierTest, DuplicateHeavyDataDoesNotCrash) {
  // 200 exact duplicates (zero kNN radius -> maximal density) plus a
  // scattered background.
  Dataset data(2);
  for (int i = 0; i < 200; ++i) data.AppendRow(std::vector<double>{1.0, 1.0});
  Rng rng(42);
  for (int i = 0; i < 100; ++i) {
    data.AppendRow(std::vector<double>{rng.Uniform(-20.0, 20.0),
                                       rng.Uniform(-20.0, 20.0)});
  }
  KnnClassifier classifier;
  classifier.Train(data);
  EXPECT_EQ(classifier.ClassifyTraining(std::vector<double>{1.0, 1.0}),
            Classification::kHigh);
  // A far-away probe is LOW.
  EXPECT_EQ(classifier.Classify(std::vector<double>{100.0, 100.0}),
            Classification::kLow);
}

TEST(KnnClassifierTest, DistanceComputationsSublinear) {
  Rng rng(7);
  const Dataset data = SampleStandardGaussian(20000, 2, rng);
  KnnClassifier classifier;
  classifier.Train(data);
  const uint64_t before = classifier.kernel_evaluations();
  for (int i = 0; i < 100; ++i) {
    classifier.Classify(data.Row(static_cast<size_t>(i) * 199));
  }
  const double per_query =
      static_cast<double>(classifier.kernel_evaluations() - before) / 100.0;
  // A kNN query should touch far fewer than all n points.
  EXPECT_LT(per_query, 2000.0);
}

// The suite ran once per spatial-index backend when there were two. It
// keeps a one-value parameter, the k-d tree, so its test names read as
// they did.
enum class TreeIndex : uint8_t { kKdTree };
class IndexKnnTest : public ::testing::TestWithParam<TreeIndex> {};

TEST_P(IndexKnnTest, ExactnessUnderScaledMetric) {
  Rng rng(8);
  const Dataset data = SampleStandardGaussian(400, 3, rng);
  const SpatialIndex tree(data, IndexOptions());
  const std::vector<double> inv_bw{2.0, 1.0, 0.5};
  const std::vector<double> q{0.2, -0.4, 1.0};
  std::vector<std::pair<double, size_t>> found;
  tree.KNearestScaled(q, inv_bw, 7, &found);
  ASSERT_EQ(found.size(), 7u);
  // Ascending order.
  for (size_t i = 1; i < found.size(); ++i) {
    EXPECT_GE(found[i].first, found[i - 1].first);
  }
  // Matches brute force.
  std::vector<double> all;
  for (size_t i = 0; i < data.size(); ++i) {
    double z = 0.0;
    for (size_t j = 0; j < 3; ++j) {
      const double u = (q[j] - data.At(i, j)) * inv_bw[j];
      z += u * u;
    }
    all.push_back(z);
  }
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_NEAR(found[i].first, all[i], 1e-12);
  }
}

TEST_P(IndexKnnTest, KClampedToDatasetSize) {
  Rng rng(9);
  const Dataset data = SampleStandardGaussian(10, 2, rng);
  const SpatialIndex tree(data, IndexOptions());
  std::vector<std::pair<double, size_t>> found;
  tree.KNearestScaled(data.Row(0), std::vector<double>{1.0, 1.0}, 100, &found);
  EXPECT_EQ(found.size(), 10u);
}

TEST_P(IndexKnnTest, KZeroReturnsEmpty) {
  Rng rng(10);
  const Dataset data = SampleStandardGaussian(10, 2, rng);
  const SpatialIndex tree(data, IndexOptions());
  std::vector<std::pair<double, size_t>> found{{1.0, 2}};
  tree.KNearestScaled(data.Row(0), std::vector<double>{1.0, 1.0}, 0, &found);
  EXPECT_TRUE(found.empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, IndexKnnTest,
                         ::testing::Values(TreeIndex::kKdTree),
                         [](const auto&) { return std::string("kdtree"); });

}  // namespace
}  // namespace tkdc
