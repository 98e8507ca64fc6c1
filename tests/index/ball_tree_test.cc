#include "index/ball_tree.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"

namespace tkdc {
namespace {

IndexOptions SmallLeaves(SplitRule rule = SplitRule::kTrimmedMidpoint) {
  IndexOptions options;
  options.leaf_size = 4;
  options.split_rule = rule;
  return options;
}

TEST(BallTreeTest, SinglePointTree) {
  Dataset data(2, {1.0, 2.0});
  BallTree tree(data, IndexOptions());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.root().is_leaf());
  EXPECT_EQ(tree.Radius(BallTree::kRoot), 0.0);
  EXPECT_DOUBLE_EQ(tree.Centroid(BallTree::kRoot)[0], 1.0);
  EXPECT_DOUBLE_EQ(tree.Centroid(BallTree::kRoot)[1], 2.0);
}

TEST(BallTreeTest, LeafSizeZeroDies) {
  Dataset data(2, {1.0, 2.0, 3.0, 4.0});
  IndexOptions options;
  options.leaf_size = 0;
  EXPECT_DEATH(BallTree(data, options), "leaf_size");
}

// The defining invariant: every point of a node lies within the node's
// ball, measured in the build scale metric.
void CheckBallsContainPoints(const BallTree& tree) {
  const std::vector<double>& scale = tree.scale();
  for (size_t node_index = 0; node_index < tree.num_nodes(); ++node_index) {
    const IndexNode& node = tree.node(node_index);
    const auto centroid = tree.Centroid(node_index);
    const double radius = tree.Radius(node_index);
    for (size_t i = node.begin; i < node.end; ++i) {
      const auto point = tree.Point(i);
      double z = 0.0;
      for (size_t j = 0; j < tree.dims(); ++j) {
        const double u = (point[j] - centroid[j]) * scale[j];
        z += u * u;
      }
      EXPECT_LE(std::sqrt(z), radius * (1.0 + 1e-12) + 1e-12)
          << "point " << i << " outside ball of node " << node_index;
    }
  }
}

class BallTreeInvariants : public ::testing::TestWithParam<SplitRule> {};

TEST_P(BallTreeInvariants, BallsContainPointsOnGaussianData) {
  Rng rng(3);
  Dataset data = SampleStandardGaussian(1000, 3, rng);
  BallTree tree(data, SmallLeaves(GetParam()));
  CheckBallsContainPoints(tree);
}

TEST_P(BallTreeInvariants, BallsContainPointsUnderScaledMetric) {
  Rng rng(4);
  Dataset data = SampleStandardGaussian(800, 3, rng);
  IndexOptions options = SmallLeaves(GetParam());
  options.scale = {2.0, 0.5, 1.0};
  BallTree tree(data, std::move(options));
  EXPECT_EQ(tree.scale(), (std::vector<double>{2.0, 0.5, 1.0}));
  CheckBallsContainPoints(tree);
}

TEST_P(BallTreeInvariants, MetricSplitKeepsContiguousLayout) {
  // The ball tree partitions with farthest-pair pivots, not the k-d
  // tree's axis-aligned planes, but the structural layout contract is the
  // same for every backend: children exactly partition the parent's
  // contiguous point range, every leaf is within leaf_size (splits only
  // refuse on degenerate data, and Gaussian samples have none), and both
  // children are non-empty.
  Rng rng(5);
  Dataset data = SampleStandardGaussian(700, 2, rng);
  const IndexOptions options = SmallLeaves(GetParam());
  BallTree ball(data, options);
  EXPECT_EQ(ball.root().begin, 0u);
  EXPECT_EQ(ball.root().end, 700u);
  for (size_t i = 0; i < ball.num_nodes(); ++i) {
    const IndexNode& node = ball.node(i);
    if (node.is_leaf()) {
      EXPECT_LE(node.count(), options.leaf_size) << "leaf " << i;
      continue;
    }
    const IndexNode& left = ball.node(static_cast<size_t>(node.left));
    const IndexNode& right = ball.node(static_cast<size_t>(node.right));
    EXPECT_EQ(left.begin, node.begin) << "node " << i;
    EXPECT_EQ(left.end, right.begin) << "node " << i;
    EXPECT_EQ(right.end, node.end) << "node " << i;
    EXPECT_GT(left.count(), 0u) << "node " << i;
    EXPECT_GT(right.count(), 0u) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, BallTreeInvariants,
                         ::testing::Values(SplitRule::kMedian,
                                           SplitRule::kMidpoint,
                                           SplitRule::kTrimmedMidpoint),
                         [](const auto& info) {
                           return SplitRuleName(info.param);
                         });

TEST(BallTreeTest, ReorderingIsAPermutation) {
  Rng rng(6);
  Dataset data = SampleStandardGaussian(300, 2, rng);
  BallTree tree(data, SmallLeaves());
  std::set<size_t> seen;
  for (size_t i = 0; i < tree.size(); ++i) {
    const size_t original = tree.OriginalIndex(i);
    EXPECT_TRUE(seen.insert(original).second) << "duplicate " << original;
    const auto tree_point = tree.Point(i);
    const auto data_point = data.Row(original);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(tree_point[j], data_point[j]);
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

// The virtual distance bounds must bracket the true point distances for
// arbitrary query metrics, including ones that differ from the build
// scale (exercising the worst-axis correction).
TEST(BallTreeBoundsTest, DistanceBoundsBracketEveryPoint) {
  Rng rng(7);
  Dataset data = SampleStandardGaussian(500, 3, rng);
  IndexOptions options = SmallLeaves();
  options.scale = {1.5, 1.0, 0.25};
  BallTree tree(data, std::move(options));
  Rng probe(8);
  for (const std::vector<double>& inv_bw :
       {std::vector<double>{1.5, 1.0, 0.25},     // Matches the build scale.
        std::vector<double>{1.0, 1.0, 1.0},      // Unit metric.
        std::vector<double>{3.0, 0.1, 2.0}}) {   // Unrelated metric.
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q{probe.Uniform(-4.0, 4.0), probe.Uniform(-4.0, 4.0),
                            probe.Uniform(-4.0, 4.0)};
      for (size_t node_index = 0; node_index < tree.num_nodes();
           ++node_index) {
        const IndexNode& node = tree.node(node_index);
        double z_min = 0.0, z_max = 0.0;
        tree.NodeScaledSquaredDistanceBounds(node_index, q, inv_bw, &z_min,
                                             &z_max);
        EXPECT_GE(z_min, 0.0);
        EXPECT_LE(z_min, z_max * (1.0 + 1e-12));
        EXPECT_NEAR(tree.NodeMinScaledSquaredDistance(node_index, q, inv_bw),
                    z_min, 1e-12 * (1.0 + z_min));
        for (size_t i = node.begin; i < node.end; ++i) {
          const auto point = tree.Point(i);
          double z = 0.0;
          for (size_t j = 0; j < 3; ++j) {
            const double u = (q[j] - point[j]) * inv_bw[j];
            z += u * u;
          }
          const double slack = 1e-9 * (1.0 + z);
          EXPECT_GE(z, z_min - slack) << "node " << node_index;
          EXPECT_LE(z, z_max + slack) << "node " << node_index;
        }
      }
    }
  }
}

TEST(BallTreeRangeQueryTest, MatchesBruteForce) {
  Rng rng(11);
  Dataset data = SampleStandardGaussian(500, 2, rng);
  BallTree tree(data, SmallLeaves());
  const std::vector<double> inv_bw{2.0, 1.0};
  const std::vector<double> query{0.25, -0.5};
  for (double radius_sq : {0.01, 0.25, 1.0, 4.0, 100.0}) {
    std::vector<size_t> found;
    tree.CollectWithinScaledRadius(query, inv_bw, radius_sq, &found);
    std::set<size_t> found_original;
    for (size_t idx : found) found_original.insert(tree.OriginalIndex(idx));
    std::set<size_t> expected;
    for (size_t i = 0; i < data.size(); ++i) {
      double z = 0.0;
      for (size_t j = 0; j < 2; ++j) {
        const double u = (query[j] - data.At(i, j)) * inv_bw[j];
        z += u * u;
      }
      if (z <= radius_sq) expected.insert(i);
    }
    EXPECT_EQ(found_original, expected) << "radius_sq=" << radius_sq;
  }
}

TEST(BallTreeTest, AllDuplicatePointsBecomeOneZeroRadiusLeaf) {
  Dataset data(2);
  for (int i = 0; i < 100; ++i) data.AppendRow(std::vector<double>{5.0, 5.0});
  BallTree tree(data, SmallLeaves());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.root().is_leaf());
  EXPECT_DOUBLE_EQ(tree.Radius(BallTree::kRoot), 0.0);
  EXPECT_DOUBLE_EQ(tree.Centroid(BallTree::kRoot)[0], 5.0);
}

TEST(BallTreeTest, ChildBallsAreTighterThanParentOnAverage) {
  // No nesting guarantee (a child ball may poke outside its parent), but
  // splitting must shrink the geometry: every child radius is strictly
  // smaller than the root radius on spread-out data.
  Rng rng(12);
  Dataset data = SampleStandardGaussian(2000, 2, rng);
  BallTree tree(data, SmallLeaves());
  const double root_radius = tree.Radius(BallTree::kRoot);
  ASSERT_GT(root_radius, 0.0);
  double total_child = 0.0;
  size_t leaves = 0;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    if (!tree.node(i).is_leaf()) continue;
    total_child += tree.Radius(i);
    ++leaves;
  }
  ASSERT_GT(leaves, 1u);
  EXPECT_LT(total_child / static_cast<double>(leaves), root_radius * 0.5);
}

}  // namespace
}  // namespace tkdc
