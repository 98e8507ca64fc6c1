#include "index/kdtree.h"

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

TEST(KdTreeTest, SinglePointTree) {
  Dataset data(2, {1.0, 2.0});
  KdTree tree(data, IndexOptions());
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.root().is_leaf());
  EXPECT_EQ(tree.root().count(), 1u);
}

TEST(KdTreeTest, RootCoversAllPoints) {
  Rng rng(1);
  Dataset data = SampleStandardGaussian(500, 3, rng);
  KdTree tree(data, SmallLeaves());
  EXPECT_EQ(tree.root().count(), 500u);
  EXPECT_EQ(tree.root().begin, 0u);
  EXPECT_EQ(tree.root().end, 500u);
  for (size_t i = 0; i < tree.size(); ++i) {
    EXPECT_TRUE(tree.box(KdTree::kRoot).Contains(tree.Point(i)));
  }
}

TEST(KdTreeTest, LeafSizeZeroDies) {
  Dataset data(2, {1.0, 2.0, 3.0, 4.0});
  IndexOptions options;
  options.leaf_size = 0;
  EXPECT_DEATH(KdTree(data, options), "leaf_size");
}

TEST(KdTreeTest, ReorderingIsAPermutation) {
  Rng rng(2);
  Dataset data = SampleStandardGaussian(300, 2, rng);
  KdTree tree(data, SmallLeaves());
  std::set<size_t> seen;
  for (size_t i = 0; i < tree.size(); ++i) {
    const size_t original = tree.OriginalIndex(i);
    EXPECT_TRUE(seen.insert(original).second) << "duplicate " << original;
    // The reordered point matches the original row.
    const auto tree_point = tree.Point(i);
    const auto data_point = data.Row(original);
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(tree_point[j], data_point[j]);
    }
  }
  EXPECT_EQ(seen.size(), 300u);
}

// Recursive invariants: children partition the parent range, counts add up,
// child boxes nest inside the parent box, points lie in their node's box.
void CheckNodeInvariants(const KdTree& tree, size_t node_index) {
  const IndexNode& node = tree.node(node_index);
  const BoundingBox& box = tree.box(node_index);
  for (size_t i = node.begin; i < node.end; ++i) {
    EXPECT_TRUE(box.Contains(tree.Point(i)))
        << "point " << i << " outside box of node " << node_index;
  }
  if (node.is_leaf()) {
    if (node.count() > tree.options().leaf_size) {
      // Oversized leaves are only allowed when splitting is impossible:
      // all points identical (zero extent on every axis).
      for (size_t j = 0; j < tree.dims(); ++j) {
        EXPECT_EQ(box.Extent(j), 0.0)
            << "oversized splittable leaf " << node_index;
      }
    }
    return;
  }
  const IndexNode& left = tree.node(static_cast<size_t>(node.left));
  const IndexNode& right = tree.node(static_cast<size_t>(node.right));
  const BoundingBox& left_box = tree.box(static_cast<size_t>(node.left));
  const BoundingBox& right_box = tree.box(static_cast<size_t>(node.right));
  EXPECT_EQ(left.begin, node.begin);
  EXPECT_EQ(left.end, right.begin);
  EXPECT_EQ(right.end, node.end);
  EXPECT_GT(left.count(), 0u);
  EXPECT_GT(right.count(), 0u);
  for (size_t j = 0; j < tree.dims(); ++j) {
    EXPECT_GE(left_box.min()[j], box.min()[j] - 1e-12);
    EXPECT_LE(left_box.max()[j], box.max()[j] + 1e-12);
    EXPECT_GE(right_box.min()[j], box.min()[j] - 1e-12);
    EXPECT_LE(right_box.max()[j], box.max()[j] + 1e-12);
  }
  CheckNodeInvariants(tree, static_cast<size_t>(node.left));
  CheckNodeInvariants(tree, static_cast<size_t>(node.right));
}

class KdTreeInvariants : public ::testing::TestWithParam<SplitRule> {};

TEST_P(KdTreeInvariants, HoldOnGaussianData) {
  Rng rng(3);
  Dataset data = SampleStandardGaussian(1000, 3, rng);
  KdTree tree(data, SmallLeaves(GetParam()));
  CheckNodeInvariants(tree, KdTree::kRoot);
}

TEST_P(KdTreeInvariants, HoldOnClusteredData) {
  Rng rng(4);
  const Mixture mixture =
      RandomGaussianMixture(2, 5, 10.0, 0.1, 1.0, rng);
  Dataset data = mixture.Sample(800, rng);
  KdTree tree(data, SmallLeaves(GetParam()));
  CheckNodeInvariants(tree, KdTree::kRoot);
}

TEST_P(KdTreeInvariants, HoldWithHeavyDuplicates) {
  // Many identical points stress the degenerate-split fallbacks.
  Dataset data(2);
  for (int i = 0; i < 100; ++i) data.AppendRow(std::vector<double>{1.0, 1.0});
  for (int i = 0; i < 50; ++i) data.AppendRow(std::vector<double>{2.0, 3.0});
  KdTree tree(data, SmallLeaves(GetParam()));
  CheckNodeInvariants(tree, KdTree::kRoot);
  EXPECT_EQ(tree.root().count(), 150u);
}

INSTANTIATE_TEST_SUITE_P(AllRules, KdTreeInvariants,
                         ::testing::Values(SplitRule::kMedian,
                                           SplitRule::kMidpoint,
                                           SplitRule::kTrimmedMidpoint),
                         [](const auto& info) {
                           return SplitRuleName(info.param);
                         });

TEST(KdTreeTest, AllDuplicatePointsBecomeOneLeaf) {
  Dataset data(2);
  for (int i = 0; i < 100; ++i) data.AppendRow(std::vector<double>{5.0, 5.0});
  KdTree tree(data, SmallLeaves());
  // Zero extent on every axis: cannot split, stays a single leaf.
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.root().is_leaf());
}

TEST(KdTreeTest, DepthIsLogarithmicForMedianSplits) {
  Rng rng(5);
  Dataset data = SampleStandardGaussian(4096, 2, rng);
  IndexOptions options;
  options.leaf_size = 1;
  options.split_rule = SplitRule::kMedian;
  KdTree tree(data, options);
  // Perfectly balanced would be 12; allow slack for ties.
  EXPECT_LE(tree.MaxDepth(), 20u);
  EXPECT_GE(tree.MaxDepth(), 12u);
}

TEST(KdTreeTest, CycleAxisRuleAlternatesSplitAxes) {
  Rng rng(6);
  Dataset data = SampleStandardGaussian(64, 2, rng);
  IndexOptions options;
  options.leaf_size = 8;
  options.axis_rule = SplitAxisRule::kCycle;
  KdTree tree(data, options);
  EXPECT_EQ(tree.root().split_axis, 0u);
  if (!tree.root().is_leaf()) {
    const IndexNode& left = tree.node(static_cast<size_t>(tree.root().left));
    if (!left.is_leaf()) EXPECT_EQ(left.split_axis, 1u);
  }
}

TEST(KdTreeTest, WidestExtentRuleSplitsDominantAxis) {
  // Data stretched along axis 1 must split axis 1 first.
  Rng rng(7);
  Dataset data(2);
  for (int i = 0; i < 200; ++i) {
    data.AppendRow(
        std::vector<double>{rng.NextGaussian(), 50.0 * rng.NextGaussian()});
  }
  IndexOptions options;
  options.leaf_size = 8;
  options.axis_rule = SplitAxisRule::kWidestExtent;
  KdTree tree(data, options);
  EXPECT_EQ(tree.root().split_axis, 1u);
}

TEST(KdTreeRangeQueryTest, MatchesBruteForce) {
  Rng rng(8);
  Dataset data = SampleStandardGaussian(500, 2, rng);
  KdTree tree(data, SmallLeaves());
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

TEST(KdTreeRangeQueryTest, EmptyResultFarAway) {
  Rng rng(9);
  Dataset data = SampleStandardGaussian(100, 2, rng);
  KdTree tree(data, SmallLeaves());
  std::vector<size_t> found;
  tree.CollectWithinScaledRadius(std::vector<double>{100.0, 100.0},
                                 std::vector<double>{1.0, 1.0}, 1.0, &found);
  EXPECT_TRUE(found.empty());
}

TEST(KdTreeRangeQueryTest, WholeBoxShortcutCountsNoDistances) {
  // A giant radius takes every point via the containment shortcut, so the
  // reported distance computations stay small.
  Rng rng(10);
  Dataset data = SampleStandardGaussian(1000, 2, rng);
  KdTree tree(data, SmallLeaves());
  std::vector<size_t> found;
  const uint64_t distance_computations = tree.CollectWithinScaledRadius(
      std::vector<double>{0.0, 0.0}, std::vector<double>{1.0, 1.0}, 1e12,
      &found);
  EXPECT_EQ(found.size(), 1000u);
  EXPECT_EQ(distance_computations, 0u);
}

TEST(KdTreeTest, LargeLeafSizeMakesShallowTree) {
  Rng rng(11);
  Dataset data = SampleStandardGaussian(1000, 2, rng);
  IndexOptions options;
  options.leaf_size = 1000;
  KdTree tree(data, options);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

}  // namespace
}  // namespace tkdc
