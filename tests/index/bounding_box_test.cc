#include "index/bounding_box.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tkdc {
namespace {

// Flat storage (min[d] then max[d]) of the tight box around `rows`, a
// row-major array of `dims`-dimensional points.
std::vector<double> FitBox(const std::vector<double>& rows, size_t dims) {
  std::vector<double> flat(2 * dims);
  BoundingBox::Fit(rows.data(), dims, 0, rows.size() / dims, flat.data());
  return flat;
}

TEST(BoundingBoxTest, ExtendGrowsBox) {
  // Each row fitted after the first grows the box on the axes it exceeds.
  const std::vector<double> flat = FitBox({1.0, 2.0, -1.0, 5.0}, 2);
  const BoundingBox box(flat.data(), 2);
  EXPECT_DOUBLE_EQ(box.min()[0], -1.0);
  EXPECT_DOUBLE_EQ(box.max()[0], 1.0);
  EXPECT_DOUBLE_EQ(box.min()[1], 2.0);
  EXPECT_DOUBLE_EQ(box.max()[1], 5.0);
}

TEST(BoundingBoxTest, FromPointsTight) {
  const std::vector<double> points{0.0, 0.0, 3.0, -1.0, 1.0, 4.0};
  std::vector<double> flat(4);
  BoundingBox::Fit(points.data(), 2, 0, 3, flat.data());
  const BoundingBox box(flat.data(), 2);
  EXPECT_DOUBLE_EQ(box.min()[0], 0.0);
  EXPECT_DOUBLE_EQ(box.max()[0], 3.0);
  EXPECT_DOUBLE_EQ(box.min()[1], -1.0);
  EXPECT_DOUBLE_EQ(box.max()[1], 4.0);
}

TEST(BoundingBoxTest, FromPointsSubrange) {
  const std::vector<double> points{0.0, 10.0, 20.0, 30.0};
  std::vector<double> flat(2);
  BoundingBox::Fit(points.data(), 1, 1, 3, flat.data());
  const BoundingBox box(flat.data(), 1);
  EXPECT_DOUBLE_EQ(box.min()[0], 10.0);
  EXPECT_DOUBLE_EQ(box.max()[0], 20.0);
}

TEST(BoundingBoxTest, Contains) {
  const std::vector<double> flat = FitBox({0.0, 0.0, 2.0, 2.0}, 2);
  const BoundingBox box(flat.data(), 2);
  EXPECT_TRUE(box.Contains(std::vector<double>{1.0, 1.0}));
  EXPECT_TRUE(box.Contains(std::vector<double>{0.0, 2.0}));  // Boundary.
  EXPECT_FALSE(box.Contains(std::vector<double>{-0.1, 1.0}));
  EXPECT_FALSE(box.Contains(std::vector<double>{1.0, 2.1}));
}

TEST(BoundingBoxTest, MinDistanceZeroInside) {
  const std::vector<double> flat = FitBox({0.0, 0.0, 2.0, 2.0}, 2);
  const BoundingBox box(flat.data(), 2);
  const std::vector<double> inv_bw{1.0, 1.0};
  EXPECT_DOUBLE_EQ(
      box.MinScaledSquaredDistance(std::vector<double>{1.0, 1.0}, inv_bw),
      0.0);
}

TEST(BoundingBoxTest, MinDistanceOutside) {
  const std::vector<double> flat = FitBox({0.0, 0.0, 2.0, 2.0}, 2);
  const BoundingBox box(flat.data(), 2);
  const std::vector<double> inv_bw{1.0, 1.0};
  // Query (4, 3): gaps (2, 1) -> squared distance 5.
  EXPECT_DOUBLE_EQ(
      box.MinScaledSquaredDistance(std::vector<double>{4.0, 3.0}, inv_bw),
      5.0);
}

TEST(BoundingBoxTest, MaxDistanceIsFarthestCorner) {
  const std::vector<double> flat = FitBox({0.0, 0.0, 2.0, 2.0}, 2);
  const BoundingBox box(flat.data(), 2);
  const std::vector<double> inv_bw{1.0, 1.0};
  // From (0, 0) (a corner), farthest is (2, 2): squared distance 8.
  EXPECT_DOUBLE_EQ(
      box.MaxScaledSquaredDistance(std::vector<double>{0.0, 0.0}, inv_bw),
      8.0);
  // From the center, farthest corner is at squared distance 2.
  EXPECT_DOUBLE_EQ(
      box.MaxScaledSquaredDistance(std::vector<double>{1.0, 1.0}, inv_bw),
      2.0);
}

TEST(BoundingBoxTest, BandwidthScalingAffectsDistances) {
  const std::vector<double> flat = FitBox({0.0, 0.0, 1.0, 1.0}, 2);
  const BoundingBox box(flat.data(), 2);
  const std::vector<double> inv_bw{2.0, 0.5};  // h = (0.5, 2).
  // Query (2, 0): gap (1, 0) -> (1*2)^2 = 4.
  EXPECT_DOUBLE_EQ(
      box.MinScaledSquaredDistance(std::vector<double>{2.0, 0.0}, inv_bw),
      4.0);
}

TEST(BoundingBoxTest, ExtentAndWidestAxis) {
  const std::vector<double> flat = FitBox({0.0, 0.0, 0.0, 1.0, 5.0, 3.0}, 3);
  const BoundingBox box(flat.data(), 3);
  EXPECT_DOUBLE_EQ(box.Extent(0), 1.0);
  EXPECT_DOUBLE_EQ(box.Extent(1), 5.0);
  EXPECT_EQ(box.WidestAxis(), 1u);
}

// Property: for random boxes and queries, min <= distance-to-any-contained
// point <= max.
class BoundingBoxDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(BoundingBoxDistanceProperty, BoundsBracketActualDistances) {
  Rng rng(GetParam());
  const size_t d = 3;
  const std::vector<double> inv_bw{1.0, 2.0, 0.5};
  // Random box from two corners (rows 0 and 1).
  std::vector<double> corners(2 * d);
  for (size_t j = 0; j < d; ++j) {
    corners[j] = rng.Uniform(-3.0, 3.0);
    corners[d + j] = rng.Uniform(-3.0, 3.0);
  }
  const std::vector<double> flat = FitBox(corners, d);
  const BoundingBox box(flat.data(), d);
  std::vector<double> query(d);
  for (size_t j = 0; j < d; ++j) query[j] = rng.Uniform(-6.0, 6.0);
  const double z_min = box.MinScaledSquaredDistance(query, inv_bw);
  const double z_max = box.MaxScaledSquaredDistance(query, inv_bw);
  EXPECT_LE(z_min, z_max);
  // Sample points inside the box and verify bracketing.
  for (int trial = 0; trial < 50; ++trial) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      const double p = rng.Uniform(box.min()[j], box.max()[j]);
      const double u = (query[j] - p) * inv_bw[j];
      z += u * u;
    }
    EXPECT_GE(z, z_min - 1e-12);
    EXPECT_LE(z, z_max + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundingBoxDistanceProperty,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace tkdc
