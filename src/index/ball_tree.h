#ifndef TKDC_INDEX_BALL_TREE_H_
#define TKDC_INDEX_BALL_TREE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "index/bounding_box.h"
#include "index/spatial_index.h"

namespace tkdc {

/// Ball-tree SpatialIndex backend: each node's geometry is the centroid of
/// its points plus the annulus [r_min, r_max] of centroid distances its
/// points occupy. The same reordered-contiguous-points layout as the k-d
/// tree, but nodes are partitioned metrically (farthest-pair pivots)
/// rather than on axis-aligned planes, and the per-node bound changes: one
/// centroid distance dc gives both ends of the Eq. 6 interval via the
/// triangle inequality, [max(0, dc - r_max, r_min - dc), dc + r_max]. The
/// r_min - dc term is what a plain bounding ball lacks: an internal node
/// spanning several clusters is hollow around its centroid, and queries
/// that land in the hole still get a positive distance floor.
///
/// Radii are measured in the metric given by options.scale (per-axis
/// multipliers; for KDE indexes the kernel's inverse bandwidths, so radii
/// live in the same space queries measure distances in and the bounds are
/// tight). Queries under a different per-axis scaling stay *valid* through
/// the worst-axis correction factor max_j(inv_bw_j / scale_j), merely
/// looser.
///
/// The trade-off against the box: the radius reflects the actual spread of
/// the node's points, while the box's farthest-corner bound grows with the
/// full diagonal — so ball bounds tighten relative to box bounds as
/// dimension rises (the regime where the paper's Fig. 11 sweeps slow
/// down), at the cost of slightly looser minimum-distance bounds at low d.
class BallTree : public SpatialIndex {
 public:
  /// Builds the tree over `data` (non-empty). O(n log n).
  BallTree(const Dataset& data, IndexOptions options);

  /// Restore path (model_io): adopts a validated topology plus per-node
  /// centroids and annulus radii over already-reordered points. `scale`
  /// must have one positive entry per dimension.
  BallTree(size_t dims, std::vector<double> reordered_points,
           std::vector<size_t> original_index, std::vector<IndexNode> nodes,
           std::vector<double> centroids, std::vector<double> radii,
           std::vector<double> radii_min, std::vector<double> scale,
           IndexOptions options);

  IndexBackend backend() const override { return IndexBackend::kBallTree; }

  /// Centroid of node `i`'s points.
  std::span<const double> Centroid(size_t i) const {
    return {centroids_.data() + i * dims_, dims_};
  }

  /// Radius of node `i`'s ball (the farthest centroid distance of its
  /// points), in the build scale metric.
  double Radius(size_t i) const { return radii_[i]; }

  /// Inner annulus radius of node `i` (the nearest centroid distance of
  /// its points), in the build scale metric. Zero for single-point leaves
  /// whose point is the centroid.
  double MinRadius(size_t i) const { return radii_min_[i]; }

  /// The per-axis metric radii are measured in (resolved: always dims()
  /// entries, all ones when options.scale was empty).
  const std::vector<double>& scale() const { return scale_; }

  double NodeMinScaledSquaredDistance(
      size_t node_index, std::span<const double> x,
      std::span<const double> inv_bw) const override;

  void NodeScaledSquaredDistanceBounds(size_t node_index,
                                       std::span<const double> x,
                                       std::span<const double> inv_bw,
                                       double* z_min,
                                       double* z_max) const override;

  /// Both children's Eq. 6 ball bounds from one fused pass that computes
  /// the two centroid distances (one lane each) and the shared metric
  /// correction factors together — bit-identical to two single-node calls
  /// (see common/simd.h).
  void NodeChildrenScaledSquaredDistanceBounds(
      size_t node_index, std::span<const double> x,
      std::span<const double> inv_bw, double out[4]) const override;

 protected:
  void SetNodeGeometry(size_t node_index, const BoundingBox& box) override;

  /// Farthest-pair metric split: pivot A is the point farthest from the
  /// node's centroid, pivot B the point farthest from A (both in the build
  /// metric); the children collect the points nearer their pivot. The
  /// pivot axis tracks the direction the points actually spread — which on
  /// rotated or correlated data no axis-aligned plane can — so the child
  /// balls stay tight where the k-d tree's boxes go slack.
  size_t PartitionNode(size_t node_index, size_t depth,
                       const BoundingBox& box, std::vector<double>& scratch,
                       uint8_t* split_axis) override;

 private:
  /// Centroid distance dc (in the query metric) plus the annulus radii
  /// converted to the query metric, fused into one pass over the
  /// dimensions. The outer radius converts through the worst-axis factor
  /// max_j(inv_bw_j / scale_j) (so dc + r_hi stays an upper bound); the
  /// inner radius through the best-axis factor min_j(inv_bw_j / scale_j)
  /// (so r_lo - dc stays a lower bound). When the query metric equals the
  /// build scale both factors are exactly 1 and the annulus is tight.
  void CentroidDistanceAndRadii(size_t node_index, std::span<const double> x,
                                std::span<const double> inv_bw, double* dc,
                                double* radius_hi, double* radius_lo) const;

  void ResolveScale();

  std::vector<double> centroids_;  // num_nodes x dims, row-major.
  std::vector<double> radii_;      // Parallel to nodes_, in scale_ metric.
  std::vector<double> radii_min_;  // Inner annulus radii, same metric.
  std::vector<double> scale_;      // Build metric, one entry per axis.
  std::vector<double> inv_scale_;  // 1 / scale_, for the query correction.
};

}  // namespace tkdc

#endif  // TKDC_INDEX_BALL_TREE_H_
