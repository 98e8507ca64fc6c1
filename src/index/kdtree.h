#ifndef TKDC_INDEX_KDTREE_H_
#define TKDC_INDEX_KDTREE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "index/bounding_box.h"
#include "index/spatial_index.h"

namespace tkdc {

/// Static k-d tree over a dataset: the SpatialIndex backend whose per-node
/// geometry is an exact axis-aligned bounding box (paper Figure 3). The
/// min/max scaled distances from a query to the box give the kernel
/// contribution bounds of Eq. 6 — tight at low dimension, increasingly
/// slack as the farthest-corner bound grows with d.
class KdTree : public SpatialIndex {
 public:
  /// Builds the tree over `data` (non-empty). O(n log n).
  KdTree(const Dataset& data, IndexOptions options);

  /// Restore path (model_io): adopts a validated topology plus per-node
  /// boxes over already-reordered points.
  KdTree(size_t dims, std::vector<double> reordered_points,
         std::vector<size_t> original_index, std::vector<IndexNode> nodes,
         std::vector<BoundingBox> boxes, IndexOptions options);

  IndexBackend backend() const override { return IndexBackend::kKdTree; }

  /// Exact bounding box of node `i`'s points.
  const BoundingBox& box(size_t i) const { return boxes_[i]; }

  double NodeMinScaledSquaredDistance(
      size_t node_index, std::span<const double> x,
      std::span<const double> inv_bw) const override {
    return boxes_[node_index].MinScaledSquaredDistance(x, inv_bw);
  }

  void NodeScaledSquaredDistanceBounds(size_t node_index,
                                       std::span<const double> x,
                                       std::span<const double> inv_bw,
                                       double* z_min,
                                       double* z_max) const override {
    const BoundingBox& b = boxes_[node_index];
    *z_min = b.MinScaledSquaredDistance(x, inv_bw);
    *z_max = b.MaxScaledSquaredDistance(x, inv_bw);
  }

  /// Both children's Eq. 6 box bounds in one vectorized pass (one lane per
  /// bound, dimensions sequential — bit-identical to two single-node
  /// calls; see common/simd.h).
  void NodeChildrenScaledSquaredDistanceBounds(
      size_t node_index, std::span<const double> x,
      std::span<const double> inv_bw, double out[4]) const override {
    const IndexNode& n = node(node_index);
    const BoundingBox& lb = boxes_[static_cast<size_t>(n.left)];
    const BoundingBox& rb = boxes_[static_cast<size_t>(n.right)];
    simd::BoxPairScaledSquaredDistanceBounds(
        lb.min().data(), lb.max().data(), rb.min().data(), rb.max().data(),
        x.data(), inv_bw.data(), dims(), out);
  }

 protected:
  void SetNodeGeometry(size_t node_index, const BoundingBox& box) override {
    if (boxes_.size() <= node_index) boxes_.resize(node_index + 1);
    boxes_[node_index] = box;
  }

 private:
  std::vector<BoundingBox> boxes_;  // Parallel to nodes_.
};

}  // namespace tkdc

#endif  // TKDC_INDEX_KDTREE_H_
