#ifndef TKDC_INDEX_SPATIAL_INDEX_H_
#define TKDC_INDEX_SPATIAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/simd.h"
#include "data/dataset.h"
#include "index/bounding_box.h"
#include "index/split_rule.h"

namespace tkdc {

/// Build-time options of the spatial index.
struct IndexOptions {
  /// Maximum points in a leaf before splitting stops.
  size_t leaf_size = 32;
  /// Split-position rule; the paper's tKDC default is the trimmed midpoint.
  SplitRule split_rule = SplitRule::kTrimmedMidpoint;
  /// Split-axis rule; the paper cycles through dimensions per level.
  SplitAxisRule axis_rule = SplitAxisRule::kCycle;
};

/// One node of a spatial index. Nodes are stored in a flat vector; children
/// are referenced by index (-1 marks a leaf), and the build gives a node's
/// two children consecutive ids. Every node knows its point range
/// [begin, end) in the index's reordered point array — the
/// multi-resolution structure of paper Figure 3. The node's bounding box
/// lives in the index's geometry array, keyed by node index.
struct IndexNode {
  size_t begin = 0;
  size_t end = 0;
  int32_t left = -1;
  int32_t right = -1;
  uint8_t split_axis = 0;

  bool is_leaf() const { return left < 0; }
  size_t count() const { return end - begin; }
};

/// Static k-d tree over a dataset (paper Section 3.2, Figure 3): a binary
/// tree whose points are copied and reordered into a contiguous array
/// (leaf scans stay cache-friendly; OriginalIndex() maps back to dataset
/// row ids), with an exact axis-aligned bounding box per node, all boxes
/// in one flat geometry array (node i: min[d] then max[d]). The min/max
/// scaled distances from a query to a box give the kernel contribution
/// bounds of Eq. 6 — tight at low dimension, increasingly slack as the
/// farthest-corner bound grows with d.
///
/// Range collection, k-nearest and the depth scan are implemented here;
/// the tKDC bound evaluator (tkdc/density_bounds.h) drives its own
/// traversal through the same per-node bounds.
class SpatialIndex {
 public:
  /// Builds the tree over `data`. O(n log n). CHECKs the build options
  /// (non-empty data, leaf_size >= 1) so misconfiguration fails loudly at
  /// construction, not mid-traversal. With a `pool`, the nodes of each tree
  /// level are boxed and partitioned on its slots; the result (nodes,
  /// boxes, reordered points) is identical for every pool and for none.
  SpatialIndex(const Dataset& data, IndexOptions options,
               ThreadPool* pool = nullptr);

  /// Restore path (model_io): adopts an already-validated topology plus
  /// the flat per-node box array (the layout geometry() returns) over
  /// already-reordered points. The caller (the model reader) is
  /// responsible for structural validation.
  SpatialIndex(size_t dims, std::vector<double> reordered_points,
               std::vector<size_t> original_index,
               std::vector<IndexNode> nodes, std::vector<double> geometry,
               IndexOptions options);

  SpatialIndex(const SpatialIndex&) = delete;
  SpatialIndex& operator=(const SpatialIndex&) = delete;

  size_t size() const { return size_; }
  size_t dims() const { return dims_; }
  const IndexOptions& options() const { return options_; }

  size_t num_nodes() const { return nodes_.size(); }
  const IndexNode& node(size_t i) const { return nodes_[i]; }
  static constexpr size_t kRoot = 0;
  const IndexNode& root() const { return nodes_[kRoot]; }

  /// Exact bounding box of node `i`'s points, viewed in the geometry array.
  BoundingBox box(size_t i) const {
    return BoundingBox(geometry_.data() + 2 * dims_ * i, dims_);
  }

  /// Every node's box, flat: node i's min[0..d) then max[0..d) start at
  /// 2 * d * i. The model file stores this array as is.
  std::span<const double> geometry() const { return geometry_; }

  /// Coordinates of reordered point `i` (0 <= i < size()).
  std::span<const double> Point(size_t i) const {
    return {points_.data() + i * dims_, dims_};
  }

  /// Dataset row id of reordered point `i`.
  size_t OriginalIndex(size_t i) const { return original_index_[i]; }

  /// Reconstructs the indexed dataset in its *original* row order by
  /// inverting the reordering permutation. The streaming rebuild path uses
  /// this as the base half of base ∪ overlay, so a rebuilt model trains on
  /// the same row order as the original and stays bit-comparable to a
  /// from-scratch retrain.
  Dataset ExportPoints() const;

  /// SoA view of one leaf's points: `dims()` per-dimension arrays of
  /// `padded` doubles each (`block[j * padded + k]` is coordinate j of the
  /// leaf's k-th point). `padded` rounds `count` up to
  /// kSimdBlockWidth; padding lanes hold +infinity so their scaled
  /// distance is +inf and their kernel contribution exactly +0.0 (see
  /// common/simd.h). The blocks mirror the reordered point array — same
  /// points, same order — and are rebuilt from it on model load, never
  /// serialized.
  struct SoaLeaf {
    const double* block;
    size_t padded;
    size_t count;
  };

  /// SoA block of leaf node `node_index` (must be a leaf).
  SoaLeaf LeafSoa(size_t node_index) const {
    const IndexNode& n = nodes_[node_index];
    return {soa_points_.data() + soa_offsets_[node_index],
            SimdPaddedCount(n.count()), n.count()};
  }

  /// Number of leaves / total doubles in the SoA mirror (diagnostics and
  /// the model file's SoA layout descriptor).
  size_t num_soa_leaves() const { return soa_leaf_count_; }
  size_t num_soa_doubles() const { return soa_points_.size(); }

  /// Largest padded leaf count — the scratch size a caller of
  /// LeafScaledSquaredDistances needs.
  size_t max_soa_padded() const { return max_soa_padded_; }

  /// Scaled squared distances from `x` to every point of leaf
  /// `node_index`, written to out[0 .. padded): out[k] corresponds to
  /// reordered point node.begin + k, padding lanes get +inf. Dispatches to
  /// the active SIMD backend; every backend reproduces the scalar
  /// recurrence bit-for-bit (common/simd.h contract).
  void LeafScaledSquaredDistances(size_t node_index, std::span<const double> x,
                                  std::span<const double> inv_bw,
                                  double* out) const;

  /// Smallest possible *scaled* squared distance (per-axis multiplication
  /// by `inv_bw`) from `x` to any point of node `node_index` (0 when the
  /// node's box contains x). A certified lower bound: no point of the
  /// node is closer.
  double NodeMinScaledSquaredDistance(size_t node_index,
                                      std::span<const double> x,
                                      std::span<const double> inv_bw) const {
    return box(node_index).MinScaledSquaredDistance(x, inv_bw);
  }

  /// Certified bounds [z_min, z_max] on the scaled squared distance from
  /// `x` to every point of node `node_index` — the Eq. 6 interval the bound
  /// evaluator turns into kernel contribution bounds.
  void NodeScaledSquaredDistanceBounds(size_t node_index,
                                       std::span<const double> x,
                                       std::span<const double> inv_bw,
                                       double* z_min, double* z_max) const {
    const BoundingBox b = box(node_index);
    *z_min = b.MinScaledSquaredDistance(x, inv_bw);
    *z_max = b.MaxScaledSquaredDistance(x, inv_bw);
  }

  /// Eq. 6 bounds for *both children* of internal node `node_index` in one
  /// vectorized pass: out = {left z_min, left z_max, right z_min,
  /// right z_max}. The best-first traversal always expands both children
  /// together (consecutive ids, so their boxes are one contiguous 4d run);
  /// one lane per bound, dimensions sequential, so the results are
  /// bit-identical to two NodeScaledSquaredDistanceBounds calls
  /// (common/simd.h contract).
  void NodeChildrenScaledSquaredDistanceBounds(size_t node_index,
                                               std::span<const double> x,
                                               std::span<const double> inv_bw,
                                               double out[4]) const {
    const IndexNode& n = nodes_[node_index];
    const double* lb =
        geometry_.data() + 2 * dims_ * static_cast<size_t>(n.left);
    const double* rb =
        geometry_.data() + 2 * dims_ * static_cast<size_t>(n.right);
    simd::BoxPairScaledSquaredDistanceBounds(lb, lb + dims_, rb, rb + dims_,
                                             x.data(), inv_bw.data(), dims_,
                                             out);
  }

  /// Appends to `out` the reordered indices of all points whose scaled
  /// squared distance to `x` is <= `radius_sq`. Used by the rkde
  /// baseline's range queries. Returns the number of point-distance
  /// computations performed (for cost accounting).
  uint64_t CollectWithinScaledRadius(std::span<const double> x,
                                     std::span<const double> inv_bw,
                                     double radius_sq,
                                     std::vector<size_t>* out) const;

  /// Finds the `k` nearest points to `x` under the scaled metric. Fills
  /// `out` with (scaled squared distance, reordered point index) pairs
  /// sorted ascending. Returns the number of distance computations
  /// performed. k is clamped to size().
  uint64_t KNearestScaled(std::span<const double> x,
                          std::span<const double> inv_bw, size_t k,
                          std::vector<std::pair<double, size_t>>* out) const;

  /// Depth of the deepest leaf (root = depth 0). For diagnostics.
  size_t MaxDepth() const;

 private:
  static constexpr size_t kNoSoaBlock = static_cast<size_t>(-1);

  /// Grows the tree level by level. A level's nodes own disjoint row
  /// ranges, so each one's box, split and in-place partition run on
  /// `pool` (inline without one), writing only that range of the points,
  /// the permutation and the one n-double scratch, plus its own entries of
  /// per-level arrays sized before the fork. The nodes are then renumbered
  /// in depth-first order, so the output never depends on the pool.
  /// Build-only state is freed before the first query.
  void BuildTree(ThreadPool* pool);

  /// Partitions rows [begin, end), whose tight box is `box`, into
  /// [begin, mid) and [mid, end) on an axis-aligned plane chosen by
  /// options().split_rule / axis_rule at tree depth `depth`, reordering
  /// rows in place, and returns mid. Returning begin or end refuses the
  /// split and leaves the node an (oversized) leaf — the degenerate-data
  /// escape hatch. Sets *split_axis to the split plane's axis. Touches
  /// only rows [begin, end) and scratch[begin, end).
  size_t PartitionRange(size_t begin, size_t end, size_t depth,
                        BoundingBox box, double* scratch,
                        uint8_t* split_axis);

  /// Swaps reordered rows `a` and `b` (coordinates and the
  /// original-index permutation entry).
  void SwapPoints(size_t a, size_t b);

  /// Builds the SoA leaf mirror from the reordered points. BuildTree()
  /// calls it once the topology is final; the restore constructor calls it
  /// directly (the mirror is derived state, never serialized).
  void BuildLeafSoa();

  size_t dims_ = 0;
  size_t size_ = 0;
  IndexOptions options_;
  std::vector<double> points_;          // Reordered, row-major.
  std::vector<size_t> original_index_;  // Reordered -> dataset row.
  std::vector<IndexNode> nodes_;
  std::vector<double> geometry_;  // Node i's box at 2 * dims_ * i.

  std::vector<double> soa_points_;   // Leaf blocks, per-dim contiguous.
  std::vector<size_t> soa_offsets_;  // Node -> block start (leaves only).
  size_t soa_leaf_count_ = 0;
  size_t max_soa_padded_ = 0;
};

}  // namespace tkdc

#endif  // TKDC_INDEX_SPATIAL_INDEX_H_
