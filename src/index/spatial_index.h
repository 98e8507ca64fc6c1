#ifndef TKDC_INDEX_SPATIAL_INDEX_H_
#define TKDC_INDEX_SPATIAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/simd.h"
#include "data/dataset.h"
#include "index/bounding_box.h"
#include "index/index_backend.h"
#include "index/split_rule.h"

namespace tkdc {

/// Build-time options shared by every index backend.
struct IndexOptions {
  /// Maximum points in a leaf before splitting stops.
  size_t leaf_size = 32;
  /// Split-position rule; the paper's tKDC default is the trimmed midpoint.
  SplitRule split_rule = SplitRule::kTrimmedMidpoint;
  /// Split-axis rule; the paper cycles through dimensions per level.
  SplitAxisRule axis_rule = SplitAxisRule::kCycle;
  /// Backend selected by the BuildIndex factory; concrete constructors
  /// ignore it.
  IndexBackend backend = IndexBackend::kKdTree;
  /// Per-axis metric for the ball tree's centroid/radius geometry (the
  /// kernel's inverse bandwidths, so radii live in the space queries
  /// measure distances in). Empty means the unit metric. The k-d tree
  /// ignores it — boxes are axis-aligned in raw coordinates and scaled at
  /// query time.
  std::vector<double> scale;
};

/// One node of a spatial index. Nodes are stored in a flat vector; children
/// are referenced by index (-1 marks a leaf). Every node knows its point
/// range [begin, end) in the index's reordered point array — the
/// multi-resolution structure of paper Figure 3. Geometry (box or
/// centroid/radius) lives in the backend, keyed by node index.
struct IndexNode {
  size_t begin = 0;
  size_t end = 0;
  int32_t left = -1;
  int32_t right = -1;
  uint8_t split_axis = 0;

  bool is_leaf() const { return left < 0; }
  size_t count() const { return end - begin; }
};

/// Common interface of the spatial-index backends (k-d tree, ball tree):
/// a static binary tree over a dataset whose points are copied and
/// reordered into a contiguous array (leaf scans stay cache-friendly;
/// OriginalIndex() maps back to dataset row ids), plus per-node min/max
/// scaled-distance bounds — the only geometric primitive the traversals
/// need. The layout (flat node vector, contiguous per-node point ranges,
/// one reordering permutation) is shared across backends; how a node's
/// range is partitioned into children is a backend hook, so the k-d tree
/// splits on axis-aligned planes while the ball tree splits metrically
/// along the direction its points actually spread.
///
/// Generic traversals (range collection, k-nearest, depth scan) are
/// implemented once against the virtual bounds. The tKDC bound evaluator
/// (tkdc/density_bounds.h) drives its own traversal through the same
/// primitives.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  SpatialIndex(const SpatialIndex&) = delete;
  SpatialIndex& operator=(const SpatialIndex&) = delete;

  size_t size() const { return size_; }
  size_t dims() const { return dims_; }
  const IndexOptions& options() const { return options_; }

  size_t num_nodes() const { return nodes_.size(); }
  const IndexNode& node(size_t i) const { return nodes_[i]; }
  static constexpr size_t kRoot = 0;
  const IndexNode& root() const { return nodes_[kRoot]; }

  /// Which backend implements this index.
  virtual IndexBackend backend() const = 0;

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
  /// node's region contains x). A certified lower bound: no point of the
  /// node is closer.
  virtual double NodeMinScaledSquaredDistance(
      size_t node_index, std::span<const double> x,
      std::span<const double> inv_bw) const = 0;

  /// Certified bounds [z_min, z_max] on the scaled squared distance from
  /// `x` to every point of node `node_index` — the Eq. 6 interval the bound
  /// evaluator turns into kernel contribution bounds. One call computes
  /// both ends (the ball tree amortizes its centroid distance).
  virtual void NodeScaledSquaredDistanceBounds(size_t node_index,
                                               std::span<const double> x,
                                               std::span<const double> inv_bw,
                                               double* z_min,
                                               double* z_max) const = 0;

  /// Eq. 6 bounds for *both children* of internal node `node_index` in one
  /// call: out = {left z_min, left z_max, right z_min, right z_max}. The
  /// best-first traversal always expands both children together, so
  /// backends override this with one vectorized pass sharing the per-axis
  /// query loads; results are bit-identical to two
  /// NodeScaledSquaredDistanceBounds calls (common/simd.h contract), which
  /// is also the default implementation.
  virtual void NodeChildrenScaledSquaredDistanceBounds(
      size_t node_index, std::span<const double> x,
      std::span<const double> inv_bw, double out[4]) const;

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

 protected:
  /// Copies and prepares the points; derived constructors then call
  /// BuildTree() to grow the shared topology. CHECKs the build options
  /// (non-empty data, leaf_size >= 1) so misconfiguration fails loudly at
  /// construction, not mid-traversal.
  SpatialIndex(const Dataset& data, IndexOptions options);

  /// Restore path (model_io): adopts an already-validated topology over
  /// already-reordered points. The caller (the model reader) is
  /// responsible for structural validation.
  SpatialIndex(size_t dims, std::vector<double> reordered_points,
               std::vector<size_t> original_index,
               std::vector<IndexNode> nodes, IndexOptions options);

  /// Grows the tree: top-down partitioning via the PartitionNode hook.
  /// Invokes SetNodeGeometry(i, box) exactly once per node, with the
  /// node's tight bounding box, before that node is split (so the hook can
  /// use the node's own geometry to choose the partition). The
  /// split-coordinate scratch buffer lives only for the duration of this
  /// call — build-only state is freed before the first query. Called from
  /// derived constructors (after which the derived vtable part is active).
  void BuildTree();

  /// Backend hook: record the geometry of node `node_index`, whose point
  /// range is final. `box` is the tight bounding box of the node's points
  /// (the k-d tree stores it; the ball tree derives its centroid/radius
  /// from the same point range and drops the box).
  virtual void SetNodeGeometry(size_t node_index, const BoundingBox& box) = 0;

  /// Backend hook: partitions node `node_index`'s point range [begin, end)
  /// into children [begin, mid) and [mid, end), reordering rows in place
  /// (use SwapPoints), and returns mid. Returning begin or end refuses the
  /// split and leaves the node an (oversized) leaf — the degenerate-data
  /// escape hatch. Sets *split_axis to the axis recorded on the node (the
  /// k-d tree's split plane; backends that don't split on an axis store
  /// 0). The default implementation is the axis-aligned split driven by
  /// options().split_rule / axis_rule; the ball tree overrides it with a
  /// farthest-pair metric split. `box` is the node's tight bounding box
  /// and `scratch` a reusable build buffer.
  virtual size_t PartitionNode(size_t node_index, size_t depth,
                               const BoundingBox& box,
                               std::vector<double>& scratch,
                               uint8_t* split_axis);

  /// Swaps reordered rows `a` and `b` (coordinates and the
  /// original-index permutation entry). For PartitionNode implementations.
  void SwapPoints(size_t a, size_t b);

  /// Builds the SoA leaf mirror from the reordered points. BuildTree()
  /// calls it once the topology is final; the restore constructor calls it
  /// directly (the mirror is derived state, never serialized). Restore
  /// paths that adopt nodes after base construction must call it again if
  /// they alter topology (none do today).
  void BuildLeafSoa();

  size_t dims_ = 0;
  size_t size_ = 0;
  IndexOptions options_;
  std::vector<double> points_;          // Reordered, row-major.
  std::vector<size_t> original_index_;  // Reordered -> dataset row.
  std::vector<IndexNode> nodes_;

 private:
  static constexpr size_t kNoSoaBlock = static_cast<size_t>(-1);

  std::vector<double> soa_points_;   // Leaf blocks, per-dim contiguous.
  std::vector<size_t> soa_offsets_;  // Node -> block start (leaves only).
  size_t soa_leaf_count_ = 0;
  size_t max_soa_padded_ = 0;

  /// Splits node `node_index` in place (partitioning its point range via
  /// PartitionNode and appending children) unless it is leaf-sized or the
  /// partition refuses. `box` is the node's bounding box; `scratch` is the
  /// reusable build buffer.
  void SplitNode(size_t node_index, size_t depth, const BoundingBox& box,
                 std::vector<double>& scratch);
};

/// Builds the backend selected by `options.backend` over `data`.
std::unique_ptr<const SpatialIndex> BuildIndex(const Dataset& data,
                                               IndexOptions options);

}  // namespace tkdc

#endif  // TKDC_INDEX_SPATIAL_INDEX_H_
