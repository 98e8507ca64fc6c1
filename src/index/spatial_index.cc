#include "index/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace tkdc {

SpatialIndex::SpatialIndex(const Dataset& data, IndexOptions options,
                           ThreadPool* pool)
    : dims_(data.dims()), size_(data.size()), options_(std::move(options)) {
  TKDC_CHECK(!data.empty());
  TKDC_CHECK_MSG(options_.leaf_size >= 1, "index leaf_size must be >= 1");
  points_ = data.values();
  original_index_.resize(size_);
  for (size_t i = 0; i < size_; ++i) original_index_[i] = i;
  BuildTree(pool);
}

SpatialIndex::SpatialIndex(size_t dims, std::vector<double> reordered_points,
                           std::vector<size_t> original_index,
                           std::vector<IndexNode> nodes,
                           std::vector<double> geometry, IndexOptions options)
    : dims_(dims),
      size_(original_index.size()),
      options_(std::move(options)),
      points_(std::move(reordered_points)),
      original_index_(std::move(original_index)),
      nodes_(std::move(nodes)),
      geometry_(std::move(geometry)) {
  TKDC_CHECK(dims_ >= 1 && size_ >= 1);
  TKDC_CHECK(points_.size() == size_ * dims_);
  TKDC_CHECK(!nodes_.empty());
  TKDC_CHECK(geometry_.size() == 2 * dims_ * nodes_.size());
  TKDC_CHECK_MSG(options_.leaf_size >= 1, "index leaf_size must be >= 1");
  // The SoA mirror is derived state: rebuilt from the restored reordered
  // points, never read from the model payload.
  BuildLeafSoa();
}

void SpatialIndex::BuildTree(ThreadPool* pool) {
  const size_t box_size = 2 * dims_;
  // Build order: level by level, each split appending its children as a
  // consecutive pair. A binary tree with ceil(n / leaf) leaves has
  // < 4 * n / leaf nodes.
  std::vector<IndexNode> built;
  built.reserve(4 * (size_ / options_.leaf_size + 1));
  built.push_back(IndexNode{.begin = 0, .end = size_});
  std::vector<double> built_geometry;
  // Split-coordinate scratch: node [begin, end) uses scratch[begin, end),
  // so the nodes of one level never touch the same entries.
  std::vector<double> scratch(size_);
  std::vector<size_t> mids;  // Per level; 0 = the node stays a leaf.
  size_t level_begin = 0;
  for (size_t depth = 0; level_begin < built.size(); ++depth) {
    const size_t level_end = built.size();
    built_geometry.resize(level_end * box_size);
    mids.assign(level_end - level_begin, 0);
    ParallelFor(pool, level_end - level_begin, 1,
                [&](size_t, size_t first, size_t last) {
      for (size_t k = first; k < last; ++k) {
        IndexNode& node = built[level_begin + k];
        double* flat = built_geometry.data() + (level_begin + k) * box_size;
        // The node's point set is final once it exists (its own partition
        // only reorders within the range), so the box is computed before
        // splitting and both see the same points.
        BoundingBox::Fit(points_.data(), dims_, node.begin, node.end, flat);
        if (node.count() <= options_.leaf_size) continue;
        uint8_t split_axis = 0;
        const size_t mid =
            PartitionRange(node.begin, node.end, depth,
                           BoundingBox(flat, dims_), scratch.data(),
                           &split_axis);
        if (mid <= node.begin || mid >= node.end) continue;  // Refused.
        node.split_axis = split_axis;
        mids[k] = mid;
      }
    });
    for (size_t k = 0; k < mids.size(); ++k) {
      if (mids[k] == 0) continue;
      const size_t parent = level_begin + k;
      const IndexNode left{.begin = built[parent].begin, .end = mids[k]};
      const IndexNode right{.begin = mids[k], .end = built[parent].end};
      built[parent].left = static_cast<int32_t>(built.size());
      built[parent].right = static_cast<int32_t>(built.size() + 1);
      built.push_back(left);
      built.push_back(right);
    }
    level_begin = level_end;
  }

  // Renumber into depth-first order: replay a stack that pops a node,
  // gives its children the next two ids and pushes left then right. That
  // is the order in which a one-thread depth-first build creates nodes, so
  // ids, boxes and saved model bytes do not depend on how the levels ran.
  std::vector<int32_t> id(built.size());
  int32_t next_id = 1;
  std::vector<size_t> stack{kRoot};
  while (!stack.empty()) {
    const IndexNode& node = built[stack.back()];
    stack.pop_back();
    if (node.is_leaf()) continue;
    id[static_cast<size_t>(node.left)] = next_id++;
    id[static_cast<size_t>(node.right)] = next_id++;
    stack.push_back(static_cast<size_t>(node.left));
    stack.push_back(static_cast<size_t>(node.right));
  }
  nodes_.resize(built.size());
  geometry_.resize(built_geometry.size());
  for (size_t b = 0; b < built.size(); ++b) {
    IndexNode node = built[b];
    if (!node.is_leaf()) {
      node.left = id[static_cast<size_t>(node.left)];
      node.right = id[static_cast<size_t>(node.right)];
    }
    const size_t to = static_cast<size_t>(id[b]);
    nodes_[to] = node;
    std::copy_n(built_geometry.data() + b * box_size, box_size,
                geometry_.data() + to * box_size);
  }
  BuildLeafSoa();
}

void SpatialIndex::BuildLeafSoa() {
  soa_offsets_.assign(nodes_.size(), kNoSoaBlock);
  soa_leaf_count_ = 0;
  max_soa_padded_ = 0;
  size_t total = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_leaf()) continue;
    const size_t padded = SimdPaddedCount(nodes_[i].count());
    soa_offsets_[i] = total;
    total += padded * dims_;
    max_soa_padded_ = std::max(max_soa_padded_, padded);
    ++soa_leaf_count_;
  }
  // Fill with +infinity first so padding lanes need no special-casing in
  // the transpose below.
  soa_points_.assign(total, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const IndexNode& node = nodes_[i];
    if (!node.is_leaf()) continue;
    const size_t padded = SimdPaddedCount(node.count());
    double* block = soa_points_.data() + soa_offsets_[i];
    for (size_t k = 0; k < node.count(); ++k) {
      const double* p = points_.data() + (node.begin + k) * dims_;
      for (size_t j = 0; j < dims_; ++j) block[j * padded + k] = p[j];
    }
  }
}

void SpatialIndex::LeafScaledSquaredDistances(size_t node_index,
                                              std::span<const double> x,
                                              std::span<const double> inv_bw,
                                              double* out) const {
  const SoaLeaf leaf = LeafSoa(node_index);
  simd::SoaScaledSquaredDistances(leaf.block, leaf.padded, leaf.count, dims_,
                                  x.data(), inv_bw.data(), out);
}

void SpatialIndex::SwapPoints(size_t a, size_t b) {
  if (a == b) return;
  for (size_t j = 0; j < dims_; ++j) {
    std::swap(points_[a * dims_ + j], points_[b * dims_ + j]);
  }
  std::swap(original_index_[a], original_index_[b]);
}

size_t SpatialIndex::PartitionRange(size_t begin, size_t end, size_t depth,
                                    BoundingBox box, double* scratch,
                                    uint8_t* split_axis) {
  const size_t count = end - begin;

  // Choose the split axis: cycle by level, or widest box extent. Either
  // way, fall through to other axes if the chosen one is degenerate
  // (zero extent).
  size_t axis = options_.axis_rule == SplitAxisRule::kCycle
                    ? depth % dims_
                    : box.WidestAxis();
  if (box.Extent(axis) <= 0.0) {
    axis = box.WidestAxis();
    if (box.Extent(axis) <= 0.0) return begin;  // All points identical.
  }

  // Gather this node's coordinates along the axis and compute the split
  // position with the configured rule.
  double* values = scratch + begin;
  for (size_t i = 0; i < count; ++i) {
    values[i] = points_[(begin + i) * dims_ + axis];
  }
  double split = ComputeSplitPosition(options_.split_rule, values, count);

  // Partition rows: left gets coord < split. If that is degenerate (all on
  // one side), fall back to the median, then to strict inequality around
  // it, which always separates a non-degenerate axis.
  auto partition_rows = [&](double pivot) {
    size_t left = begin;
    size_t right = end;
    while (left < right) {
      if (points_[left * dims_ + axis] < pivot) {
        ++left;
      } else {
        --right;
        SwapPoints(left, right);
      }
    }
    return left;
  };

  size_t mid = partition_rows(split);
  if (mid == begin || mid == end) {
    const size_t median_rank = count / 2;
    std::nth_element(values, values + median_rank, values + count);
    split = values[median_rank];
    mid = partition_rows(split);
    if (mid == begin) {
      // All coordinates >= split; move strictly-greater to the right.
      mid = partition_rows(std::nextafter(
          split, std::numeric_limits<double>::infinity()));
    }
  }
  *split_axis = static_cast<uint8_t>(axis);
  return mid;
}

uint64_t SpatialIndex::CollectWithinScaledRadius(
    std::span<const double> x, std::span<const double> inv_bw,
    double radius_sq, std::vector<size_t>* out) const {
  TKDC_CHECK(out != nullptr);
  TKDC_CHECK(x.size() == dims_ && inv_bw.size() == dims_);
  uint64_t distance_computations = 0;
  std::vector<double> leaf_z(max_soa_padded_);
  std::vector<size_t> stack{kRoot};
  while (!stack.empty()) {
    const size_t node_index = stack.back();
    stack.pop_back();
    double z_min = 0.0;
    double z_max = 0.0;
    NodeScaledSquaredDistanceBounds(node_index, x, inv_bw, &z_min, &z_max);
    if (z_min > radius_sq) continue;
    const IndexNode& node = nodes_[node_index];
    if (z_max <= radius_sq) {
      // Whole node inside the ball: take every point without distance
      // tests.
      for (size_t i = node.begin; i < node.end; ++i) out->push_back(i);
      continue;
    }
    if (node.is_leaf()) {
      // One vectorized pass over the leaf's SoA block; each lane replays
      // the scalar per-point recurrence, so the distances (and the points
      // collected) are bit-identical to the former row-major loop.
      LeafScaledSquaredDistances(node_index, x, inv_bw, leaf_z.data());
      distance_computations += node.count();
      for (size_t k = 0; k < node.count(); ++k) {
        if (leaf_z[k] <= radius_sq) out->push_back(node.begin + k);
      }
    } else {
      stack.push_back(static_cast<size_t>(node.left));
      stack.push_back(static_cast<size_t>(node.right));
    }
  }
  return distance_computations;
}

uint64_t SpatialIndex::KNearestScaled(
    std::span<const double> x, std::span<const double> inv_bw, size_t k,
    std::vector<std::pair<double, size_t>>* out) const {
  TKDC_CHECK(out != nullptr);
  TKDC_CHECK(x.size() == dims_ && inv_bw.size() == dims_);
  if (k > size_) k = size_;
  out->clear();
  if (k == 0) return 0;

  // Max-heap of the current k best (worst on top).
  std::vector<std::pair<double, size_t>>& best = *out;
  uint64_t distance_computations = 0;
  std::vector<double> leaf_z(max_soa_padded_);

  // Best-first traversal: a min-heap of (node min-distance, node index)
  // visits the most promising subtree next and prunes any node farther
  // than the current k-th best.
  using NodeEntry = std::pair<double, size_t>;
  std::vector<NodeEntry> frontier;
  auto push_node = [&](size_t node_index) {
    frontier.emplace_back(
        -NodeMinScaledSquaredDistance(node_index, x, inv_bw), node_index);
    std::push_heap(frontier.begin(), frontier.end());
  };
  push_node(kRoot);
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end());
    const auto [neg_min_dist, node_index] = frontier.back();
    frontier.pop_back();
    if (best.size() == k && -neg_min_dist > best.front().first) break;
    const IndexNode& node = nodes_[node_index];
    if (node.is_leaf()) {
      // Vectorized leaf distances (bit-identical to the scalar loop, see
      // common/simd.h); the heap updates then run in the same ascending
      // point order as before, so ties resolve identically.
      LeafScaledSquaredDistances(node_index, x, inv_bw, leaf_z.data());
      distance_computations += node.count();
      for (size_t s = 0; s < node.count(); ++s) {
        const double z = leaf_z[s];
        const size_t i = node.begin + s;
        if (best.size() < k) {
          best.emplace_back(z, i);
          std::push_heap(best.begin(), best.end());
        } else if (z < best.front().first) {
          std::pop_heap(best.begin(), best.end());
          best.back() = {z, i};
          std::push_heap(best.begin(), best.end());
        }
      }
    } else {
      push_node(static_cast<size_t>(node.left));
      push_node(static_cast<size_t>(node.right));
    }
  }
  std::sort_heap(best.begin(), best.end());
  return distance_computations;
}

Dataset SpatialIndex::ExportPoints() const {
  std::vector<double> values(size_ * dims_);
  for (size_t i = 0; i < size_; ++i) {
    const std::span<const double> point = Point(i);
    double* row = values.data() + OriginalIndex(i) * dims_;
    for (size_t j = 0; j < dims_; ++j) row[j] = point[j];
  }
  return Dataset(dims_, std::move(values));
}

size_t SpatialIndex::MaxDepth() const {
  size_t max_depth = 0;
  std::vector<std::pair<size_t, size_t>> stack{{kRoot, 0}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    const IndexNode& node = nodes_[index];
    if (node.is_leaf()) {
      max_depth = std::max(max_depth, depth);
    } else {
      stack.push_back({static_cast<size_t>(node.left), depth + 1});
      stack.push_back({static_cast<size_t>(node.right), depth + 1});
    }
  }
  return max_depth;
}

}  // namespace tkdc
