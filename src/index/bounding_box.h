#ifndef TKDC_INDEX_BOUNDING_BOX_H_
#define TKDC_INDEX_BOUNDING_BOX_H_

#include <cstddef>
#include <span>
#include <vector>

namespace tkdc {

/// Axis-aligned bounding box over d-dimensional points. Every k-d tree node
/// carries one (paper Figure 3); the min/max scaled distances from a query
/// to the box give the kernel contribution bounds of Eq. 6.
class BoundingBox {
 public:
  /// Uninitialized zero-dimensional box; assign before use. Exists so
  /// containers of nodes can default-construct.
  BoundingBox() = default;

  /// Empty box of the given dimensionality (min > max until Extend).
  explicit BoundingBox(size_t dims);

  /// Tight box around `points` rows [begin, end) of a flat row-major array.
  static BoundingBox FromPoints(const double* points, size_t dims,
                                size_t begin, size_t end);

  size_t dims() const { return min_.size(); }
  const std::vector<double>& min() const { return min_; }
  const std::vector<double>& max() const { return max_; }

  /// Grows the box to contain `point`.
  void Extend(std::span<const double> point);

  /// True when `point` lies inside (inclusive).
  bool Contains(std::span<const double> point) const;

  /// Smallest scaled squared distance sum_j ((gap_j) * inv_bw_j)^2 from `x`
  /// to any point of the box (0 when x is inside).
  double MinScaledSquaredDistance(std::span<const double> x,
                                  std::span<const double> inv_bw) const;

  /// Largest scaled squared distance from `x` to any point of the box (the
  /// farthest corner).
  double MaxScaledSquaredDistance(std::span<const double> x,
                                  std::span<const double> inv_bw) const;

  /// Box extent along `axis`.
  double Extent(size_t axis) const { return max_[axis] - min_[axis]; }

  /// Axis with the largest extent.
  size_t WidestAxis() const;

 private:
  std::vector<double> min_;
  std::vector<double> max_;
};

}  // namespace tkdc

#endif  // TKDC_INDEX_BOUNDING_BOX_H_
