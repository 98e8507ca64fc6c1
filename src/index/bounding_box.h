#ifndef TKDC_INDEX_BOUNDING_BOX_H_
#define TKDC_INDEX_BOUNDING_BOX_H_

#include <cstddef>
#include <span>

namespace tkdc {

/// Read-only view of an axis-aligned box over d-dimensional points, stored
/// flat as min[0..d) followed by max[0..d). The k-d tree keeps one such run
/// per node in a single geometry array (paper Figure 3), the layout the
/// model file's index section stores; the min/max scaled distances from a
/// query to the box give the kernel contribution bounds of Eq. 6.
class BoundingBox {
 public:
  /// Views the 2 * dims doubles at `flat`, which must outlive the view.
  BoundingBox(const double* flat, size_t dims) : flat_(flat), dims_(dims) {}

  /// Writes the tight box around rows [begin, end) of a flat row-major
  /// array to flat[0 .. 2 * dims). Allocates nothing, so tree-build
  /// workers can call it on disjoint slices of one array.
  static void Fit(const double* points, size_t dims, size_t begin,
                  size_t end, double* flat);

  size_t dims() const { return dims_; }
  std::span<const double> min() const { return {flat_, dims_}; }
  std::span<const double> max() const { return {flat_ + dims_, dims_}; }

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
  double Extent(size_t axis) const {
    return flat_[dims_ + axis] - flat_[axis];
  }

  /// Axis with the largest extent.
  size_t WidestAxis() const;

 private:
  const double* flat_;
  size_t dims_;
};

}  // namespace tkdc

#endif  // TKDC_INDEX_BOUNDING_BOX_H_
