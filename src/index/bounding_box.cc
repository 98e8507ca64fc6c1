#include "index/bounding_box.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"

namespace tkdc {

void BoundingBox::Fit(const double* points, size_t dims, size_t begin,
                      size_t end, double* flat) {
  TKDC_CHECK(dims >= 1 && begin < end);
  double* min = flat;
  double* max = flat + dims;
  std::fill(min, min + dims, std::numeric_limits<double>::infinity());
  std::fill(max, max + dims, -std::numeric_limits<double>::infinity());
  for (size_t i = begin; i < end; ++i) {
    const double* point = points + i * dims;
    for (size_t j = 0; j < dims; ++j) {
      min[j] = std::min(min[j], point[j]);
      max[j] = std::max(max[j], point[j]);
    }
  }
}

bool BoundingBox::Contains(std::span<const double> point) const {
  TKDC_DCHECK(point.size() == dims_);
  const double* min = flat_;
  const double* max = flat_ + dims_;
  for (size_t j = 0; j < point.size(); ++j) {
    if (point[j] < min[j] || point[j] > max[j]) return false;
  }
  return true;
}

double BoundingBox::MinScaledSquaredDistance(
    std::span<const double> x, std::span<const double> inv_bw) const {
  TKDC_DCHECK(x.size() == dims_);
  const double* min = flat_;
  const double* max = flat_ + dims_;
  double z = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    double gap = 0.0;
    if (x[j] < min[j]) {
      gap = min[j] - x[j];
    } else if (x[j] > max[j]) {
      gap = x[j] - max[j];
    }
    const double u = gap * inv_bw[j];
    z += u * u;
  }
  return z;
}

double BoundingBox::MaxScaledSquaredDistance(
    std::span<const double> x, std::span<const double> inv_bw) const {
  TKDC_DCHECK(x.size() == dims_);
  const double* min = flat_;
  const double* max = flat_ + dims_;
  double z = 0.0;
  for (size_t j = 0; j < x.size(); ++j) {
    const double gap = std::max(x[j] - min[j], max[j] - x[j]);
    const double u = gap * inv_bw[j];
    z += u * u;
  }
  return z;
}

size_t BoundingBox::WidestAxis() const {
  size_t best = 0;
  double best_extent = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < dims_; ++j) {
    const double extent = Extent(j);
    if (extent > best_extent) {
      best_extent = extent;
      best = j;
    }
  }
  return best;
}

}  // namespace tkdc
