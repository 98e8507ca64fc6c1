#include "baselines/binned_kde.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fft/convolution.h"
#include "fft/fft.h"
#include "kde/delta_overlay.h"

namespace tkdc {
namespace {

size_t DefaultGridSize(size_t dims) {
  switch (dims) {
    case 1:
      return 512;
    case 2:
      return 256;
    case 3:
      return 64;
    default:
      return 16;
  }
}

size_t TotalSize(const std::vector<size_t>& shape) {
  size_t total = 1;
  for (size_t extent : shape) total *= extent;
  return total;
}

}  // namespace

BinnedKdeClassifier::BinnedKdeClassifier(BinnedKdeOptions options)
    : options_(options) {
  TKDC_CHECK(options_.p > 0.0 && options_.p < 1.0);
  TKDC_CHECK(options_.truncation_radius > 0.0);
}

std::shared_ptr<BinnedKdeModel> BinnedKdeClassifier::BuildModel(
    const Dataset& data, std::vector<double> bandwidths,
    QueryContext& build_ctx) const {
  TKDC_CHECK(data.size() >= 2);
  auto model = std::make_shared<BinnedKdeModel>();
  model->dims = data.dims();
  TKDC_CHECK_MSG(model->dims <= 4, "binned KDE supports at most 4 dimensions");
  model->kernel =
      std::make_unique<const Kernel>(options_.kernel, std::move(bandwidths));
  const size_t dims = model->dims;

  // Grid geometry: data bounding box padded by the truncation radius so
  // boundary densities are not clipped.
  const size_t grid_nodes = options_.grid_size_override > 0
                                ? NextPowerOfTwo(options_.grid_size_override)
                                : DefaultGridSize(dims);
  model->shape.assign(dims, grid_nodes);
  model->grid_lo.assign(dims, 0.0);
  model->grid_step.assign(dims, 0.0);
  std::vector<double> lo(dims, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto row = data.Row(i);
    for (size_t j = 0; j < dims; ++j) {
      lo[j] = std::min(lo[j], row[j]);
      hi[j] = std::max(hi[j], row[j]);
    }
  }
  for (size_t j = 0; j < dims; ++j) {
    const double pad =
        options_.truncation_radius * model->kernel->bandwidths()[j];
    model->grid_lo[j] = lo[j] - pad;
    const double span = (hi[j] + pad) - model->grid_lo[j];
    model->grid_step[j] =
        span > 0.0 ? span / static_cast<double>(model->shape[j] - 1) : 1.0;
  }
  model->strides.assign(dims, 0);
  size_t stride = 1;
  for (size_t j = dims; j-- > 0;) {
    model->strides[j] = stride;
    stride *= model->shape[j];
  }

  // Linear binning: each point spreads its unit mass multilinearly over the
  // 2^d surrounding grid nodes (Wand 1994).
  const size_t total = TotalSize(model->shape);
  std::vector<double> counts(total, 0.0);
  std::vector<size_t> base_index(dims);
  std::vector<double> frac(dims);
  for (size_t i = 0; i < data.size(); ++i) {
    const auto row = data.Row(i);
    for (size_t j = 0; j < dims; ++j) {
      double pos = (row[j] - model->grid_lo[j]) / model->grid_step[j];
      pos = std::clamp(pos, 0.0,
                       static_cast<double>(model->shape[j] - 1) - 1e-9);
      base_index[j] = static_cast<size_t>(pos);
      frac[j] = pos - static_cast<double>(base_index[j]);
    }
    for (size_t corner = 0; corner < (size_t{1} << dims); ++corner) {
      double weight = 1.0;
      size_t offset = 0;
      for (size_t j = 0; j < dims; ++j) {
        const bool upper = (corner >> j) & 1;
        weight *= upper ? frac[j] : 1.0 - frac[j];
        offset += (base_index[j] + (upper ? 1 : 0)) * model->strides[j];
      }
      counts[offset] += weight;
    }
  }

  // Kernel taps: the kernel evaluated at grid-offset vectors out to the
  // truncation radius along each axis.
  std::vector<size_t> tap_shape(dims);
  std::vector<long> tap_half(dims);
  for (size_t j = 0; j < dims; ++j) {
    const double radius =
        options_.truncation_radius * model->kernel->bandwidths()[j];
    long half = static_cast<long>(std::ceil(radius / model->grid_step[j]));
    half = std::min<long>(half, static_cast<long>(model->shape[j]) - 1);
    tap_half[j] = half;
    tap_shape[j] = static_cast<size_t>(2 * half + 1);
  }
  std::vector<double> taps(TotalSize(tap_shape));
  std::vector<size_t> tap_index(dims, 0);
  size_t flat = 0;
  for (;;) {
    double z = 0.0;
    for (size_t j = 0; j < dims; ++j) {
      const double delta = (static_cast<double>(tap_index[j]) -
                            static_cast<double>(tap_half[j])) *
                           model->grid_step[j] / model->kernel->bandwidths()[j];
      z += delta * delta;
    }
    taps[flat++] = model->kernel->EvaluateScaled(z);
    ++build_ctx.stats.kernel_evaluations;
    size_t axis = dims;
    while (axis-- > 0) {
      if (++tap_index[axis] < tap_shape[axis]) break;
      tap_index[axis] = 0;
    }
    if (flat == taps.size()) break;
  }

  // Convolve: FFT when the direct cost dominates.
  const double direct_cost = static_cast<double>(total) *
                             static_cast<double>(TotalSize(tap_shape));
  model->used_fft = direct_cost > 4e7;
  model->density_grid =
      model->used_fft ? FftConvolveSame(counts, model->shape, taps, tap_shape)
                      : DirectConvolveSame(counts, model->shape, taps,
                                           tap_shape);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (double& v : model->density_grid) {
    v = std::max(0.0, v * inv_n);  // FFT round-off can dip below zero.
  }
  model->n = data.size();
  model->self_contribution = model->kernel->MaxValue() * inv_n;
  return model;
}

void BinnedKdeClassifier::Train(const Dataset& data) {
  QueryContext build_ctx;
  auto model = BuildModel(data,
                          SelectBandwidths(options_.bandwidth_rule, data,
                                           options_.bandwidth_scale),
                          build_ctx);

  // Threshold quantile from interpolated training densities.
  const double self = model->self_contribution;
  const size_t n = data.size();
  std::vector<size_t> rows;
  if (options_.threshold_sample == 0 || options_.threshold_sample >= n) {
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) rows[i] = i;
  } else {
    Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + 29);
    rows = rng.SampleWithoutReplacement(n, options_.threshold_sample);
  }
  std::vector<double> densities;
  densities.reserve(rows.size());
  for (size_t row : rows) {
    densities.push_back(Interpolate(*model, data.Row(row)) - self);
    ++build_ctx.stats.queries;
  }
  model->threshold = Quantile(std::move(densities), options_.p);
  model_ = std::move(model);  // Published: immutable from here on.

  train_stats_ = build_ctx.stats;
  train_grid_prunes_ = 0;
  ResetQueryState();
}

double BinnedKdeClassifier::Interpolate(const BinnedKdeModel& m,
                                        std::span<const double> x) {
  TKDC_DCHECK(x.size() == m.dims);
  size_t base = 0;
  double frac[4] = {0, 0, 0, 0};
  size_t idx[4] = {0, 0, 0, 0};
  for (size_t j = 0; j < m.dims; ++j) {
    const double pos = (x[j] - m.grid_lo[j]) / m.grid_step[j];
    if (pos < 0.0 || pos > static_cast<double>(m.shape[j] - 1)) {
      return 0.0;  // Outside the grid: beyond every training point + pad.
    }
    const double clamped =
        std::min(pos, static_cast<double>(m.shape[j] - 1) - 1e-9);
    idx[j] = static_cast<size_t>(clamped);
    frac[j] = clamped - static_cast<double>(idx[j]);
    base += idx[j] * m.strides[j];
  }
  double value = 0.0;
  for (size_t corner = 0; corner < (size_t{1} << m.dims); ++corner) {
    double weight = 1.0;
    size_t offset = base;
    for (size_t j = 0; j < m.dims; ++j) {
      const bool upper = (corner >> j) & 1;
      weight *= upper ? frac[j] : 1.0 - frac[j];
      if (upper) offset += m.strides[j];
    }
    value += weight * m.density_grid[offset];
  }
  return value;
}

Classification BinnedKdeClassifier::ClassifyInContext(
    QueryContext& ctx, std::span<const double> x, bool training,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "Classify called before Train");
  const BinnedKdeModel& m = *model_;
  ++ctx.stats.queries;
  double self = m.self_contribution;
  const double density =
      MergeOverlay(overlay, m.n, *m.kernel, x, Interpolate(m, x), ctx, &self);
  return density - (training ? self : 0.0) > m.threshold
             ? Classification::kHigh
             : Classification::kLow;
}

double BinnedKdeClassifier::EstimateDensityInContext(
    QueryContext& ctx, std::span<const double> x,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "EstimateDensity called before Train");
  const BinnedKdeModel& m = *model_;
  ++ctx.stats.queries;
  return MergeOverlay(overlay, m.n, *m.kernel, x, Interpolate(m, x), ctx);
}

double BinnedKdeClassifier::threshold() const {
  TKDC_CHECK_MSG(trained(), "threshold read before Train");
  return model_->threshold;
}

void BinnedKdeClassifier::Restore(const Dataset& data,
                                  const std::vector<double>& bandwidths,
                                  double threshold) {
  TKDC_CHECK(bandwidths.size() == data.dims());
  QueryContext build_ctx;
  auto model = BuildModel(data, bandwidths, build_ctx);
  model->threshold = threshold;
  model_ = std::move(model);
  train_stats_ = TraversalStats();
  train_grid_prunes_ = 0;
  ResetQueryState();
}

}  // namespace tkdc
