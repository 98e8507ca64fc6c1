#include "tkdc/query_engine.h"

#include <algorithm>

#include "common/macros.h"
#include "kde/delta_overlay.h"

namespace tkdc {
namespace {

/// ComputeOverlayContribution with the kernel evaluations booked into the
/// traversal counters, so overlay queries account their extra scan work
/// exactly like leaf evaluations.
OverlayContribution FoldOverlay(TreeQueryContext& ctx, const TkdcModel& m,
                                std::span<const double> x,
                                const DeltaOverlay& overlay) {
  const OverlayContribution fold = ComputeOverlayContribution(
      overlay, m.tree->size(), *m.kernel, x, m.config.fast_math_leaf);
  ctx.stats.kernel_evaluations += fold.evaluations;
  return fold;
}

/// Number of ladder thresholds (ascending) that `density` clears once each
/// is shifted by `shift`.
size_t BandOfDensity(std::span<const double> thresholds, double density,
                     double shift) {
  size_t band = 0;
  while (band < thresholds.size() && density >= thresholds[band] + shift) {
    ++band;
  }
  return band;
}

}  // namespace

TkdcQueryEngine::TkdcQueryEngine(const TkdcModel* model)
    : model_(model),
      evaluator_(model->tree.get(), model->kernel.get(), &model->config) {
  TKDC_CHECK(model != nullptr);
}

Classification TkdcQueryEngine::Classify(TreeQueryContext& ctx,
                                         std::span<const double> x,
                                         bool training,
                                         const DeltaOverlay* overlay) const {
  const TkdcModel& m = *model_;
  // The merged density is scale * f_base + offset; without an overlay the
  // fold is the identity (scale 1, offset 0), which leaves every value
  // below bit-identical to the base computation.
  OverlayContribution fold;
  if (overlay != nullptr) fold = FoldOverlay(ctx, m, x, *overlay);
  // For training points the corrected comparison f(x) - K(0)/n > t is
  // equivalent to comparing the raw density against the shifted threshold
  // t + K(0)/n, so the pruning band simply shifts; the tolerance target
  // stays eps * t in corrected units. Under an overlay the self-term is
  // K(0)/n_eff, i.e. self_contribution (K(0)/n_b) rescaled by fold.scale.
  const double cut = training
                         ? m.threshold + m.self_contribution * fold.scale
                         : m.threshold;
  // Grid probe: the cached cell bound is a lower bound on the *base*
  // density, and the affine fold is monotone, so the merged lower bound is
  // scale * cell + offset (offset is exact, not a bound).
  if (m.grid != nullptr &&
      fold.scale * m.grid->DensityLowerBound(x) + fold.offset > cut) {
    ++ctx.grid_prunes;
    return Classification::kHigh;
  }
  const double tolerance = m.budget.traversal * m.threshold;
  const DensityBounds bounds =
      overlay != nullptr
          ? evaluator_.BoundDensityAffine(ctx, x, fold.scale, fold.offset,
                                          cut, cut, tolerance)
      : training ? evaluator_.BoundDensity(ctx, x, cut, cut, tolerance)
                 : evaluator_.BoundDensity(ctx, x, cut, cut);
  return bounds.Midpoint() > cut ? Classification::kHigh
                                 : Classification::kLow;
}

double TkdcQueryEngine::EstimateDensity(TreeQueryContext& ctx,
                                        std::span<const double> x,
                                        const DeltaOverlay* overlay) const {
  const TkdcModel& m = *model_;
  if (overlay == nullptr) {
    return evaluator_.BoundDensity(ctx, x, m.threshold, m.threshold)
        .Midpoint();
  }
  const OverlayContribution fold = FoldOverlay(ctx, m, x, *overlay);
  return evaluator_
      .BoundDensityAffine(ctx, x, fold.scale, fold.offset, m.threshold,
                          m.threshold, m.budget.traversal * m.threshold)
      .Midpoint();
}

std::vector<double> TkdcQueryEngine::TrainingDensities(
    BatchExecutor& executor, const Dataset& data, double lo, double hi,
    TreeQueryContext& sink) const {
  const TkdcModel& m = *model_;
  // lo/hi bound the *self-corrected* quantile t(p) (Eq. 1), while the
  // traversal bounds *raw* densities; shift by K(0)/n to compare in the
  // same space, but keep the tolerance target at eps * lo so corrected
  // densities near the threshold are resolved to eps * t. eps is the
  // traversal share of the error budget — the band the pruning rules may
  // spend after compression took its cut.
  const double eps = m.budget.traversal;
  const double grid_cut = hi * (1.0 + eps);
  const double tolerance = eps * lo;
  const double self = m.self_contribution;
  std::vector<double> densities(data.size());
  executor.Map(
      data.size(), BatchExecutor::kDefaultMinChunk,
      [] { return std::make_unique<TreeQueryContext>(); },
      [&](QueryContext& base_ctx, size_t row) {
        auto& ctx = static_cast<TreeQueryContext&>(base_ctx);
        const std::span<const double> x = data.Row(row);
        if (m.grid != nullptr) {
          const double grid_bound = m.grid->DensityLowerBound(x) - self;
          if (grid_bound > grid_cut) {
            // Certified above the band: the exact value is irrelevant to
            // the quantiles as long as it stays on the high side.
            ++ctx.grid_prunes;
            densities[row] = grid_bound;
            return;
          }
        }
        densities[row] =
            evaluator_.BoundDensity(ctx, x, lo + self, hi + self, tolerance)
                .Midpoint() -
            self;
      },
      sink);
  return densities;
}

size_t TkdcQueryEngine::Band(TreeQueryContext& ctx, std::span<const double> x,
                             std::span<const double> thresholds,
                             bool training) const {
  const TkdcModel& m = *model_;
  TKDC_DCHECK(!thresholds.empty());
  const double shift = training ? m.self_contribution : 0.0;
  if (m.grid != nullptr &&
      m.grid->DensityLowerBound(x) > thresholds.back() + shift) {
    ++ctx.grid_prunes;
    return thresholds.size();
  }
  // Iterative narrowing: each pass targets only the thresholds still
  // straddled by the bounds, with the tolerance anchored at the *largest*
  // remaining threshold — coarse first, refining only when the bounds
  // still straddle smaller contours. A density near the 50% contour never
  // pays for 1%-contour precision, and a density near the 1% contour
  // narrows down to it in O(1) passes.
  size_t band_lo = 0;
  size_t band_hi = thresholds.size();
  for (;;) {
    const double t_lo = thresholds[band_lo];
    const double t_hi = thresholds[band_hi - 1];
    const DensityBounds bounds = evaluator_.BoundDensity(
        ctx, x, t_lo + shift, t_hi + shift, m.budget.traversal * t_hi);
    // Every pass's bounds contain the true density, so the true band lies
    // in the intersection of the ranges; clamping keeps narrowing
    // monotone even though a later (more aggressively pruned) pass can
    // report looser bounds.
    const size_t new_lo =
        std::max(band_lo, BandOfDensity(thresholds, bounds.lower, shift));
    const size_t new_hi =
        std::min(band_hi, BandOfDensity(thresholds, bounds.upper, shift));
    if (new_lo >= new_hi) return new_lo;
    if (new_lo == band_lo && new_hi == band_hi) {
      // No further narrowing possible: the bounds are already within
      // epsilon * t of the straddled threshold(s); the midpoint decides
      // within the Problem 1 contract.
      return BandOfDensity(thresholds, bounds.Midpoint(), shift);
    }
    band_lo = new_lo;
    band_hi = new_hi;
    TKDC_DCHECK(band_lo < band_hi && band_hi <= thresholds.size());
  }
}

}  // namespace tkdc
