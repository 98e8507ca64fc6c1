#ifndef TKDC_TKDC_QUERY_ENGINE_H_
#define TKDC_TKDC_QUERY_ENGINE_H_

#include <span>
#include <vector>

#include "kde/density_classifier.h"
#include "tkdc/density_bounds.h"
#include "tkdc/model.h"

namespace tkdc {

/// The stateless query side of tKDC: holds only a const pointer to an
/// immutable TkdcModel (which must outlive it) plus the bound evaluator
/// over the model's tree/kernel/config. Every method is const and threads
/// a caller-owned TreeQueryContext, so a single engine serves any number
/// of threads concurrently — the per-thread scratch and counters live in
/// the contexts, never here.
class TkdcQueryEngine {
 public:
  TkdcQueryEngine() = default;
  /// `model` needs its index side (kernel/tree/grid/self_contribution)
  /// built; the threshold fields may still be pending — only Classify()
  /// and EstimateDensity() read them.
  explicit TkdcQueryEngine(const TkdcModel* model);

  bool valid() const { return model_ != nullptr; }
  const TkdcModel& model() const { return *model_; }

  /// The Classify() kernel of Algorithm 1: grid probe, then BoundDensity
  /// against the trained threshold. `training` selects the self-corrected
  /// comparison — the pruning band shifts by K(0)/n while the tolerance
  /// target stays eps * t in corrected units.
  ///
  /// A non-null `overlay` (never an empty one; the facade decides that)
  /// classifies the merged model base + overlay: the overlay's exact
  /// signed kernel sum folds into the pruning bounds via
  /// BoundDensityAffine, so the traversal still stops on the Eq. 8-9 rules
  /// — now exact for the merged density — at any staged buffer size. The
  /// decision threshold stays the trained t~(p); the serving layer tracks
  /// how far the streamed distribution has drifted from it through the
  /// online estimator's widening band (tkdc/threshold.h).
  Classification Classify(TreeQueryContext& ctx, std::span<const double> x,
                          bool training, const DeltaOverlay* overlay) const;

  /// Midpoint density estimate at the trained threshold band, of the
  /// merged model when `overlay` is non-null.
  double EstimateDensity(TreeQueryContext& ctx, std::span<const double> x,
                         const DeltaOverlay* overlay) const;

  /// The Phase 3 pass of Algorithm 1: Dx for every row of `data` (the
  /// model's training set) under quantile bounds [lo, hi] in
  /// self-corrected space, in row order. Rows fan out across `executor`
  /// and the per-worker counters fold into `sink`; each row's value
  /// depends only on the row, so the result is bit-identical at every
  /// thread count. Grid hits bump grid_prunes and skip the traversal.
  std::vector<double> TrainingDensities(BatchExecutor& executor,
                                        const Dataset& data, double lo,
                                        double hi,
                                        TreeQueryContext& sink) const;

  /// Banded classify against an ascending threshold ladder (the nested
  /// contours of Figure 2a): the smallest i with f(x) < thresholds[i], or
  /// thresholds.size() when the density clears every threshold.
  /// `training` selects the self-corrected comparison, as in Classify().
  /// One query narrows the straddled range pass by pass, each pass's
  /// tolerance anchored at the largest threshold still straddled, so every
  /// per-level decision keeps the eps * t(p_level) guarantee.
  size_t Band(TreeQueryContext& ctx, std::span<const double> x,
              std::span<const double> thresholds, bool training) const;

  /// Raw density bounds for a query point (diagnostics and the bootstrap
  /// go through the evaluator directly).
  const DensityBoundEvaluator& evaluator() const { return evaluator_; }

 private:
  const TkdcModel* model_ = nullptr;
  DensityBoundEvaluator evaluator_;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_QUERY_ENGINE_H_
