#ifndef TKDC_TKDC_MULTI_THRESHOLD_H_
#define TKDC_TKDC_MULTI_THRESHOLD_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "tkdc/config.h"
#include "tkdc/density_bounds.h"
#include "tkdc/model.h"
#include "tkdc/query_engine.h"

namespace tkdc {

/// Classifies against a ladder of quantile thresholds t(p_1) < ... < t(p_L)
/// with ONE index, one bootstrap pass, and one traversal per query —
/// the natural engine for nested contour rendering (Figure 2a) and
/// density-based p-values (Section 2.1), which would otherwise train L
/// independent classifiers.
///
/// Train() builds one TkdcModel (the same skeleton TkdcClassifier trains),
/// bootstraps coarse bounds for the extreme levels, runs the engine's
/// training-density pass once under the widened band on the batch
/// executor, and reads all L thresholds off the model's
/// training_densities. Band() then classifies a query into one of L+1
/// nested bands through TkdcQueryEngine::Band, whose narrowing keeps every
/// per-level decision within the eps * t(p_level) guarantee.
class MultiThresholdClassifier {
 public:
  /// `levels` must be strictly ascending probabilities in (0, 1), at least
  /// one. `config.p` is ignored (the levels take its place).
  MultiThresholdClassifier(TkdcConfig config, std::vector<double> levels);

  /// Trains on `data`; see class comment.
  void Train(const Dataset& data);

  bool trained() const { return model_ != nullptr; }
  const std::vector<double>& levels() const { return levels_; }

  /// Estimated thresholds t~(p_i), ascending; valid after Train().
  const std::vector<double>& thresholds() const { return thresholds_; }

  /// Band of a fresh query point: the smallest i with f(x) < t(p_i), or
  /// levels().size() when the density clears every threshold. Band 0 means
  /// "below the lowest contour" (density quantile < p_1).
  size_t Band(std::span<const double> x);

  /// Band of a training point (self-corrected, like
  /// TkdcClassifier::ClassifyTraining).
  size_t BandTraining(std::span<const double> x);

  /// Upper bound on the density quantile of x implied by its band:
  /// levels()[band] or 1.0 above the top contour. This is the "p-value"
  /// of the statistical-testing use case.
  double QuantileUpperBound(std::span<const double> x) {
    const size_t band = Band(x);
    return band < levels_.size() ? levels_[band] : 1.0;
  }

  /// Total kernel evaluations so far (training + queries).
  uint64_t kernel_evaluations() const;

 private:
  TkdcConfig config_;
  std::vector<double> levels_;
  std::shared_ptr<const TkdcModel> model_;
  /// Engine over model_; rebuilt by Train().
  TkdcQueryEngine engine_;
  /// Counters (and scratch) for this externally single-threaded
  /// classifier: the training pass folds its workers' counters into it
  /// and every Band() query runs in it.
  TreeQueryContext ctx_;
  std::vector<double> thresholds_;
  uint64_t bootstrap_kernel_evaluations_ = 0;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_MULTI_THRESHOLD_H_
