#include "tkdc/multi_threshold.h"

#include <algorithm>

#include "common/macros.h"
#include "common/stats.h"
#include "kde/bandwidth.h"
#include "kde/batch_executor.h"
#include "tkdc/threshold.h"

namespace tkdc {

MultiThresholdClassifier::MultiThresholdClassifier(TkdcConfig config,
                                                   std::vector<double> levels)
    : config_(std::move(config)), levels_(std::move(levels)) {
  config_.CheckValid();
  TKDC_CHECK_MSG(!levels_.empty(), "need at least one level");
  for (size_t i = 0; i < levels_.size(); ++i) {
    TKDC_CHECK_MSG(levels_[i] > 0.0 && levels_[i] < 1.0,
                   "levels must lie in (0, 1)");
    if (i > 0) {
      TKDC_CHECK_MSG(levels_[i] > levels_[i - 1],
                     "levels must be strictly ascending");
    }
  }
}

void MultiThresholdClassifier::Train(const Dataset& data) {
  auto model = BuildTkdcModelSkeleton(
      config_, data,
      SelectBandwidths(config_.bandwidth_rule, data, config_.bandwidth_scale));
  ctx_.stats = TraversalStats();
  ctx_.grid_prunes = 0;

  // Bootstrap coarse bounds at the extreme levels; their union covers
  // every intermediate threshold.
  TkdcConfig low_config = config_;
  low_config.p = levels_.front();
  ThresholdEstimator low_estimator(&low_config);
  const ThresholdBootstrapResult low =
      low_estimator.Bootstrap(data, *model->tree, *model->kernel);
  bootstrap_kernel_evaluations_ += low.stats.kernel_evaluations;
  model->threshold_lower = low.lower;
  model->threshold_upper = low.upper;
  if (levels_.size() > 1) {
    TkdcConfig high_config = config_;
    high_config.p = levels_.back();
    ThresholdEstimator high_estimator(&high_config);
    const ThresholdBootstrapResult high =
        high_estimator.Bootstrap(data, *model->tree, *model->kernel);
    bootstrap_kernel_evaluations_ += high.stats.kernel_evaluations;
    model->threshold_lower = std::min(model->threshold_lower, high.lower);
    model->threshold_upper = std::max(model->threshold_upper, high.upper);
  }

  // One training-density pass under the widened band serves every level.
  engine_ = TkdcQueryEngine(model.get());
  BatchExecutor executor(config_.num_threads);
  model->training_densities =
      engine_.TrainingDensities(executor, data, model->threshold_lower,
                                model->threshold_upper, ctx_);
  std::vector<double> sorted = model->training_densities;
  std::sort(sorted.begin(), sorted.end());
  thresholds_.clear();
  for (const double level : levels_) {
    thresholds_.push_back(QuantileSorted(sorted, level));
  }
  model_ = std::move(model);
}

size_t MultiThresholdClassifier::Band(std::span<const double> x) {
  TKDC_CHECK_MSG(trained(), "Band queried before Train");
  return engine_.Band(ctx_, x, thresholds_, /*training=*/false);
}

size_t MultiThresholdClassifier::BandTraining(std::span<const double> x) {
  TKDC_CHECK_MSG(trained(), "Band queried before Train");
  return engine_.Band(ctx_, x, thresholds_, /*training=*/true);
}

uint64_t MultiThresholdClassifier::kernel_evaluations() const {
  return bootstrap_kernel_evaluations_ + ctx_.stats.kernel_evaluations;
}

}  // namespace tkdc
