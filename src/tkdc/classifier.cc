#include "tkdc/classifier.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "common/stats.h"
#include "kde/bandwidth.h"
#include "kde/coreset.h"

namespace tkdc {
namespace {

// Attempts to recompute the quantile with widened bounds when the detection
// check of Section 3.6 fires (probability <= delta).
constexpr int kMaxThresholdRetries = 5;

}  // namespace

TkdcClassifier::TkdcClassifier(TkdcConfig config)
    : config_(std::move(config)) {
  config_.CheckValid();
  SetNumThreads(config_.num_threads);
}

void TkdcClassifier::Train(const Dataset& data) {
  TKDC_CHECK_MSG(data.size() >= 2, "training set needs at least 2 points");
  // Bandwidths come from the FULL training set: Scott's rule depends on n
  // and the column spreads, so selecting them before compression makes the
  // compressed KDE approximate the same kernel density the uncompressed
  // model evaluates (the coreset guarantee is stated against that density).
  std::vector<double> bandwidths = SelectBandwidths(
      config_.bandwidth_rule, data, config_.bandwidth_scale);

  // Phase 0: epsilon-coreset compression on the budget's coreset share
  // (kde/coreset.h). Everything downstream — index build, bootstrap,
  // training densities, threshold — consumes the compressed set unchanged.
  const ErrorBudget budget = config_.ResolveBudget();
  CoresetResult compressed;
  const Dataset* train_data = &data;
  if (budget.coreset > 0.0) {
    const Kernel coreset_kernel(config_.kernel, bandwidths);
    CoresetOptions coreset_options;
    coreset_options.epsilon = budget.coreset;
    coreset_options.reference_quantile = config_.p;
    coreset_options.seed = config_.seed;
    compressed = BuildKdeCoreset(data, coreset_kernel, coreset_options);
    if (compressed.info.enabled) train_data = &compressed.points;
  }

  auto model =
      BuildTkdcModelSkeleton(config_, *train_data, std::move(bandwidths));
  if (compressed.info.enabled) model->coreset = compressed.info;

  // Phase 1 (Algorithm 3): coarse probabilistic bounds on t(p).
  ThresholdEstimator estimator(&model->config);
  model->bootstrap =
      estimator.Bootstrap(*train_data, *model->tree, *model->kernel);
  model->threshold_lower = model->bootstrap.lower;
  model->threshold_upper = model->bootstrap.upper;

  // Point the engine at the model while it is still privately mutable: the
  // Phase 3 pass only reads the index side; the threshold fields are
  // written below, before the model is published.
  engine_ = TkdcQueryEngine(model.get());

  // Phase 3 (Algorithm 1): density bounds for every training point, then
  // the p-quantile of the corrected midpoints becomes t~(p).
  TreeQueryContext phase3;
  double lo = model->threshold_lower;
  double hi = model->threshold_upper;
  for (int attempt = 0;; ++attempt) {
    model->training_densities =
        engine_.TrainingDensities(executor(), *train_data, lo, hi, phase3);
    model->threshold = Quantile(model->training_densities, config_.p);
    // Detection step of Section 3.6: with probability >= 1 - delta the
    // quantile lands inside the bootstrap bounds. If it does not, the
    // bounds were invalid; widen and recompute. The band is the traversal
    // share — what the density pass above was actually allowed to spend.
    const bool valid =
        model->threshold >= lo * (1.0 - budget.traversal) &&
        model->threshold <= hi * (1.0 + budget.traversal);
    if (valid || attempt >= kMaxThresholdRetries) break;
    lo /= config_.h_backoff;
    hi *= config_.h_backoff;
    if (attempt + 1 == kMaxThresholdRetries) {
      lo = 0.0;
      hi = std::numeric_limits<double>::infinity();
    }
    model->threshold_lower = lo;
    model->threshold_upper = hi;
  }

  // Snapshot the training work into its buckets (see the work-accounting
  // contract in the header) and publish the now-immutable model. Dropping
  // the live context makes query_stats() cover post-training queries only.
  phase3_stats_ = phase3.stats;
  train_stats_ = model->bootstrap.stats;
  train_stats_.Add(phase3_stats_);
  train_grid_prunes_ = phase3.grid_prunes;
  model_ = std::move(model);
  ResetQueryState();
}

Classification TkdcClassifier::ClassifyInContext(
    QueryContext& ctx, std::span<const double> x, bool training,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "Classify called before Train");
  return engine_.Classify(static_cast<TreeQueryContext&>(ctx), x, training,
                          overlay);
}

double TkdcClassifier::EstimateDensityInContext(
    QueryContext& ctx, std::span<const double> x,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "EstimateDensity called before Train");
  return engine_.EstimateDensity(static_cast<TreeQueryContext&>(ctx), x,
                                 overlay);
}

bool TkdcClassifier::ExportTrainingData(Dataset* out) const {
  if (model_ == nullptr) return false;
  *out = model_->tree->ExportPoints();
  return true;
}

double TkdcClassifier::threshold() const {
  TKDC_CHECK_MSG(trained(), "threshold read before Train");
  return model_->threshold;
}

const std::vector<double>& TkdcClassifier::training_densities() const {
  static const std::vector<double> kEmpty;
  return model_ != nullptr ? model_->training_densities : kEmpty;
}

const ThresholdBootstrapResult& TkdcClassifier::bootstrap_result() const {
  static const ThresholdBootstrapResult kEmpty;
  return model_ != nullptr ? model_->bootstrap : kEmpty;
}

void TkdcClassifier::Restore(const Dataset& data,
                             const std::vector<double>& bandwidths,
                             double threshold_lower, double threshold_upper,
                             double threshold,
                             std::vector<double> training_densities,
                             std::unique_ptr<const SpatialIndex> prebuilt_index,
                             CoresetInfo coreset) {
  TKDC_CHECK(data.size() >= 2);
  TKDC_CHECK(bandwidths.size() == data.dims());
  TKDC_CHECK(training_densities.empty() ||
             training_densities.size() == data.size());
  TKDC_CHECK(threshold_lower >= 0.0 && threshold_upper >= threshold_lower);
  auto model = BuildTkdcModelSkeleton(config_, data, bandwidths,
                                      std::move(prebuilt_index));
  if (coreset.enabled) {
    TKDC_CHECK(coreset.original_size >= data.size());
    model->coreset = coreset;
  }
  model->threshold_lower = threshold_lower;
  model->threshold_upper = threshold_upper;
  model->threshold = threshold;
  model->training_densities = std::move(training_densities);
  engine_ = TkdcQueryEngine(model.get());
  phase3_stats_ = TraversalStats();
  train_stats_ = TraversalStats();
  train_grid_prunes_ = 0;
  model_ = std::move(model);
  ResetQueryState();
}

DensityBounds TkdcClassifier::BoundDensityAt(std::span<const double> x) {
  TKDC_CHECK_MSG(trained(), "BoundDensityAt called before Train");
  return engine_.evaluator().BoundDensity(
      static_cast<TreeQueryContext&>(live_context()), x,
      model_->threshold_lower, model_->threshold_upper);
}

}  // namespace tkdc
