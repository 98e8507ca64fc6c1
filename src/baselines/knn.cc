#include "baselines/knn.h"

#include <cmath>
#include <limits>
#include <numbers>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"

namespace tkdc {

KnnClassifier::KnnClassifier(KnnOptions options) : options_(options) {
  TKDC_CHECK(options_.p > 0.0 && options_.p < 1.0);
  TKDC_CHECK(options_.k >= 1);
}

std::shared_ptr<KnnModel> KnnClassifier::BuildModel(
    const Dataset& data,
    std::unique_ptr<const SpatialIndex> prebuilt_index) const {
  TKDC_CHECK(data.size() >= 2);
  auto model = std::make_shared<KnnModel>();
  if (prebuilt_index != nullptr) {
    TKDC_CHECK(prebuilt_index->size() == data.size() &&
               prebuilt_index->dims() == data.dims());
    model->tree = std::move(prebuilt_index);
  } else {
    IndexOptions tree_options;
    tree_options.leaf_size = options_.leaf_size;
    model->tree = std::make_unique<const SpatialIndex>(data, tree_options);
  }
  model->unit_scale.assign(data.dims(), 1.0);
  const double d = static_cast<double>(data.dims());
  // log V_d = (d/2) log(pi) - log Gamma(d/2 + 1).
  model->log_ball_volume =
      0.5 * d * std::log(std::numbers::pi) - std::lgamma(0.5 * d + 1.0);
  return model;
}

void KnnClassifier::Train(const Dataset& data) {
  auto model = BuildModel(data);

  const size_t n = data.size();
  std::vector<size_t> rows;
  if (options_.threshold_sample == 0 || options_.threshold_sample >= n) {
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) rows[i] = i;
  } else {
    Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + 31);
    rows = rng.SampleWithoutReplacement(n, options_.threshold_sample);
  }
  KnnQueryContext train_ctx;
  std::vector<double> densities;
  densities.reserve(rows.size());
  for (size_t row : rows) {
    densities.push_back(
        Density(*model, train_ctx, data.Row(row), /*training=*/true));
  }
  model->threshold = Quantile(std::move(densities), options_.p);
  model_ = std::move(model);  // Published: immutable from here on.

  train_stats_ = train_ctx.stats;
  train_grid_prunes_ = 0;
  ResetQueryState();
}

double KnnClassifier::KthDistance(const KnnModel& m, KnnQueryContext& ctx,
                                  size_t k, std::span<const double> x,
                                  bool training) {
  // Training points find themselves at distance 0; ask for one more
  // neighbor and drop the self-match.
  const size_t want = k + (training ? 1 : 0);
  ctx.stats.kernel_evaluations +=
      m.tree->KNearestScaled(x, m.unit_scale, want, &ctx.neighbors);
  TKDC_CHECK(!ctx.neighbors.empty());
  return std::sqrt(ctx.neighbors.back().first);
}

double KnnClassifier::Density(const KnnModel& m, KnnQueryContext& ctx,
                              std::span<const double> x, bool training) const {
  const double radius = KthDistance(m, ctx, options_.k, x, training);
  ++ctx.stats.queries;
  if (radius <= 0.0) {
    // k-fold duplicate points: report a huge density.
    return std::numeric_limits<double>::max();
  }
  // f = k / (n * V_d * r^d), computed in log space to survive high d.
  const double d = static_cast<double>(m.tree->dims());
  const double log_density =
      std::log(static_cast<double>(options_.k)) -
      std::log(static_cast<double>(m.tree->size())) - m.log_ball_volume -
      d * std::log(radius);
  return std::exp(log_density);
}

double KnnClassifier::KthNeighborDistance(std::span<const double> x,
                                          bool training) {
  TKDC_CHECK_MSG(trained(), "query before Train");
  auto& ctx = static_cast<KnnQueryContext&>(live_context());
  return KthDistance(*model_, ctx, options_.k, x, training);
}

Classification KnnClassifier::ClassifyInContext(
    QueryContext& ctx, std::span<const double> x, bool training,
    const DeltaOverlay* /*overlay*/) const {
  TKDC_CHECK_MSG(trained(), "Classify called before Train");
  return Density(*model_, static_cast<KnnQueryContext&>(ctx), x, training) >
                 model_->threshold
             ? Classification::kHigh
             : Classification::kLow;
}

double KnnClassifier::EstimateDensityInContext(
    QueryContext& ctx, std::span<const double> x,
    const DeltaOverlay* /*overlay*/) const {
  TKDC_CHECK_MSG(trained(), "EstimateDensity called before Train");
  return Density(*model_, static_cast<KnnQueryContext&>(ctx), x,
                 /*training=*/false);
}

bool KnnClassifier::ExportTrainingData(Dataset* out) const {
  if (model_ == nullptr) return false;
  *out = model_->tree->ExportPoints();
  return true;
}

double KnnClassifier::threshold() const {
  TKDC_CHECK_MSG(trained(), "threshold read before Train");
  return model_->threshold;
}

void KnnClassifier::Restore(const Dataset& data, double threshold,
                            std::unique_ptr<const SpatialIndex> prebuilt_index) {
  auto model = BuildModel(data, std::move(prebuilt_index));
  model->threshold = threshold;
  model_ = std::move(model);
  train_stats_ = TraversalStats();
  train_grid_prunes_ = 0;
  ResetQueryState();
}

}  // namespace tkdc
