#include "baselines/simple_kde.h"

#include "common/macros.h"
#include "common/stats.h"
#include "kde/delta_overlay.h"

namespace tkdc {

SimpleKdeClassifier::SimpleKdeClassifier(SimpleKdeOptions options)
    : options_(options) {
  TKDC_CHECK(options_.p > 0.0 && options_.p < 1.0);
  TKDC_CHECK(options_.bandwidth_scale > 0.0);
}

double SimpleKdeClassifier::ScanDensity(const SimpleKdeModel& m,
                                        QueryContext& ctx,
                                        std::span<const double> x) {
  const size_t n = m.data.size();
  // Vectorized SoA full scan; exact (no fast-math) so the baseline stays
  // the reference the accuracy experiments compare against.
  const double sum =
      m.soa.KernelSum(x.data(), m.kernel.inverse_bandwidths().data(),
                      m.kernel.type(), m.kernel.norm(), /*fast_math=*/false);
  ctx.stats.kernel_evaluations += n;
  ++ctx.stats.queries;
  return sum / static_cast<double>(n);
}

void SimpleKdeClassifier::Train(const Dataset& data) {
  TKDC_CHECK(data.size() >= 2);
  auto model = std::make_shared<SimpleKdeModel>(
      data, Kernel(options_.kernel,
                   SelectBandwidths(options_.bandwidth_rule, data,
                                    options_.bandwidth_scale)));
  model->self_contribution =
      model->kernel.MaxValue() / static_cast<double>(data.size());

  // Threshold t(p): quantile of self-corrected training densities, over the
  // full set or a subsample (Eq. 1).
  const size_t n = data.size();
  std::vector<size_t> rows;
  if (options_.threshold_sample == 0 || options_.threshold_sample >= n) {
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) rows[i] = i;
  } else {
    Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + 7);
    rows = rng.SampleWithoutReplacement(n, options_.threshold_sample);
  }
  QueryContext train_ctx;
  std::vector<double> densities;
  densities.reserve(rows.size());
  for (size_t row : rows) {
    densities.push_back(ScanDensity(*model, train_ctx, data.Row(row)) -
                        model->self_contribution);
  }
  model->threshold = Quantile(std::move(densities), options_.p);
  model_ = std::move(model);  // Published: immutable from here on.

  train_stats_ = train_ctx.stats;
  train_grid_prunes_ = 0;
  ResetQueryState();
}

Classification SimpleKdeClassifier::ClassifyInContext(
    QueryContext& ctx, std::span<const double> x, bool training,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "Classify called before Train");
  const SimpleKdeModel& m = *model_;
  double self = m.self_contribution;
  const double density = MergeOverlay(overlay, m.data.size(), m.kernel, x,
                                      ScanDensity(m, ctx, x), ctx, &self);
  return density - (training ? self : 0.0) > m.threshold
             ? Classification::kHigh
             : Classification::kLow;
}

double SimpleKdeClassifier::EstimateDensityInContext(
    QueryContext& ctx, std::span<const double> x,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "EstimateDensity called before Train");
  const SimpleKdeModel& m = *model_;
  return MergeOverlay(overlay, m.data.size(), m.kernel, x,
                      ScanDensity(m, ctx, x), ctx);
}

bool SimpleKdeClassifier::ExportTrainingData(Dataset* out) const {
  if (model_ == nullptr) return false;
  *out = model_->data;
  return true;
}

double SimpleKdeClassifier::threshold() const {
  TKDC_CHECK_MSG(trained(), "threshold read before Train");
  return model_->threshold;
}

void SimpleKdeClassifier::Restore(const Dataset& data,
                                  const std::vector<double>& bandwidths,
                                  double threshold) {
  TKDC_CHECK(data.size() >= 2);
  TKDC_CHECK(bandwidths.size() == data.dims());
  auto model = std::make_shared<SimpleKdeModel>(
      data, Kernel(options_.kernel, bandwidths));
  model->self_contribution =
      model->kernel.MaxValue() / static_cast<double>(data.size());
  model->threshold = threshold;
  model_ = std::move(model);
  train_stats_ = TraversalStats();
  train_grid_prunes_ = 0;
  ResetQueryState();
}

}  // namespace tkdc
