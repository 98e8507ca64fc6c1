#ifndef TKDC_BASELINES_SIMPLE_KDE_H_
#define TKDC_BASELINES_SIMPLE_KDE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "kde/bandwidth.h"
#include "kde/density_classifier.h"
#include "kde/kernel.h"
#include "kde/soa_matrix.h"

namespace tkdc {

/// Options for the naive baseline.
struct SimpleKdeOptions {
  double p = 0.01;
  double bandwidth_scale = 1.0;
  KernelType kernel = KernelType::kGaussian;
  BandwidthRule bandwidth_rule = BandwidthRule::kScott;
  /// Training points whose densities fix the threshold quantile. Computing
  /// all n is Theta(n^2); a sample of this size estimates the same
  /// quantile. Set to 0 to use every training point (exact, quadratic).
  size_t threshold_sample = 2000;
  uint64_t seed = 0;
};

/// The immutable trained artifact of the naive baseline: the training data
/// (its own "index" — a full scan needs nothing else), the kernel, and the
/// quantile threshold.
struct SimpleKdeModel {
  Dataset data;
  Kernel kernel;
  /// SoA mirror of `data` for the vectorized full scan (kde/soa_matrix.h).
  /// Derived state, built at construction, never serialized.
  SoaMatrix soa;
  double threshold = 0.0;
  /// K_H(0) / n, subtracted when classifying training points.
  double self_contribution = 0.0;

  SimpleKdeModel(Dataset data_in, Kernel kernel_in)
      : data(std::move(data_in)), kernel(std::move(kernel_in)), soa(data) {}
};

/// The paper's "simple" algorithm: exact KDE by a full scan per query
/// (Table 2). Its per-query cost is O(n) kernel evaluations — the quadratic
/// total cost tKDC is built to avoid. The scan engine is stateless (the
/// base QueryContext carries only counters), so batch calls parallelize
/// like every other classifier.
class SimpleKdeClassifier : public DensityClassifier {
 public:
  explicit SimpleKdeClassifier(SimpleKdeOptions options = SimpleKdeOptions());

  std::string name() const override { return "simple"; }
  void Train(const Dataset& data) override;
  bool trained() const override { return model_ != nullptr; }
  size_t training_size() const override {
    return model_ != nullptr ? model_->data.size() : 0;
  }
  size_t dims() const override {
    return model_ != nullptr ? model_->data.dims() : 0;
  }
  double threshold() const override;

  std::unique_ptr<QueryContext> MakeQueryContext() const override {
    return std::make_unique<QueryContext>();
  }
  Classification ClassifyInContext(QueryContext& ctx,
                                   std::span<const double> x, bool training,
                                   const DeltaOverlay* overlay) const override;
  double EstimateDensityInContext(QueryContext& ctx,
                                  std::span<const double> x,
                                  const DeltaOverlay* overlay) const override;

  /// Streaming: the scan density is an additive kernel sum, so the overlay
  /// fold (n_b * f + Delta) / n_eff is exact — the one engine whose merged
  /// answers carry no approximation at all.
  bool supports_overlay() const override { return true; }
  bool ExportTrainingData(Dataset* out) const override;

  const SimpleKdeOptions& options() const { return options_; }
  const SimpleKdeModel& model() const { return *model_; }
  const Kernel& kernel() const { return model_->kernel; }
  /// The training data the model scans (copied at Train time).
  const Dataset& training_data() const { return model_->data; }

  /// Restores a trained state from serialized parts (model_io): rebuilds
  /// the model from `data` and the given bandwidths/threshold without
  /// re-estimating the quantile.
  void Restore(const Dataset& data, const std::vector<double>& bandwidths,
               double threshold);

 private:
  /// Exact density at `x` (O(n) kernel evaluations, counted into ctx).
  static double ScanDensity(const SimpleKdeModel& m, QueryContext& ctx,
                            std::span<const double> x);

  SimpleKdeOptions options_;
  std::shared_ptr<const SimpleKdeModel> model_;
};

}  // namespace tkdc

#endif  // TKDC_BASELINES_SIMPLE_KDE_H_
