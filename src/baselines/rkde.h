#ifndef TKDC_BASELINES_RKDE_H_
#define TKDC_BASELINES_RKDE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "index/spatial_index.h"
#include "kde/density_classifier.h"
#include "kde/kernel.h"
#include "tkdc/config.h"
#include "tkdc/density_bounds.h"

namespace tkdc {

/// Options for the radial-KDE baseline.
struct RkdeOptions {
  /// Shared task parameters (p, bandwidth, kernel, tree, bootstrap).
  TkdcConfig base;
  /// Query radius in bandwidth multiples. <= 0 means "auto": the smallest
  /// radius whose truncation error is guaranteed below eps * t based on the
  /// points excluded, i.e. K(r) <= eps * t_lo (paper Section 4.1). The
  /// Figure 13 sweep sets explicit values.
  double radius_bandwidths = -1.0;
  /// Training points sampled to fix the threshold quantile (0 = all).
  size_t threshold_sample = 2000;
};

/// The immutable trained artifact of rkde: the spatial index over the
/// training set, the kernel, the (possibly auto-selected) scaled squared
/// query radius, and the quantile threshold.
struct RkdeModel {
  std::unique_ptr<const Kernel> kernel;
  std::unique_ptr<const SpatialIndex> tree;
  double radius_sq = 0.0;
  double threshold = 0.0;
  double self_contribution = 0.0;
};

/// The paper's "rkde" baseline (Table 2): for each query, a k-d tree range
/// query collects every training point within a fixed scaled radius and
/// sums their exact kernel contributions, ignoring the rest. Unlike tKDC
/// the work per query stays proportional to the number of in-radius
/// neighbors, which grows linearly with n — hence O(n) per query. The
/// range-query hit list is per-thread scratch (TreeQueryContext), so batch
/// calls parallelize like every other classifier.
class RkdeClassifier : public DensityClassifier {
 public:
  explicit RkdeClassifier(RkdeOptions options = RkdeOptions());

  std::string name() const override { return "rkde"; }
  void Train(const Dataset& data) override;
  bool trained() const override { return model_ != nullptr; }
  size_t training_size() const override {
    return model_ != nullptr ? model_->tree->size() : 0;
  }
  size_t dims() const override {
    return model_ != nullptr ? model_->tree->dims() : 0;
  }
  double threshold() const override;

  std::unique_ptr<QueryContext> MakeQueryContext() const override {
    return std::make_unique<TreeQueryContext>();
  }
  Classification ClassifyInContext(QueryContext& ctx,
                                   std::span<const double> x, bool training,
                                   const DeltaOverlay* overlay) const override;
  double EstimateDensityInContext(QueryContext& ctx,
                                  std::span<const double> x,
                                  const DeltaOverlay* overlay) const override;

  /// Streaming: the truncated radial sum is additive, so the overlay folds
  /// in like every kernel-sum engine. The overlay half is an exact (not
  /// radius-truncated) scan — strictly tighter than the base estimate.
  bool supports_overlay() const override { return true; }
  bool ExportTrainingData(Dataset* out) const override;

  const RkdeOptions& options() const { return options_; }
  const RkdeModel& model() const { return *model_; }

  /// The scaled squared radius actually used (after auto-selection).
  double radius_scaled_squared() const {
    return model_ != nullptr ? model_->radius_sq : 0.0;
  }

  /// Restores a trained state from serialized parts (model_io): adopts
  /// `prebuilt_index` (the serialized index, built over `data`) and
  /// installs the given bandwidths, radius, and threshold without
  /// re-running the bootstrap or the quantile pass.
  void Restore(const Dataset& data, const std::vector<double>& bandwidths,
               double radius_sq, double threshold,
               std::unique_ptr<const SpatialIndex> prebuilt_index);

 private:
  /// Truncated density at `x`: range query + exact kernel sum over the
  /// in-radius neighbors (counted into ctx).
  static double RadialDensity(const RkdeModel& m, TreeQueryContext& ctx,
                              std::span<const double> x);

  /// Index build shared by Train and Restore.
  static std::shared_ptr<RkdeModel> BuildModel(
      const TkdcConfig& config, const Dataset& data,
      std::vector<double> bandwidths,
      std::unique_ptr<const SpatialIndex> prebuilt_index = nullptr);

  RkdeOptions options_;
  std::shared_ptr<const RkdeModel> model_;
};

}  // namespace tkdc

#endif  // TKDC_BASELINES_RKDE_H_
