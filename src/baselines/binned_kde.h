#ifndef TKDC_BASELINES_BINNED_KDE_H_
#define TKDC_BASELINES_BINNED_KDE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "kde/bandwidth.h"
#include "kde/density_classifier.h"
#include "kde/kernel.h"

namespace tkdc {

/// Options for the binning baseline.
struct BinnedKdeOptions {
  double p = 0.01;
  double bandwidth_scale = 1.0;
  KernelType kernel = KernelType::kGaussian;
  BandwidthRule bandwidth_rule = BandwidthRule::kScott;
  /// Grid nodes per axis by dimensionality d = 1..4 (0 entries use the
  /// defaults 512 / 128 / 32 / 16, mirroring the coarsening the R "ks"
  /// package applies as d grows). Extents are rounded up to powers of two.
  size_t grid_size_override = 0;
  /// Kernel truncation radius in bandwidth multiples for the convolution
  /// taps (Gaussian mass beyond 4 bandwidths is negligible).
  double truncation_radius = 4.0;
  /// Training points sampled to fix the threshold quantile (0 = all).
  size_t threshold_sample = 0;
  uint64_t seed = 0;
};

/// The immutable trained artifact of the binning baseline: the convolved
/// density grid plus the geometry needed to interpolate it. Queries never
/// touch the training data again.
struct BinnedKdeModel {
  std::unique_ptr<const Kernel> kernel;
  size_t dims = 0;
  /// Training-set size; the grid itself forgets it, but the streaming
  /// overlay fold needs n_b to weight base vs overlay contributions.
  size_t n = 0;
  std::vector<size_t> shape;
  std::vector<size_t> strides;  // Row-major, precomputed at build time.
  std::vector<double> grid_lo;
  std::vector<double> grid_step;
  std::vector<double> density_grid;
  double threshold = 0.0;
  double self_contribution = 0.0;
  bool used_fft = false;
};

/// The paper's "ks" baseline (Table 2): linear binning onto a regular grid
/// followed by a kernel convolution (FFT-based when profitable), with
/// density queries answered by multilinear interpolation. Extremely fast in
/// low dimensions but with no accuracy guarantee — the Figure 8 accuracy
/// collapse at d = 4 comes from the coarse grid. Supports d <= 4, like the
/// R package it reproduces. Interpolation reads only the immutable grid, so
/// batch calls parallelize like every other classifier.
class BinnedKdeClassifier : public DensityClassifier {
 public:
  explicit BinnedKdeClassifier(BinnedKdeOptions options = BinnedKdeOptions());

  std::string name() const override { return "binned"; }
  void Train(const Dataset& data) override;
  bool trained() const override { return model_ != nullptr; }
  size_t training_size() const override {
    return model_ != nullptr ? model_->n : 0;
  }
  size_t dims() const override {
    return model_ != nullptr ? model_->dims : 0;
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

  /// Streaming: the overlay's exact signed kernel sum folds into the
  /// interpolated base density (the base half keeps the grid's usual
  /// approximation; the overlay half is exact). The grid retains no
  /// training points, so ExportTrainingData stays false and the serving
  /// layer cannot *rebuild* a binned model from its overlay — INSERT and
  /// DELETE still work, FLUSH reports the limitation.
  bool supports_overlay() const override { return true; }

  const BinnedKdeOptions& options() const { return options_; }
  const BinnedKdeModel& model() const { return *model_; }

  /// Grid nodes per axis after rounding.
  const std::vector<size_t>& grid_shape() const { return model_->shape; }
  /// True when the convolution went through the FFT path.
  bool used_fft() const { return model_ != nullptr && model_->used_fft; }

  /// Restores a trained state from serialized parts (model_io): re-bins and
  /// re-convolves `data` with the given bandwidths (deterministic, so the
  /// grid is bit-identical to the one trained) and installs the threshold
  /// without re-running the quantile pass.
  void Restore(const Dataset& data, const std::vector<double>& bandwidths,
               double threshold);

 private:
  /// Binning + taps + convolution shared by Train and Restore; tap kernel
  /// evaluations are counted into `build_ctx`.
  std::shared_ptr<BinnedKdeModel> BuildModel(const Dataset& data,
                                             std::vector<double> bandwidths,
                                             QueryContext& build_ctx) const;

  /// Density at `x` by multilinear interpolation (0 outside the grid).
  static double Interpolate(const BinnedKdeModel& m, std::span<const double> x);

  BinnedKdeOptions options_;
  std::shared_ptr<const BinnedKdeModel> model_;
};

}  // namespace tkdc

#endif  // TKDC_BASELINES_BINNED_KDE_H_
