#ifndef TKDC_TKDC_CLASSIFIER_H_
#define TKDC_TKDC_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "index/spatial_index.h"
#include "kde/density_classifier.h"
#include "kde/kernel.h"
#include "tkdc/config.h"
#include "tkdc/density_bounds.h"
#include "tkdc/model.h"
#include "tkdc/query_engine.h"
#include "tkdc/threshold.h"

namespace tkdc {

/// Thresholded Kernel Density Classification — the paper's contribution
/// (Algorithm 1), layered as model / engine / context:
///
///   - Train() builds the k-d tree, bootstraps threshold bounds
///     (Algorithm 3), computes density bounds for every training point to
///     fix the quantile threshold t~(p), optionally builds the grid cache,
///     and publishes the result as an immutable, shareable TkdcModel.
///   - The TkdcQueryEngine answers queries against that model; every
///     engine method is const.
///   - Scratch (the traversal heap) and work counters live in per-thread
///     TreeQueryContexts; the DensityClassifier base fans batch calls
///     across its executor with one context per worker, so thresholds,
///     densities, labels, and merged counters are bit-identical for every
///     thread count (see DESIGN.md § "Architecture" and § "Threading
///     model").
///
/// Per-point Classify()/ClassifyTraining()/EstimateDensity() and Train()
/// itself must not be called concurrently — the classifier facade is
/// externally single-threaded; parallelism lives inside the batch calls.
class TkdcClassifier : public DensityClassifier {
 public:
  explicit TkdcClassifier(TkdcConfig config = TkdcConfig());

  std::string name() const override { return "tkdc"; }
  void Train(const Dataset& data) override;
  bool trained() const override { return model_ != nullptr; }
  size_t training_size() const override {
    return model_ != nullptr ? model_->tree->size() : 0;
  }
  size_t dims() const override {
    return model_ != nullptr ? model_->tree->dims() : 0;
  }
  double threshold() const override;
  std::optional<IndexBackend> index_backend() const override {
    return model_ != nullptr ? std::optional(model_->tree->backend())
                             : std::nullopt;
  }

  std::unique_ptr<QueryContext> MakeQueryContext() const override {
    return std::make_unique<TreeQueryContext>();
  }
  Classification ClassifyInContext(QueryContext& ctx,
                                   std::span<const double> x, bool training,
                                   const DeltaOverlay* overlay) const override;
  double EstimateDensityInContext(QueryContext& ctx,
                                  std::span<const double> x,
                                  const DeltaOverlay* overlay) const override;

  /// Streaming: the tKDC density is an additive kernel sum, so a staged
  /// DeltaOverlay folds in exactly (BoundDensityAffine) — the Eq. 8-9
  /// pruning guarantees hold for the merged density at any buffer size.
  bool supports_overlay() const override { return true; }
  bool ExportTrainingData(Dataset* out) const override;

  const TkdcConfig& config() const { return config_; }

  /// The immutable trained artifact; only valid after Train(). The shared
  /// form lets callers hold the model beyond this classifier's lifetime
  /// (serving, serialization).
  const TkdcModel& model() const { return *model_; }
  std::shared_ptr<const TkdcModel> shared_model() const { return model_; }

  /// Probabilistic bounds on t(p) from the bootstrap.
  double threshold_lower() const {
    return model_ != nullptr ? model_->threshold_lower : 0.0;
  }
  double threshold_upper() const {
    return model_ != nullptr ? model_->threshold_upper : 0.0;
  }

  /// Self-corrected density estimates of every training point (the Dx of
  /// Algorithm 1), in training-row order.
  const std::vector<double>& training_densities() const;

  /// Bootstrap diagnostics.
  const ThresholdBootstrapResult& bootstrap_result() const;

  /// Compression metadata of the trained model (enabled == false when the
  /// model holds the full training set); only valid after Train().
  const CoresetInfo& coreset_info() const { return model_->coreset; }

  /// The resolved error budget frozen into the model; only valid after
  /// Train().
  const ErrorBudget& error_budget() const { return model_->budget; }

  // --- Work accounting -------------------------------------------------
  // Traversal work is kept in three disjoint buckets so totals can never
  // double count:
  //   1. bootstrap_result().stats — Algorithm 3 (its own contexts);
  //   2. training_stats()         — the Phase 3 training-density pass;
  //   3. query_stats()            — every post-training query (the base
  //      class's live context, which the batch paths also merge their
  //      per-worker counters into).
  // traversal_stats() and kernel_evaluations() report 1 + 2 + 3 (the base
  // snapshots 1 + 2 as train_stats_). Reading them never mutates anything,
  // so repeated reads are stable.

  /// Work of the Phase 3 training-density pass alone (bucket 2).
  const TraversalStats& training_stats() const { return phase3_stats_; }

  /// The trained kernel; only valid after Train().
  const Kernel& kernel() const { return *model_->kernel; }

  /// The trained index; only valid after Train().
  const SpatialIndex& tree() const { return *model_->tree; }

  /// Raw density bounds for a query under the trained threshold band
  /// (exposed for tests and diagnostics).
  DensityBounds BoundDensityAt(std::span<const double> x);

  /// Restores a previously trained state without re-running the bootstrap
  /// or the training-density pass: adopts `prebuilt_index` (the serialized
  /// index, built over `data`), rebuilds the grid and engine from `data`,
  /// and installs the given kernel bandwidths and thresholds. Used by model
  /// deserialization (tkdc/model_io.h). The vectors must be consistent with
  /// `data` (bandwidths per dimension; densities per row, or empty).
  /// `coreset` restores the compression metadata when `data` is a
  /// serialized coreset; the default means "data is the full training set".
  void Restore(const Dataset& data, const std::vector<double>& bandwidths,
               double threshold_lower, double threshold_upper,
               double threshold, std::vector<double> training_densities,
               std::unique_ptr<const SpatialIndex> prebuilt_index,
               CoresetInfo coreset = CoresetInfo());

 private:
  TkdcConfig config_;
  std::shared_ptr<const TkdcModel> model_;
  TkdcQueryEngine engine_;
  /// Phase 3 work (bucket 2), snapshotted by Train().
  TraversalStats phase3_stats_;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_CLASSIFIER_H_
