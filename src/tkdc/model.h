#ifndef TKDC_TKDC_MODEL_H_
#define TKDC_TKDC_MODEL_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "index/spatial_index.h"
#include "kde/coreset.h"
#include "kde/kernel.h"
#include "tkdc/config.h"
#include "tkdc/error_budget.h"
#include "tkdc/grid_cache.h"
#include "tkdc/threshold.h"

namespace tkdc {

/// The immutable trained artifact of tKDC (Algorithm 1): everything
/// Train() produces and Classify() reads — the k-d tree over the training
/// set, the kernel with its selected bandwidths, the optional grid cache
/// (Section 3.7), the bootstrap's threshold bounds, and the quantile
/// threshold t~(p). Once Train() (or a model_io restore) publishes a model
/// behind a shared_ptr<const TkdcModel>, nothing mutates it: any number of
/// query engines and threads may read it concurrently, and model_io
/// serializes it without touching the classifier.
struct TkdcModel {
  /// The configuration the model was trained under. The evaluator borrows
  /// this copy, so pruning-rule toggles (and the index backend) are frozen
  /// into the artifact.
  TkdcConfig config;
  /// The resolved error-budget decomposition of config.epsilon. Frozen at
  /// build time so every consumer (bounds, engines, serve stats) reads the
  /// same certified shares instead of re-deriving them from raw doubles.
  ErrorBudget budget;
  /// Compression metadata: whether the training set behind `tree` is an
  /// epsilon-coreset, and how much error the compression spent.
  CoresetInfo coreset;
  std::unique_ptr<const Kernel> kernel;
  std::unique_ptr<const SpatialIndex> tree;
  /// Null when the grid is disabled or the dimensionality exceeds its cap.
  std::unique_ptr<const GridCache> grid;
  /// Bootstrap diagnostics (Algorithm 3), including its traversal work.
  ThresholdBootstrapResult bootstrap;
  /// Self-corrected density estimates of every training point (the Dx of
  /// Algorithm 1), in training-row order; may be empty after a restore
  /// that omitted them.
  std::vector<double> training_densities;
  /// Probabilistic bounds on t(p) from the bootstrap.
  double threshold_lower = 0.0;
  double threshold_upper = 0.0;
  /// The quantile threshold t~(p).
  double threshold = 0.0;
  /// K_H(0) / n, the self-contribution of one training point (Eq. 1).
  double self_contribution = 0.0;
};

/// Builds the index side of a model — kernel, tree, optional grid,
/// self-contribution — from `data` and per-axis `bandwidths`, leaving the
/// threshold fields for the caller (Train's bootstrap or model_io's
/// restore). The index build is deterministic, so restoring from the
/// original training data reproduces the trained tree exactly; model_io's
/// restore passes the deserialized index as `prebuilt_index` to skip the
/// rebuild.
std::shared_ptr<TkdcModel> BuildTkdcModelSkeleton(
    const TkdcConfig& config, const Dataset& data,
    std::vector<double> bandwidths,
    std::unique_ptr<const SpatialIndex> prebuilt_index = nullptr);

}  // namespace tkdc

#endif  // TKDC_TKDC_MODEL_H_
