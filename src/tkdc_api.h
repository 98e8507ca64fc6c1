#ifndef TKDC_TKDC_API_H_
#define TKDC_TKDC_API_H_

/// The stable public surface of the tkdc library (`tkdc::api`).
///
/// Everything an embedding application needs — training, model
/// persistence, classification, density estimation — is reachable through
/// this one header; `tkdc_cli`, `tkdc_serve`, and the benches build on it
/// instead of reaching into per-algorithm internals. Types that appear in
/// the surface (Dataset, TkdcConfig, Classification, DensityClassifier,
/// MetricsRegistry, Status/Result) are re-exported by inclusion; anything
/// not reachable from here (query engines, spatial indexes, bound
/// evaluators, model wire structs) is internal and may change freely
/// between versions. See DESIGN.md § "Public API surface".
///
/// Error policy: every function taking user-supplied input (configs,
/// file paths, datasets) returns Status / Result instead of aborting, so
/// long-lived callers (the tkdc_serve daemon) can surface the message and
/// keep running. The per-point call helpers mirror the DensityClassifier
/// facade and keep its CHECK-on-misuse semantics (classifying before
/// training is a programmer error, not user input).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "data/dataset.h"
#include "kde/density_classifier.h"
#include "tkdc/config.h"
#include "tkdc/model_io.h"
#include "tkdc/multiclass.h"

namespace tkdc::api {

/// How to build a classifier: which algorithm from the paper's lineup, the
/// shared tkdc-style knobs, and the knn-only neighbor count.
struct TrainOptions {
  /// One of KnownAlgorithms(): "tkdc" (default), "nocut", "simple",
  /// "rkde", "binned", or "knn".
  std::string algorithm = "tkdc";
  /// Shared knobs (p, epsilon, bandwidth, kernel, index backend, threads,
  /// seed, ...). Baselines map the subset they understand.
  TkdcConfig config;
  /// Neighbor count; knn only.
  size_t k = 10;
};

/// The algorithm names NewClassifier/Train accept, in the paper's order.
const std::vector<std::string>& KnownAlgorithms();

/// Builds an untrained classifier per `options`. Errors (with the allowed
/// values listed) on an unknown algorithm name or an invalid config.
Result<std::unique_ptr<DensityClassifier>> NewClassifier(
    const TrainOptions& options);

/// Builds and trains a classifier on `data` (fixing the quantile
/// threshold t(p)). Errors on bad options or an unusable dataset instead
/// of aborting; the returned classifier is ready to Classify().
Result<std::unique_ptr<DensityClassifier>> Train(const Dataset& data,
                                                 const TrainOptions& options);

/// Persistence knobs, named at the call site instead of trailing bools.
struct SaveOptions {
  /// Keep the cached training-density vector (tkdc / nocut models only —
  /// larger file, faster ClassifyTraining).
  bool include_densities = true;
};

/// Persists a trained classifier (any algorithm) to `path`.
/// `training_data` must be the dataset it was trained on.
Status SaveModel(const std::string& path, const DensityClassifier& classifier,
                 const Dataset& training_data,
                 const SaveOptions& options = {});

/// Human-readable description of a trained model (the `tkdc_cli info`
/// body): algorithm, dimensions, threshold, and per-algorithm extras.
std::string Describe(const DensityClassifier& classifier);

/// Reconstructs the TrainOptions a classifier was built with, so the
/// streaming rebuild path can retrain an equivalent model on base ∪
/// overlay without the caller having kept the original options around.
/// Errors for classifier types the API did not construct.
Result<TrainOptions> RecoverTrainOptions(const DensityClassifier& classifier);

// --- Multi-class classification (tkdc/multiclass.h) ---------------------
//
// One tkdc model per class, classification by simultaneous cross-class
// bound refinement. The multi-class classifier is its own facade (labels,
// not high/low), so it rides beside the DensityClassifier surface rather
// than behind it; model files use the same container format under
// algorithm tag 7 and are distinguished from single-class files by
// ProbeModel.

/// Trains one tkdc model per distinct label in `row_labels` (one label
/// per row of `data`; classes ordered lexicographically). `priors` is
/// empty for empirical class frequencies, or one positive weight per
/// class in label order summing to 1. Errors (not aborts) on degenerate
/// input: fewer than two classes, a class with fewer than two rows, bad
/// priors, or an invalid config.
Result<std::unique_ptr<MultiClassClassifier>> TrainMultiClass(
    const Dataset& data, const std::vector<std::string>& row_labels,
    const TkdcConfig& config, std::vector<double> priors = {});

/// Persists a trained multi-class classifier to `path` (tag-7 container:
/// K per-class tkdc sections plus the label/prior table).
Status SaveMultiClassModel(const std::string& path,
                           const MultiClassClassifier& classifier,
                           const SaveOptions& options = {});

/// What `path` holds — single-class or multi-class — decided from the
/// file header alone, so callers can dispatch to the right loader without
/// parsing (and without triggering the wrong loader's error).
Result<ModelKind> ProbeModel(const std::string& path);

// --- Kind-agnostic model handles ----------------------------------------

/// A loaded model of either kind behind one kind-agnostic surface.
///
/// Exactly one of single()/multi() is non-null. Callers that can serve
/// both kinds keep the handle and branch on kind(); callers built for one
/// kind Take*() the owning pointer out (the handle goes empty) and use
/// the concrete facade.
class ModelHandle {
 public:
  ModelHandle() = default;
  explicit ModelHandle(std::unique_ptr<DensityClassifier> single)
      : single_(std::move(single)) {}
  explicit ModelHandle(std::unique_ptr<MultiClassClassifier> multi)
      : multi_(std::move(multi)) {}

  ModelHandle(ModelHandle&&) = default;
  ModelHandle& operator=(ModelHandle&&) = default;

  /// kSingleClass, kMultiClass, or kInvalid for an empty handle.
  ModelKind kind() const {
    if (single_ != nullptr) return ModelKind::kSingleClass;
    if (multi_ != nullptr) return ModelKind::kMultiClass;
    return ModelKind::kInvalid;
  }
  bool valid() const { return kind() != ModelKind::kInvalid; }

  DensityClassifier* single() { return single_.get(); }
  const DensityClassifier* single() const { return single_.get(); }
  MultiClassClassifier* multi() { return multi_.get(); }
  const MultiClassClassifier* multi() const { return multi_.get(); }

  /// Transfer ownership out (the handle goes empty). Null when the handle
  /// holds the other kind.
  std::unique_ptr<DensityClassifier> TakeSingle() {
    return std::move(single_);
  }
  std::unique_ptr<MultiClassClassifier> TakeMulti() {
    return std::move(multi_);
  }

  /// Query dimensionality of whichever kind is held.
  size_t dims() const;
  /// Wire name of the held algorithm ("tkdc", ..., or "tkdc-mc").
  std::string algorithm() const;
  /// Human-readable description (the `tkdc_cli info` body) of either kind.
  std::string Describe() const;
  /// Persists the held model to `path`. Single-class models re-export
  /// their training rows; errors for engines that cannot (binned) — save
  /// those with SaveModel and the original dataset.
  Status SaveTo(const std::string& path, const SaveOptions& options) const;
  /// Threading/metrics pass-throughs to whichever kind is held.
  void SetNumThreads(size_t num_threads);
  void AttachMetrics(MetricsRegistry* registry);

 private:
  std::unique_ptr<DensityClassifier> single_;
  std::unique_ptr<MultiClassClassifier> multi_;
};

/// Loads any model file — single- or multi-class — dispatching on the
/// header probe. The one entry point callers need. The result is fully
/// trained; errors on any corruption or unsupported format version.
Result<ModelHandle> LoadAny(const std::string& path);

/// Human-readable description of a trained multi-class model (the
/// `tkdc_cli info` body for tag-7 files).
std::string DescribeMultiClass(const MultiClassClassifier& classifier);

// --- Query calls (thin, stable aliases over the classifier facade) ------

inline Classification Classify(DensityClassifier& classifier,
                               std::span<const double> x) {
  return classifier.Classify(x);
}

inline Classification ClassifyTraining(DensityClassifier& classifier,
                                       std::span<const double> x) {
  return classifier.ClassifyTraining(x);
}

inline std::vector<Classification> ClassifyBatch(DensityClassifier& classifier,
                                                 const Dataset& queries) {
  return classifier.ClassifyBatch(queries);
}

inline std::vector<Classification> ClassifyTrainingBatch(
    DensityClassifier& classifier, const Dataset& queries) {
  return classifier.ClassifyTrainingBatch(queries);
}

inline double EstimateDensity(DensityClassifier& classifier,
                              std::span<const double> x) {
  return classifier.EstimateDensity(x);
}

// --- Streaming overlay calls (see kde/delta_overlay.h) ------------------
//
// The overlay variants answer against base model + delta overlay without
// retraining; classifier.supports_overlay() gates them. The serve daemon
// is the primary consumer.

inline Classification ClassifyWithOverlay(DensityClassifier& classifier,
                                          std::span<const double> x,
                                          const DeltaOverlay& overlay) {
  return classifier.ClassifyWithOverlay(x, overlay);
}

inline std::vector<Classification> ClassifyBatchWithOverlay(
    DensityClassifier& classifier, const Dataset& queries,
    const DeltaOverlay& overlay, bool training = false) {
  return classifier.ClassifyBatchWithOverlay(queries, overlay, training);
}

inline double EstimateDensityWithOverlay(DensityClassifier& classifier,
                                         std::span<const double> x,
                                         const DeltaOverlay& overlay) {
  return classifier.EstimateDensityWithOverlay(x, overlay);
}

}  // namespace tkdc::api

#endif  // TKDC_TKDC_API_H_
