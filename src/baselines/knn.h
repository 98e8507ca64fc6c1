#ifndef TKDC_BASELINES_KNN_H_
#define TKDC_BASELINES_KNN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "index/spatial_index.h"
#include "kde/density_classifier.h"

namespace tkdc {

/// Options for the k-nearest-neighbor density classifier.
struct KnnOptions {
  /// Classification rate p (as for tKDC).
  double p = 0.01;
  /// Number of neighbors. The classic distance-to-k-th-neighbor outlier
  /// score (Ramaswamy et al., cited as [43] in the paper).
  size_t k = 10;
  /// Index leaf capacity.
  size_t leaf_size = 32;
  /// Training points sampled to fix the threshold quantile (0 = all).
  size_t threshold_sample = 0;
  uint64_t seed = 0;
};

/// The immutable trained artifact of knn: the spatial index over the raw
/// (unscaled) training coordinates plus the threshold on the implied
/// density.
struct KnnModel {
  std::unique_ptr<const SpatialIndex> tree;
  std::vector<double> unit_scale;  // All-ones: kNN uses raw coordinates.
  double log_ball_volume = 0.0;    // log V_d of the unit ball.
  double threshold = 0.0;
};

/// Per-thread scratch for the kNN engine: the best-k neighbor heap.
class KnnQueryContext : public QueryContext {
 public:
  KnnQueryContext() { neighbors.reserve(64); }
  std::vector<std::pair<double, size_t>> neighbors;
};

/// k-nearest-neighbor density classification — the non-parametric
/// alternative the paper's related work contrasts KDE against (Section 5):
/// score each point by its distance to the k-th nearest training point and
/// threshold the implied density estimate
///
///   f_knn(x) = k / (n * V_d * r_k(x)^d)
///
/// (V_d = unit-ball volume). Fast and knob-light, but the paper's point
/// stands: the implied density is neither smooth nor normalized, so it
/// cannot feed the statistical use cases KDE serves. Included as a
/// comparator and as a consumer of the k-d tree's kNN search. Distance
/// computations are reported through the kernel-evaluation counter so
/// Figure 7's work column is uniform.
class KnnClassifier : public DensityClassifier {
 public:
  explicit KnnClassifier(KnnOptions options = KnnOptions());

  std::string name() const override { return "knn"; }
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
    return std::make_unique<KnnQueryContext>();
  }
  /// Streaming: the knn density is an order statistic of distances, not an
  /// additive kernel sum, so a DeltaOverlay cannot fold in — the inherited
  /// supports_overlay() stays false, the facade never passes an overlay to
  /// these hooks, and the serving layer rejects INSERT / DELETE for knn
  /// models. The training points are still exportable.
  Classification ClassifyInContext(QueryContext& ctx,
                                   std::span<const double> x, bool training,
                                   const DeltaOverlay* overlay) const override;
  double EstimateDensityInContext(QueryContext& ctx,
                                  std::span<const double> x,
                                  const DeltaOverlay* overlay) const override;

  bool ExportTrainingData(Dataset* out) const override;

  const KnnOptions& options() const { return options_; }
  const KnnModel& model() const { return *model_; }

  /// Scaled distance to the k-th neighbor (the raw outlier score).
  double KthNeighborDistance(std::span<const double> x, bool training);

  /// Restores a trained state from serialized parts (model_io): adopts
  /// `prebuilt_index` (the serialized index, built over `data`) and
  /// installs the threshold without re-running the quantile pass. k and
  /// leaf_size come from options().
  void Restore(const Dataset& data, double threshold,
               std::unique_ptr<const SpatialIndex> prebuilt_index);

 private:
  static double KthDistance(const KnnModel& m, KnnQueryContext& ctx, size_t k,
                            std::span<const double> x, bool training);
  double Density(const KnnModel& m, KnnQueryContext& ctx,
                 std::span<const double> x, bool training) const;

  /// Index build shared by Train and Restore.
  std::shared_ptr<KnnModel> BuildModel(
      const Dataset& data,
      std::unique_ptr<const SpatialIndex> prebuilt_index = nullptr) const;

  KnnOptions options_;
  std::shared_ptr<const KnnModel> model_;
};

}  // namespace tkdc

#endif  // TKDC_BASELINES_KNN_H_
