#ifndef TKDC_KDE_DENSITY_CLASSIFIER_H_
#define TKDC_KDE_DENSITY_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "data/dataset.h"
#include "kde/batch_executor.h"
#include "kde/query_context.h"
#include "kde/query_metrics.h"

namespace tkdc {

class DeltaOverlay;

/// Outcome of one density classification (paper Problem 1).
enum class Classification {
  kLow,   ///< f(x) below the threshold.
  kHigh,  ///< f(x) above the threshold.
};

/// Common interface for every density-classification algorithm in the
/// evaluation (tKDC and the simple / nocut / rkde / binned / knn
/// baselines), layered as model / engine / context:
///
///   - Train() produces an immutable *trained model* (index structures,
///     kernel, bandwidths, threshold) owned by the subclass and safe to
///     share across threads and to serialize (model_io).
///   - The subclass itself is the stateless *query engine*: its
///     ClassifyInContext / EstimateDensityInContext overrides are `const`
///     and read only the model.
///   - All query-time mutability lives in a per-thread *QueryContext*
///     (scratch buffers + work counters) built by MakeQueryContext().
///
/// The base class supplies the public facade on top of those hooks: the
/// per-point Classify family runs in a long-lived "live" context, and the
/// batch family fans rows across a shared BatchExecutor — so every
/// subclass gets deterministic parallel ClassifyBatch /
/// ClassifyTrainingBatch with bit-identical labels and counter totals at
/// any thread count, for free.
///
/// Usage: construct, Train() once on the training set (which also fixes
/// the quantile threshold t(p)), then Classify() any number of query
/// points.
class DensityClassifier {
 public:
  DensityClassifier() = default;
  virtual ~DensityClassifier() = default;

  DensityClassifier(const DensityClassifier&) = delete;
  DensityClassifier& operator=(const DensityClassifier&) = delete;

  /// Algorithm name as used in the paper's plots ("tkdc", "simple", ...).
  virtual std::string name() const = 0;

  /// Trains on `data`: builds the immutable model (indexes, bandwidths)
  /// and estimates the threshold t(p). Implementations must call
  /// ResetQueryState() so post-training query counters start at zero.
  virtual void Train(const Dataset& data) = 0;

  /// Whether Train() (or a model_io restore) has produced a model.
  virtual bool trained() const = 0;

  /// Dimensionality of the trained model's input space; 0 when untrained.
  virtual size_t dims() const = 0;

  /// The trained threshold estimate t~(p). Only valid after Train().
  virtual double threshold() const = 0;

  /// Number of training points behind the model, 0 when untrained (or
  /// unknown). The streaming serve layer sizes rebuild triggers and
  /// staleness fractions with it without knowing the concrete model type.
  virtual size_t training_size() const { return 0; }

  // --- Engine hooks (the per-algorithm query engine) --------------------

  /// Builds a query context of the dynamic type this engine expects, with
  /// fresh counters and empty scratch. Contexts are independent: one per
  /// thread, never shared.
  virtual std::unique_ptr<QueryContext> MakeQueryContext() const = 0;

  /// Classifies `x` against the trained threshold using `ctx` for scratch
  /// and counters. `training` selects the self-corrected comparison for
  /// points that belong to the training set: the threshold t(p) is a
  /// quantile of densities f(x_i) - K_H(0)/n (paper Eq. 1), so a training
  /// point must discount its own kernel contribution — otherwise, for
  /// small n or higher d, the self-term alone can mark every training
  /// point HIGH.
  ///
  /// `overlay` is null for the base model. Otherwise it holds staged
  /// streaming mutations (kde/delta_overlay.h) and the engine answers for
  /// the *merged* model: with n_b base points and
  /// n_eff = n_b + inserted - tombstones, the decision density is
  /// f'(x) = (n_b * f_base(x) + Delta(x)) / n_eff, compared to the trained
  /// threshold (self-corrected by K(0)/n_eff when `training`). The facade
  /// passes a non-null overlay only when supports_overlay() and something
  /// is staged, so no engine tests for emptiness itself.
  virtual Classification ClassifyInContext(QueryContext& ctx,
                                           std::span<const double> x,
                                           bool training,
                                           const DeltaOverlay* overlay)
      const = 0;

  /// Point estimate of the density at `x` (midpoint of bounds for bounded
  /// algorithms), of the merged model when `overlay` is non-null (same
  /// contract as ClassifyInContext). Used by the accuracy experiments.
  virtual double EstimateDensityInContext(QueryContext& ctx,
                                          std::span<const double> x,
                                          const DeltaOverlay* overlay)
      const = 0;

  // --- Streaming (kde/delta_overlay.h) ----------------------------------

  /// Whether this engine can fold a DeltaOverlay of staged inserts and
  /// deletions into its answers. Engines whose density is an additive
  /// kernel sum (tkdc, nocut, simple, rkde, binned) override this to true;
  /// knn's order-statistic density has no additive decomposition, so it
  /// stays false and the serving layer rejects streaming verbs for it.
  virtual bool supports_overlay() const { return false; }

  /// Copies the training rows (original row order) into `*out`, replacing
  /// its contents — the base half of a streaming rebuild's merged dataset.
  /// Returns false when the engine does not retain its training points
  /// (binned keeps only the grid), in which case `*out` is untouched.
  virtual bool ExportTrainingData(Dataset* /*out*/) const { return false; }

  // --- Facade (shared by every algorithm) -------------------------------

  /// Classifies a fresh query point in the live context.
  Classification Classify(std::span<const double> x) {
    TKDC_CHECK_MSG(trained(), "Classify called before Train");
    return ClassifyPoint(x, /*training=*/false, nullptr);
  }

  /// Classifies a point that belongs to the training set (self-corrected;
  /// the entry point for the paper's outlier-detection workload of scoring
  /// the dataset against itself).
  Classification ClassifyTraining(std::span<const double> x) {
    TKDC_CHECK_MSG(trained(), "ClassifyTraining called before Train");
    return ClassifyPoint(x, /*training=*/true, nullptr);
  }

  /// Density point estimate in the live context.
  double EstimateDensity(std::span<const double> x) {
    TKDC_CHECK_MSG(trained(), "EstimateDensity called before Train");
    return EstimatePoint(x, nullptr);
  }

  /// Classifies every row of `queries`, returning one label per row in row
  /// order. Rows fan out across the executor's threads; labels and merged
  /// counters are bit-identical to the serial path at any thread count.
  std::vector<Classification> ClassifyBatch(const Dataset& queries) {
    return ClassifyBatchImpl(queries, /*training=*/false, nullptr);
  }

  /// Batch counterpart of ClassifyTraining() (self-corrected densities);
  /// same determinism contract as ClassifyBatch.
  std::vector<Classification> ClassifyTrainingBatch(const Dataset& queries) {
    return ClassifyBatchImpl(queries, /*training=*/true, nullptr);
  }

  /// Classify() against the merged model base + overlay (live context).
  /// Requires supports_overlay(). The overlay must be mutation-quiescent
  /// for the duration of the call (see kde/delta_overlay.h). An empty
  /// overlay answers exactly like Classify() / ClassifyTraining().
  Classification ClassifyWithOverlay(std::span<const double> x,
                                     const DeltaOverlay& overlay,
                                     bool training = false) {
    TKDC_CHECK_MSG(trained(), "ClassifyWithOverlay called before Train");
    return ClassifyPoint(x, training, StagedOverlay(overlay));
  }

  /// EstimateDensity() against the merged model (live context).
  double EstimateDensityWithOverlay(std::span<const double> x,
                                    const DeltaOverlay& overlay) {
    TKDC_CHECK_MSG(trained(), "EstimateDensityWithOverlay called before Train");
    return EstimatePoint(x, StagedOverlay(overlay));
  }

  /// ClassifyBatch() against the merged model: same executor fan-out and
  /// determinism contract, every row folding the same quiescent overlay.
  std::vector<Classification> ClassifyBatchWithOverlay(
      const Dataset& queries, const DeltaOverlay& overlay,
      bool training = false) {
    return ClassifyBatchImpl(queries, training, StagedOverlay(overlay));
  }

  /// Re-sizes the batch executor without touching the trained model; the
  /// next batch call repartitions. 0 = hardware concurrency, 1 = serial.
  void SetNumThreads(size_t num_threads) {
    executor_.SetNumThreads(num_threads);
  }

  /// Resolved worker count of the batch executor (never 0).
  size_t num_threads() const { return executor_.num_threads(); }

  /// Cumulative kernel evaluations across Train() and every query since.
  uint64_t kernel_evaluations() const {
    return train_stats_.kernel_evaluations +
           live_query_stats().kernel_evaluations;
  }

  /// Counters for post-training queries only (live context + merged batch
  /// workers). Zero right after Train().
  const TraversalStats& query_stats() const { return live_query_stats(); }

  /// Total work: training plus every query since.
  TraversalStats traversal_stats() const {
    TraversalStats total = train_stats_;
    total.Add(live_query_stats());
    return total;
  }

  /// Grid-cache hits (paper Section 3.7) across training and queries;
  /// stays 0 for algorithms without a grid.
  uint64_t grid_prunes() const {
    return train_grid_prunes_ +
           (live_context_ ? live_context_->grid_prunes : 0);
  }

  // --- Observability (common/metrics.h) ---------------------------------

  /// Attaches a metrics registry: registers the standard query-path schema
  /// (query_metrics::RegisterStandard) on it and gives the live context —
  /// and every batch-worker context created from now on — a per-thread
  /// shard. Pass nullptr to detach; detached is the default, and every
  /// recording site then reduces to one pointer check, so the query path
  /// keeps its plain TraversalStats accounting and nothing else.
  ///
  /// The registry is borrowed and must outlive the attachment. One
  /// registry may be attached to several classifiers (e.g. the whole
  /// baseline lineup) when a pooled view is wanted; attach distinct
  /// registries for per-algorithm breakdowns.
  void AttachMetrics(MetricsRegistry* registry);

  /// Folds the live context's shard (which already holds every batch
  /// worker's merged counts) into the attached registry and clears the
  /// shard, so repeated flushes never double-count. No-op when detached.
  void FlushMetrics();

  /// The attached registry, or nullptr when detached.
  MetricsRegistry* metrics_registry() const { return registry_; }

 protected:
  /// The long-lived context serving the per-point facade and collecting
  /// merged batch counters. Built lazily via MakeQueryContext().
  QueryContext& live_context();

  /// Drops the live context (query counters restart at zero) and the
  /// executor's cached worker contexts (their scratch is sized to the old
  /// model). Train() and restore paths call this after swapping in a new
  /// model.
  void ResetQueryState() {
    live_context_.reset();
    executor_.InvalidateContexts();
  }

  /// The shared batch executor, for subclasses that parallelize parts of
  /// training (e.g. tKDC's Phase 3 density pass) through the same
  /// deterministic fan-out.
  BatchExecutor& executor() { return executor_; }

  /// Work performed by Train(), snapshotted by the subclass (bootstrap +
  /// training passes). Reported via kernel_evaluations() and
  /// traversal_stats() but excluded from query_stats().
  TraversalStats train_stats_;
  /// Grid-cache hits during training passes.
  uint64_t train_grid_prunes_ = 0;

 private:
  /// The overlay the engine hooks see: null when nothing is staged, so an
  /// empty overlay answers exactly like the base model. CHECK-fails unless
  /// supports_overlay().
  const DeltaOverlay* StagedOverlay(const DeltaOverlay& overlay) const;

  /// The one batch body: ClassifyInContext over every row of `queries`,
  /// fanned across the executor and recorded per row.
  std::vector<Classification> ClassifyBatchImpl(const Dataset& queries,
                                                bool training,
                                                const DeltaOverlay* overlay);

  /// Runs one engine-hook call `query` on `ctx` with metrics recording:
  /// snapshots the context's counters, runs the query, and books the
  /// deltas into the context's shard. A single null check when metrics are
  /// detached.
  template <typename Query>
  auto Observed(QueryContext& ctx, const Query& query) const {
    if (ctx.metrics == nullptr) return query();
    const TraversalStats before = ctx.stats;
    const uint64_t grid_before = ctx.grid_prunes;
    const auto result = query();
    query_metrics::RecordQuery(ctx, before, grid_before);
    return result;
  }

  Classification ClassifyPoint(std::span<const double> x, bool training,
                               const DeltaOverlay* overlay) {
    QueryContext& ctx = live_context();
    return Observed(
        ctx, [&] { return ClassifyInContext(ctx, x, training, overlay); });
  }

  double EstimatePoint(std::span<const double> x,
                       const DeltaOverlay* overlay) {
    QueryContext& ctx = live_context();
    return Observed(ctx,
                    [&] { return EstimateDensityInContext(ctx, x, overlay); });
  }

  /// Gives `ctx` a shard of the attached registry (no-op when detached).
  void AttachShard(QueryContext& ctx) const {
    ctx.AttachMetricsShard(registry_ != nullptr ? registry_->NewShard()
                                                : nullptr);
  }

  const TraversalStats& live_query_stats() const {
    static const TraversalStats kEmpty;
    return live_context_ ? live_context_->stats : kEmpty;
  }

  std::unique_ptr<QueryContext> live_context_;
  BatchExecutor executor_{1};
  MetricsRegistry* registry_ = nullptr;
};

}  // namespace tkdc

#endif  // TKDC_KDE_DENSITY_CLASSIFIER_H_
