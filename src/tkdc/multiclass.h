#ifndef TKDC_TKDC_MULTICLASS_H_
#define TKDC_TKDC_MULTICLASS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "data/dataset.h"
#include "kde/batch_executor.h"
#include "kde/query_context.h"
#include "tkdc/classifier.h"
#include "tkdc/config.h"
#include "tkdc/density_bounds.h"

namespace tkdc {

/// How a multi-class query was decided (see MultiClassClassifier).
enum class McDecision : uint8_t {
  kNone = 0,
  /// Cross-class elimination left a single survivor.
  kSingleSurvivor,
  /// Every contender's posterior upper bound fell within the (1 + eps)
  /// band of the leader's lower bound.
  kConverged,
  /// Every surviving class's traversal drained: the bounds are exact and
  /// the answer is the true argmax.
  kExact,
};

inline const char* McDecisionName(McDecision decision) {
  switch (decision) {
    case McDecision::kNone:
      return "none";
    case McDecision::kSingleSurvivor:
      return "single_survivor";
    case McDecision::kConverged:
      return "converged";
    case McDecision::kExact:
      return "exact";
  }
  return "unknown";
}

/// One round of a traced multi-class refinement: the per-class certified
/// density bounds and the survivor mask as they stood after the round.
/// Snapshot 0 is the seed state (root bounds, everything alive); the final
/// snapshot is the state at decision time. Tracing allocates — tests and
/// diagnostics only, never benchmarked paths.
struct McRoundSnapshot {
  /// Certified bounds on the *raw* class density f_c(q) (not multiplied by
  /// the prior), one entry per class.
  std::vector<DensityBounds> density;
  /// 1 = still a candidate, 0 = eliminated by the cross-class cutoff.
  std::vector<uint8_t> alive;
};

/// Per-thread state of a multi-class query: one TreeQueryContext (traversal
/// heap + counters) per class, plus the round-robin scratch. The per-class
/// counters are folded into this context's own `stats` at the end of every
/// query, so the base-class MergeCounters/ResetCounters contract holds
/// unchanged and batch totals stay bit-identical at any thread count.
class MultiClassQueryContext : public QueryContext {
 public:
  /// Per-class traversal state; sized lazily by the classifier.
  std::vector<std::unique_ptr<TreeQueryContext>> class_contexts;

  /// Round-robin scratch, reused across queries.
  std::vector<DensityBounds> bounds;
  std::vector<uint8_t> alive;
  std::vector<uint8_t> drained;

  /// Introspection of the most recent query (tests, metrics).
  McDecision last_decision = McDecision::kNone;
  uint32_t last_rounds = 0;
  uint32_t last_survivors = 0;
};

/// Multi-class nonparametric Bayes classification on top of the paper's
/// bound machinery: one immutable TkdcModel per class (trained by the
/// standard pipeline, Algorithm 1), classification by *simultaneous*
/// round-robin bound refinement across the K class trees.
///
/// For a query q the engine maintains a certified posterior interval
/// [prior_c * f_lo_c(q), prior_c * f_hi_c(q)] per class and repeats:
///
///   1. Elimination (the cross-class analogue of Eq. 9): a class c is
///      eliminated as soon as prior_c * f_hi_c < max_j prior_j * f_lo_j
///      over the surviving classes. The rule is *sound* — an eliminated
///      class can never be the exact argmax, because its exact posterior
///      sits below its upper bound, which sits below another class's exact
///      posterior.
///   2. Convergence (the Eq. 9 epsilon band): once every contender's upper
///      posterior is within (1 + eps) of the leader's lower posterior the
///      leader is declared. Any contender's exact posterior then exceeds
///      the declared winner's by at most the relative epsilon band — the
///      same tolerance the single-threshold classifier grants.
///   3. Refinement: each surviving class whose posterior width still
///      exceeds its share eps/m of the leader's lower bound (m = current
///      survivor count — the tolerance budget is split across survivors so
///      the pairwise comparisons cannot compound past eps) receives a small
///      expansion budget; classes already tight enough yield their budget.
///
/// The loop terminates: every refinement round expands at least one node
/// of some class, and a class whose traversal drains has exact bounds.
///
/// Thread model mirrors DensityClassifier: the trained state is immutable,
/// ClassifyInContext is const, scratch lives in MultiClassQueryContext,
/// and ClassifyBatch fans rows across a BatchExecutor with one context per
/// worker — labels and merged counters are bit-identical at every thread
/// count. Train()/Classify()/ClassifyBatch() themselves must not be called
/// concurrently (the facade is externally single-threaded, like every
/// classifier in the lineup).
class MultiClassClassifier {
 public:
  explicit MultiClassClassifier(TkdcConfig config = TkdcConfig());

  MultiClassClassifier(const MultiClassClassifier&) = delete;
  MultiClassClassifier& operator=(const MultiClassClassifier&) = delete;

  /// Upper bound on K accepted by training and the model format.
  static constexpr size_t kMaxClasses = 4096;

  /// Trains one model per distinct label in `row_labels` (parallel to the
  /// rows of `data`; classes are ordered lexicographically by label).
  /// `priors` must either be empty — empirical class frequencies — or hold
  /// one positive weight per class in label order, summing to 1 within
  /// 1e-6. Degenerate inputs (fewer than two classes, a class with fewer
  /// than two rows, bad priors) return an error Status per the repo error
  /// policy; the classifier is left untrained.
  Status Train(const Dataset& data, const std::vector<std::string>& row_labels,
               std::vector<double> priors = {});

  /// Train() with the per-class datasets already split out, in class-label
  /// order. Duplicate or empty labels, empty classes, and bad priors are
  /// rejected with an error Status.
  Status TrainParts(const std::vector<Dataset>& class_data,
                    std::vector<std::string> class_labels,
                    std::vector<double> priors = {});

  /// Adopts already-trained per-class classifiers (model deserialization):
  /// validates the same invariants as training — K >= 2, distinct labels,
  /// priors summing to 1 — plus cross-part consistency (every part trained,
  /// equal dims, equal kernel type). `priors` is required here.
  Status RestoreParts(std::vector<std::unique_ptr<TkdcClassifier>> parts,
                      std::vector<std::string> class_labels,
                      std::vector<double> priors);

  bool trained() const { return !parts_.empty(); }
  size_t num_classes() const { return parts_.size(); }
  size_t dims() const { return parts_.empty() ? 0 : parts_[0]->dims(); }
  const TkdcConfig& config() const { return config_; }
  const std::vector<std::string>& class_labels() const { return labels_; }
  const std::vector<double>& priors() const { return priors_; }

  /// The per-class trained classifier (model IO, benches, tests).
  const TkdcClassifier& class_part(size_t c) const { return *parts_[c]; }

  std::unique_ptr<MultiClassQueryContext> MakeQueryContext() const;

  /// Classifies `x`, returning the class index (into class_labels()).
  uint32_t ClassifyInContext(MultiClassQueryContext& ctx,
                             std::span<const double> x) const {
    return ClassifyImpl(ctx, x, nullptr);
  }

  /// ClassifyInContext with a per-round capture of every class's bounds
  /// and the survivor mask (diagnostics/tests only; allocates).
  uint32_t ClassifyTraced(MultiClassQueryContext& ctx,
                          std::span<const double> x,
                          std::vector<McRoundSnapshot>* trace) const {
    return ClassifyImpl(ctx, x, trace);
  }

  /// Single-query conveniences against the facade's live context.
  uint32_t Classify(std::span<const double> x) {
    return ClassifyInContext(live_context(), x);
  }
  const std::string& ClassifyLabel(std::span<const double> x) {
    return labels_[Classify(x)];
  }

  /// Classifies every row of `queries` through the batch executor; the
  /// returned indices and the merged counters are bit-identical at every
  /// thread count.
  std::vector<uint32_t> ClassifyBatch(const Dataset& queries);

  /// Re-sizes the batch executor (0 = hardware concurrency, 1 = serial).
  void SetNumThreads(size_t num_threads) {
    executor_.SetNumThreads(num_threads);
  }
  size_t num_threads() const { return executor_.num_threads(); }

  /// Attaches (or detaches, nullptr) a metrics registry. Registers the
  /// standard query schema plus the mc.* schema — aggregate counters
  /// (mc.queries, mc.class_eliminations, mc.decided.*), the mc.rounds and
  /// mc.survivors_at_decision histograms, and the per-class cutoff-reason
  /// counters mc.class.<label>.{eliminated,won}. Attach after training for
  /// the per-class names (training re-registers them when a registry is
  /// already attached).
  void AttachMetrics(MetricsRegistry* registry);

  /// Folds the live context's shard into the attached registry.
  void FlushMetrics();
  MetricsRegistry* metrics_registry() const { return registry_; }

  /// Counters of every query answered through this facade (the live
  /// context, which batch calls also merge their per-worker totals into).
  const TraversalStats& query_stats() const {
    static const TraversalStats kEmpty;
    return live_context_ != nullptr ? live_context_->stats : kEmpty;
  }

 private:
  /// Metric ids of the mc.* schema within the attached registry (valid
  /// only while registry_ != nullptr).
  struct McMetricIds {
    size_t queries = 0;
    size_t eliminations = 0;
    size_t decided_single = 0;
    size_t decided_converged = 0;
    size_t decided_exact = 0;
    size_t rounds_hist = 0;
    size_t survivors_hist = 0;
    std::vector<size_t> class_eliminated;  // Per class, label order.
    std::vector<size_t> class_won;
  };

  uint32_t ClassifyImpl(MultiClassQueryContext& ctx, std::span<const double> x,
                        std::vector<McRoundSnapshot>* trace) const;

  /// Adopts validated parts: builds the per-class bound evaluators and
  /// resets query state. Shared tail of TrainParts/RestoreParts.
  void InstallParts(std::vector<std::unique_ptr<TkdcClassifier>> parts,
                    std::vector<std::string> labels,
                    std::vector<double> priors);

  void EnsureScratch(MultiClassQueryContext& ctx) const;
  MultiClassQueryContext& live_context();
  void AttachShard(QueryContext& ctx) const {
    ctx.AttachMetricsShard(registry_ != nullptr ? registry_->NewShard()
                                                : nullptr);
  }
  void RegisterSchema(MetricsRegistry& registry);
  void ResetQueryState() {
    live_context_.reset();
    executor_.InvalidateContexts();
  }

  TkdcConfig config_;
  /// Resolved error budget, frozen by InstallParts (the cross-class loop
  /// reads the traversal share on every query).
  ErrorBudget budget_;
  std::vector<std::unique_ptr<TkdcClassifier>> parts_;
  std::vector<std::string> labels_;
  std::vector<double> priors_;
  /// One stateless bound evaluator per class, borrowing that part's tree,
  /// kernel, and config (all owned by parts_, which outlives this vector).
  std::vector<DensityBoundEvaluator> evaluators_;

  std::unique_ptr<MultiClassQueryContext> live_context_;
  BatchExecutor executor_{1};
  MetricsRegistry* registry_ = nullptr;
  McMetricIds mc_ids_;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_MULTICLASS_H_
