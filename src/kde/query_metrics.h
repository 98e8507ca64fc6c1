#ifndef TKDC_KDE_QUERY_METRICS_H_
#define TKDC_KDE_QUERY_METRICS_H_

#include <cstdint>

#include "common/metrics.h"
#include "kde/query_context.h"

namespace tkdc {

/// The standard query-path metrics schema, shared by every algorithm in
/// the lineup (tkdc/nocut/simple/rkde/binned/knn) so cross-algorithm work
/// comparisons come from one code path:
///
///   - the DensityClassifier facade records the per-query histograms
///     (prune depth, leaf points, kernel evaluations) and the query/grid
///     counters by diffing the context's TraversalStats around each
///     ClassifyInContext / EstimateDensityInContext call;
///   - the tKDC bound evaluator additionally records the cutoff-reason
///     counters and the final bound-gap histogram, which only exist for
///     bounded tree traversals.
///
/// The ids below are compile-time constants: RegisterStandard() registers
/// the metrics in exactly this order (idempotently, so several attach
/// points can share one registry) and shards made from such a registry can
/// be indexed with them directly.
namespace query_metrics {

// Counter ids.
inline constexpr size_t kQueries = 0;
inline constexpr size_t kGridPrunes = 1;
inline constexpr size_t kCutoffLowerAboveThreshold = 2;
inline constexpr size_t kCutoffUpperBelowThreshold = 3;
inline constexpr size_t kCutoffTolerance = 4;
inline constexpr size_t kCutoffExactLeaf = 5;
inline constexpr size_t kCounterCount = 6;

// Histogram ids (a separate id space from counters).
inline constexpr size_t kPruneDepth = 0;
inline constexpr size_t kLeafPoints = 1;
inline constexpr size_t kKernelEvals = 2;
inline constexpr size_t kBoundGap = 3;
inline constexpr size_t kHistogramCount = 4;

/// Registers the standard schema on `registry`. Idempotent; the returned
/// ids are guaranteed to equal the constants above, whether the registry
/// was fresh or already carried the schema.
void RegisterStandard(MetricsRegistry& registry);

/// Records one classified/estimated query into `ctx.metrics` from the
/// counter deltas accumulated during the call. `before` / `grid_before`
/// are snapshots of ctx.stats / ctx.grid_prunes taken before the query
/// ran. No-op when no shard is attached.
inline void RecordQuery(QueryContext& ctx, const TraversalStats& before,
                        uint64_t grid_before) {
  if (ctx.metrics == nullptr) return;
  MetricsShard& m = *ctx.metrics;
  m.Inc(kQueries);
  m.Inc(kGridPrunes, ctx.grid_prunes - grid_before);
  m.Observe(kPruneDepth, static_cast<double>(ctx.stats.nodes_expanded -
                                             before.nodes_expanded));
  m.Observe(kLeafPoints, static_cast<double>(ctx.stats.leaf_points_evaluated -
                                             before.leaf_points_evaluated));
  m.Observe(kKernelEvals, static_cast<double>(ctx.stats.kernel_evaluations -
                                              before.kernel_evaluations));
}

}  // namespace query_metrics

}  // namespace tkdc

#endif  // TKDC_KDE_QUERY_METRICS_H_
