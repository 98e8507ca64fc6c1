#ifndef TKDC_BENCH_PRUNING_LAB_H_
#define TKDC_BENCH_PRUNING_LAB_H_

// Shared measurement rig for the factor analysis (Figure 12) and lesion
// analysis (Figure 16): evaluates the per-query cost of the BoundDensity
// traversal under a chosen set of optimizations, holding the dataset,
// bandwidth, and threshold fixed. Thresholds come from one fully-optimized
// tKDC training pass so that the expensive configurations (e.g. the
// no-pruning baseline, whose training would be quadratic) can still be
// measured on their query path, which is what the paper's figure reports.

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "index/kdtree.h"
#include "kde/bandwidth.h"
#include "kde/kernel.h"
#include "kde/query_metrics.h"
#include "tkdc/classifier.h"
#include "tkdc/density_bounds.h"
#include "tkdc/grid_cache.h"

namespace tkdc {

struct PruningLabResult {
  std::string label;
  double queries_per_second = 0.0;
  double kernel_evals_per_query = 0.0;
  size_t queries = 0;
};

struct PruningLabConfig {
  std::string label;
  bool threshold_rule = false;
  bool tolerance_rule = false;
  bool equiwidth_split = false;  // Off = median split (the plain k-d tree).
  bool grid = false;
};

/// Measures classification of `max_queries` training points under `lab`
/// within `budget_seconds`. `threshold` must be a trained t~(p) for `data`.
///
/// `registry` (optional) collects the standard query-path metrics — prune
/// depth, cutoff reasons, bound gaps — for the measured queries. Recording
/// is a handful of array increments per query, so the throughput numbers
/// stay representative; pass nullptr for the strictly-unobserved loop.
inline PruningLabResult RunPruningLab(const Dataset& data, double threshold,
                                      const PruningLabConfig& lab,
                                      double epsilon, size_t max_queries,
                                      double budget_seconds,
                                      MetricsRegistry* registry = nullptr) {
  TkdcConfig config;
  config.epsilon = epsilon;
  config.use_threshold_rule = lab.threshold_rule;
  config.use_tolerance_rule = lab.tolerance_rule;
  config.split_rule =
      lab.equiwidth_split ? SplitRule::kTrimmedMidpoint : SplitRule::kMedian;

  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data,
                                 config.bandwidth_scale));
  IndexOptions tree_options;
  tree_options.leaf_size = config.leaf_size;
  tree_options.split_rule = config.split_rule;
  tree_options.axis_rule = config.axis_rule;
  KdTree tree(data, tree_options);
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  std::unique_ptr<GridCache> grid;
  if (lab.grid && data.dims() <= GridCache::kMaxDims) {
    grid = std::make_unique<GridCache>(data, kernel);
  }
  const double self = kernel.MaxValue() / static_cast<double>(data.size());
  const double shifted = threshold + self;
  const double tolerance = epsilon * threshold;

  const size_t n = data.size();
  const size_t stride = n / max_queries > 0 ? n / max_queries : 1;
  size_t measured = 0;
  TreeQueryContext ctx;
  if (registry != nullptr) {
    query_metrics::RegisterStandard(*registry);
    ctx.AttachMetricsShard(registry->NewShard());
  }
  const bool observed = ctx.metrics != nullptr;
  WallTimer timer;
  for (size_t i = 0; measured < max_queries; i = (i + stride) % n) {
    const auto x = data.Row(i);
    TraversalStats before;
    uint64_t grid_before = 0;
    if (observed) {
      before = ctx.stats;
      grid_before = ctx.grid_prunes;
    }
    if (grid == nullptr || grid->DensityLowerBound(x) <= shifted) {
      evaluator.BoundDensity(ctx, x, shifted, shifted, tolerance);
    } else {
      ++ctx.grid_prunes;
    }
    if (observed) query_metrics::RecordQuery(ctx, before, grid_before);
    ++measured;
    if (measured >= 16 && timer.ElapsedSeconds() > budget_seconds) break;
  }
  if (observed) registry->Absorb(*ctx.metrics);
  PruningLabResult result;
  result.label = lab.label;
  result.queries = measured;
  result.queries_per_second =
      static_cast<double>(measured) / timer.ElapsedSeconds();
  result.kernel_evals_per_query =
      static_cast<double>(ctx.stats.kernel_evaluations) /
      static_cast<double>(measured);
  return result;
}

}  // namespace tkdc

#endif  // TKDC_BENCH_PRUNING_LAB_H_
