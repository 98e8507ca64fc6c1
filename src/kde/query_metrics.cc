#include "kde/query_metrics.h"

#include "common/macros.h"

namespace tkdc {
namespace query_metrics {

void RegisterStandard(MetricsRegistry& registry) {
  // Counts-per-query work: exponential buckets up to ~1M cover everything
  // from a grid-pruned no-op to an exhaustive scan of a large training set.
  std::vector<double> work = MetricsRegistry::PowerOfTwoBounds(21);
  // Relative bound gaps: decades from "resolved to machine precision"
  // through "barely refined at all".
  std::vector<double> gap = MetricsRegistry::DecadeBounds(-9, 3);

  TKDC_CHECK(registry.AddCounter("query.queries") == kQueries);
  TKDC_CHECK(registry.AddCounter("query.grid_prunes") == kGridPrunes);
  TKDC_CHECK(registry.AddCounter("cutoff.lower_above_threshold") ==
             kCutoffLowerAboveThreshold);
  TKDC_CHECK(registry.AddCounter("cutoff.upper_below_threshold") ==
             kCutoffUpperBelowThreshold);
  TKDC_CHECK(registry.AddCounter("cutoff.tolerance") == kCutoffTolerance);
  TKDC_CHECK(registry.AddCounter("cutoff.exact_leaf") == kCutoffExactLeaf);
  TKDC_CHECK(registry.AddHistogram("query.prune_depth", work) == kPruneDepth);
  TKDC_CHECK(registry.AddHistogram("query.leaf_points", work) == kLeafPoints);
  TKDC_CHECK(registry.AddHistogram("query.kernel_evals", std::move(work)) ==
             kKernelEvals);
  TKDC_CHECK(registry.AddHistogram("query.bound_gap_rel", std::move(gap)) ==
             kBoundGap);
}

}  // namespace query_metrics
}  // namespace tkdc
