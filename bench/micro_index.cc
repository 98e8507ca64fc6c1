// Microbenchmarks: spatial-index construction, range queries, and the
// BoundDensity traversal at the heart of tKDC.

#include <memory>

#include <benchmark/benchmark.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "tkdc/density_bounds.h"

namespace tkdc {
namespace {

// Args: n, dims, leaf size, pool slots (1 = serial, no pool). The
// n = 1M, d = 2, leaf 128 rows match perfbench's outlier_gauss2d skeleton.
void BM_KdTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  IndexOptions options;
  options.leaf_size = static_cast<size_t>(state.range(2));
  const size_t slots = static_cast<size_t>(state.range(3));
  Rng rng(1);
  const Dataset data = SampleStandardGaussian(n, dims, rng);
  std::unique_ptr<ThreadPool> pool;
  if (slots > 1) pool = std::make_unique<ThreadPool>(slots);
  for (auto _ : state) {
    SpatialIndex tree(data, options, pool.get());
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeBuild)
    ->ArgNames({"n", "d", "leaf", "slots"})
    ->Args({10'000, 4, 32, 1})
    ->Args({10'000, 4, 32, 4})
    ->Args({100'000, 4, 32, 1})
    ->Args({100'000, 4, 32, 4})
    ->Args({1'000'000, 2, 128, 1})
    ->Args({1'000'000, 2, 128, 4})
    ->Unit(benchmark::kMillisecond);

void BM_KdTreeBuildSplitRule(benchmark::State& state) {
  const size_t n = 50'000;
  Rng rng(2);
  const Dataset data = SampleStandardGaussian(n, 4, rng);
  IndexOptions options;
  options.split_rule = static_cast<SplitRule>(state.range(0));
  for (auto _ : state) {
    SpatialIndex tree(data, options);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeBuildSplitRule)
    ->Arg(static_cast<int>(SplitRule::kMedian))
    ->Arg(static_cast<int>(SplitRule::kMidpoint))
    ->Arg(static_cast<int>(SplitRule::kTrimmedMidpoint));

void BM_RangeQuery(benchmark::State& state) {
  const size_t n = 100'000;
  Rng rng(3);
  const Dataset data = SampleStandardGaussian(n, 2, rng);
  SpatialIndex tree(data, IndexOptions());
  const std::vector<double> inv_bw{10.0, 10.0};  // h = 0.1.
  const double radius_sq =
      static_cast<double>(state.range(0)) * static_cast<double>(state.range(0));
  std::vector<size_t> hits;
  size_t i = 0;
  for (auto _ : state) {
    hits.clear();
    tree.CollectWithinScaledRadius(data.Row(i), inv_bw, radius_sq, &hits);
    benchmark::DoNotOptimize(hits.size());
    i = (i + 997) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeQuery)->Arg(1)->Arg(4)->Arg(16);

void BM_BoundDensityQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  const Dataset data = SampleStandardGaussian(n, 2, rng);
  static TkdcConfig config;
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data, 1.0));
  SpatialIndex tree(data, IndexOptions());
  DensityBoundEvaluator evaluator(&tree, &kernel, &config);
  TreeQueryContext ctx;
  // A plausible 1%-quantile threshold for 2-d standard normal KDE.
  const double t = 3e-4;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.BoundDensity(ctx, data.Row(i), t, t));
    i = (i + 997) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundDensityQuery)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

}  // namespace
}  // namespace tkdc
