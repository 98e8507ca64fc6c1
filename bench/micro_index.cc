// Microbenchmarks: spatial-index construction, range queries, and the
// BoundDensity traversal at the heart of tKDC. The *Backend benchmarks
// interleave the k-d tree and the ball tree on identical workloads (same
// data, same topology) so build cost, per-query latency, and mean node
// expansions are directly comparable — the ball tree's tighter bounds
// should show as fewer expansions per query once d >= 8.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/stats.h"
#include "data/generators.h"
#include "index/kdtree.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "kde/naive_kde.h"
#include "tkdc/density_bounds.h"

namespace tkdc {
namespace {

void BM_KdTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Dataset data = SampleStandardGaussian(n, 4, rng);
  for (auto _ : state) {
    KdTree tree(data, IndexOptions());
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_KdTreeBuild)->Arg(10'000)->Arg(100'000);

void BM_KdTreeBuildSplitRule(benchmark::State& state) {
  const size_t n = 50'000;
  Rng rng(2);
  const Dataset data = SampleStandardGaussian(n, 4, rng);
  IndexOptions options;
  options.split_rule = static_cast<SplitRule>(state.range(0));
  for (auto _ : state) {
    KdTree tree(data, options);
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
  KdTree tree(data, IndexOptions());
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
  KdTree tree(data, IndexOptions());
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

// --- Backend comparison: k-d tree vs ball tree -------------------------

void BM_IndexBuildBackend(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto backend = static_cast<IndexBackend>(state.range(1));
  Rng rng(1);
  const Dataset data = SampleStandardGaussian(n, 4, rng);
  IndexOptions options;
  options.backend = backend;
  for (auto _ : state) {
    const auto tree = BuildIndex(data, options);
    benchmark::DoNotOptimize(tree->num_nodes());
  }
  state.SetLabel(IndexBackendName(backend));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_IndexBuildBackend)
    ->ArgsProduct({{10'000, 100'000},
                   {static_cast<int>(IndexBackend::kKdTree),
                    static_cast<int>(IndexBackend::kBallTree)}});

// BoundDensity across dimensions at fixed n, per backend. The nodes/query
// counter is the pruning-power headline: fewer expansions for the same
// certified answer means tighter per-node bounds. Two data shapes:
// isotropic Gaussian (a single axis-aligned blob, the k-d tree's best
// case: near-field box faces hug the query) and a well-separated Gaussian
// mixture (the traversal cost is dominated by bounding the far-field
// cluster contributions, where the box's corner slack grows like sqrt(d)
// while the ball's dc +/- r stays tight — the regime where the ball tree
// expands fewer nodes from d=8 up).
void BM_BoundDensityBackendDim(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto backend = static_cast<IndexBackend>(state.range(1));
  const bool clustered = state.range(2) != 0;
  const size_t n = 20'000;
  Rng rng(5);
  const Dataset data =
      clustered ? RandomGaussianMixture(d, /*k=*/16, /*spread=*/12.0,
                                        /*scale_lo=*/0.3, /*scale_hi=*/1.0,
                                        rng)
                      .Sample(n, rng)
                : SampleStandardGaussian(n, d, rng);
  TkdcConfig config;
  config.index_backend = backend;
  Kernel kernel(config.kernel,
                SelectBandwidths(config.bandwidth_rule, data, 1.0));
  const auto tree =
      BuildIndex(data, config.MakeIndexOptions(kernel.inverse_bandwidths()));
  DensityBoundEvaluator evaluator(tree.get(), &kernel, &config);
  // A plausible threshold for the classification regime: the 1% quantile
  // of exact densities over a small training sample.
  NaiveKde naive(data, kernel);
  std::vector<double> sample_densities;
  for (size_t i = 0; i < 200; ++i) {
    sample_densities.push_back(naive.Density(data.Row(i * 97 % n)));
  }
  const double t = Quantile(sample_densities, 0.01);
  TreeQueryContext ctx;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.BoundDensity(ctx, data.Row(i), t, t));
    i = (i + 997) % n;
  }
  state.SetLabel(IndexBackendName(backend) +
                 (clustered ? "/clusters" : "/gauss"));
  state.SetItemsProcessed(state.iterations());
  state.counters["nodes/q"] =
      ctx.stats.queries > 0
          ? static_cast<double>(ctx.stats.nodes_expanded) /
                static_cast<double>(ctx.stats.queries)
          : 0.0;
  state.counters["kevals/q"] =
      ctx.stats.queries > 0
          ? static_cast<double>(ctx.stats.kernel_evaluations) /
                static_cast<double>(ctx.stats.queries)
          : 0.0;
}
BENCHMARK(BM_BoundDensityBackendDim)
    ->ArgsProduct({{2, 4, 8, 16, 32},
                   {static_cast<int>(IndexBackend::kKdTree),
                    static_cast<int>(IndexBackend::kBallTree)},
                   {0, 1}});

void BM_RangeQueryBackend(benchmark::State& state) {
  const size_t n = 100'000;
  const auto backend = static_cast<IndexBackend>(state.range(1));
  Rng rng(3);
  const Dataset data = SampleStandardGaussian(n, 2, rng);
  IndexOptions options;
  options.backend = backend;
  options.scale = {10.0, 10.0};  // Ball radii in the query metric.
  const auto tree = BuildIndex(data, std::move(options));
  const std::vector<double> inv_bw{10.0, 10.0};  // h = 0.1.
  const double radius_sq =
      static_cast<double>(state.range(0)) * static_cast<double>(state.range(0));
  std::vector<size_t> hits;
  size_t i = 0;
  for (auto _ : state) {
    hits.clear();
    tree->CollectWithinScaledRadius(data.Row(i), inv_bw, radius_sq, &hits);
    benchmark::DoNotOptimize(hits.size());
    i = (i + 997) % n;
  }
  state.SetLabel(IndexBackendName(backend));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RangeQueryBackend)
    ->ArgsProduct({{1, 4, 16},
                   {static_cast<int>(IndexBackend::kKdTree),
                    static_cast<int>(IndexBackend::kBallTree)}});

}  // namespace
}  // namespace tkdc
