// Microbenchmarks for the parallel batch engine:
//   1. scratch-buffer reuse — BoundDensity with a long-lived QueryContext
//      (heap storage kept warm across queries) vs. a freshly constructed
//      context per query (cold scratch, per-query allocation);
//   2. batch-classification scaling at 1/2/4/8 worker threads (speedup is
//      bounded by the machine's hardware concurrency — on a single-core
//      container every thread count measures the same work plus pool
//      overhead);
//   3. raw ThreadPool::ParallelFor dispatch overhead.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"
#include "kde/bandwidth.h"
#include "tkdc/classifier.h"
#include "tkdc/density_bounds.h"

namespace tkdc {
namespace {

constexpr size_t kTrainN = 40'000;
constexpr size_t kBatchQueries = 2'000;

struct Fixture {
  Dataset data;
  TkdcConfig config;
  SpatialIndex tree;
  Kernel kernel;

  static Fixture& Get() {
    static Fixture fixture;
    return fixture;
  }

 private:
  Fixture()
      : data(MakeData()),
        tree(data, IndexOptions()),
        kernel(KernelType::kGaussian,
               SelectBandwidths(BandwidthRule::kScott, data, 1.0)) {}

  static Dataset MakeData() {
    Rng rng(7);
    return SampleStandardGaussian(kTrainN, 2, rng);
  }
};

void BM_BoundDensityReusedScratch(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  DensityBoundEvaluator evaluator(&f.tree, &f.kernel, &f.config);
  TreeQueryContext ctx;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluator.BoundDensity(ctx, f.data.Row(i), 0.01, 0.01, 1e-4));
    i = (i + 997) % kTrainN;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundDensityReusedScratch);

void BM_BoundDensityFreshContext(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  DensityBoundEvaluator evaluator(&f.tree, &f.kernel, &f.config);
  size_t i = 0;
  for (auto _ : state) {
    // A new context per query: the traversal heap starts cold, so every
    // query pays its allocations again. The delta against ReusedScratch is
    // what the per-thread QueryContext reuse in BatchExecutor buys.
    TreeQueryContext ctx;
    benchmark::DoNotOptimize(
        evaluator.BoundDensity(ctx, f.data.Row(i), 0.01, 0.01, 1e-4));
    i = (i + 997) % kTrainN;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoundDensityFreshContext);

void BM_ClassifyBatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Fixture& f = Fixture::Get();
  static std::unique_ptr<TkdcClassifier> classifier;
  if (classifier == nullptr) {
    TkdcConfig config;
    config.num_threads = 1;
    classifier = std::make_unique<TkdcClassifier>(config);
    classifier->Train(f.data);
  }
  classifier->SetNumThreads(threads);
  Dataset queries(f.data.dims());
  queries.Reserve(kBatchQueries);
  for (size_t i = 0; i < kBatchQueries; ++i) {
    queries.AppendRow(f.data.Row((i * 617) % kTrainN));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier->ClassifyTrainingBatch(queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBatchQueries));
}
// Wall-clock time, not summed CPU time: with T workers the CPU column adds
// their busy time together, which would overstate items/s by up to T×.
BENCHMARK(BM_ClassifyBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ParallelForDispatch(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads);
  std::vector<double> sums(pool.num_threads(), 0.0);
  for (auto _ : state) {
    pool.ParallelFor(4096, 64, [&](size_t slot, size_t begin, size_t end) {
      double local = 0.0;
      for (size_t i = begin; i < end; ++i) {
        local += static_cast<double>(i);
      }
      sums[slot] += local;
    });
  }
  benchmark::DoNotOptimize(sums.data());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
}  // namespace tkdc
