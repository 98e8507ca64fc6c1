// Batch-vs-serial equivalence for every classifier in the lineup. The
// shared BatchExecutor promises bit-identical labels AND bit-identical
// merged counter totals at any thread count; these tests pin that contract
// for each algorithm at 2 and 8 threads. Tree-backed algorithms run once
// per spatial-index backend — the executor's determinism must not depend
// on which geometry the traversal prunes with.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/binned_kde.h"
#include "baselines/knn.h"
#include "baselines/nocut.h"
#include "baselines/rkde.h"
#include "baselines/simple_kde.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/index_backend.h"
#include "kde/delta_overlay.h"
#include "tkdc/classifier.h"

namespace tkdc {
namespace {

std::unique_ptr<DensityClassifier> MakeClassifier(const std::string& name,
                                                  IndexBackend backend) {
  if (name == "tkdc") {
    TkdcConfig config;
    config.num_threads = 1;
    config.index_backend = backend;
    return std::make_unique<TkdcClassifier>(config);
  }
  if (name == "nocut") {
    TkdcConfig config;
    config.num_threads = 1;
    config.index_backend = backend;
    return std::make_unique<NocutClassifier>(config);
  }
  if (name == "simple") {
    return std::make_unique<SimpleKdeClassifier>();
  }
  if (name == "rkde") {
    RkdeOptions options;
    options.base.index_backend = backend;
    return std::make_unique<RkdeClassifier>(options);
  }
  if (name == "binned") {
    return std::make_unique<BinnedKdeClassifier>();
  }
  KnnOptions options;
  options.threshold_sample = 500;
  options.index_backend = backend;
  return std::make_unique<KnnClassifier>(options);
}

void ExpectStatsEqual(const TraversalStats& a, const TraversalStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.kernel_evaluations, b.kernel_evaluations) << what;
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded) << what;
  EXPECT_EQ(a.leaf_points_evaluated, b.leaf_points_evaluated) << what;
  EXPECT_EQ(a.queries, b.queries) << what;
}

using BatchParam = std::tuple<const char*, IndexBackend>;

class BatchEquivalenceTest : public ::testing::TestWithParam<BatchParam> {
 protected:
  BatchEquivalenceTest() {
    Rng rng(17);
    data_ = SampleStandardGaussian(1500, 2, rng);
    Rng qrng(29);
    queries_ = SampleStandardGaussian(500, 2, qrng);
  }

  std::string name() const { return std::get<0>(GetParam()); }
  std::unique_ptr<DensityClassifier> Make() const {
    return MakeClassifier(name(), std::get<1>(GetParam()));
  }

  Dataset data_{2};
  Dataset queries_{2};
};

TEST_P(BatchEquivalenceTest, ParallelBatchBitIdenticalToSerial) {
  // Serial reference: one thread, plus the per-point facade as the ground
  // truth the batch paths must reproduce.
  auto serial = Make();
  serial->Train(data_);
  serial->SetNumThreads(1);
  const std::vector<Classification> fresh_serial =
      serial->ClassifyBatch(queries_);
  const std::vector<Classification> train_serial =
      serial->ClassifyTrainingBatch(data_);
  // Snapshot the serial counters before the per-point spot checks below
  // add their own work.
  const uint64_t serial_evals = serial->kernel_evaluations();
  const uint64_t serial_grid_prunes = serial->grid_prunes();
  const TraversalStats serial_query_stats = serial->query_stats();
  const TraversalStats serial_total_stats = serial->traversal_stats();
  ASSERT_EQ(fresh_serial.size(), queries_.size());
  for (size_t i = 0; i < queries_.size(); i += 41) {
    EXPECT_EQ(fresh_serial[i], serial->Classify(queries_.Row(i)))
        << "row " << i;
  }

  for (const size_t threads : {size_t{2}, size_t{8}}) {
    // A fresh instance per thread count: training is deterministic, so any
    // divergence below is the batch engine's fault, not the model's.
    auto parallel = Make();
    parallel->Train(data_);
    parallel->SetNumThreads(threads);
    ASSERT_EQ(parallel->num_threads(), threads);
    EXPECT_EQ(parallel->ClassifyBatch(queries_), fresh_serial)
        << name() << " fresh labels diverge at " << threads << " threads";
    EXPECT_EQ(parallel->ClassifyTrainingBatch(data_), train_serial)
        << name() << " training labels diverge at " << threads
        << " threads";
    // Counter agreement after the context merge: the per-worker contexts
    // fold into the live context, so every total matches the serial run.
    EXPECT_EQ(parallel->kernel_evaluations(), serial_evals)
        << name() << " at " << threads << " threads";
    EXPECT_EQ(parallel->grid_prunes(), serial_grid_prunes)
        << name() << " at " << threads << " threads";
    ExpectStatsEqual(parallel->query_stats(), serial_query_stats,
                     name() + " query_stats at " +
                         std::to_string(threads) + " threads");
    ExpectStatsEqual(parallel->traversal_stats(), serial_total_stats,
                     name() + " traversal_stats at " +
                         std::to_string(threads) + " threads");
  }
}

TEST_P(BatchEquivalenceTest, SetNumThreadsRepartitionsWithoutRetraining) {
  // One instance cycled through thread counts: the trained model is
  // immutable, so repartitioning the executor never changes labels.
  auto classifier = Make();
  classifier->Train(data_);
  const double threshold = classifier->threshold();
  classifier->SetNumThreads(1);
  const std::vector<Classification> reference =
      classifier->ClassifyBatch(queries_);
  for (const size_t threads : {size_t{2}, size_t{8}, size_t{3}, size_t{1}}) {
    classifier->SetNumThreads(threads);
    EXPECT_EQ(classifier->ClassifyBatch(queries_), reference)
        << name() << " at " << threads << " threads";
    EXPECT_DOUBLE_EQ(classifier->threshold(), threshold);
  }
}

TEST_P(BatchEquivalenceTest, EmptyOverlayIsTheBasePath) {
  // The facade hands the engines a null overlay when nothing is staged, so
  // every overlay verb with an empty DeltaOverlay must answer exactly like
  // its base verb: the same labels, bitwise-equal densities, and the same
  // work counters.
  auto probe = Make();
  if (!probe->supports_overlay()) {
    // knn's order-statistic density folds no overlay; the facade rejects
    // its overlay verbs instead.
    EXPECT_EQ(name(), "knn");
    return;
  }
  const DeltaOverlay empty(data_.dims(), 16);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const std::string what = name() + " at " + std::to_string(threads) +
                             " threads";
    auto base = Make();
    base->Train(data_);
    base->SetNumThreads(threads);
    auto merged = Make();
    merged->Train(data_);
    merged->SetNumThreads(threads);
    EXPECT_EQ(merged->ClassifyBatchWithOverlay(queries_, empty),
              base->ClassifyBatch(queries_))
        << what;
    EXPECT_EQ(merged->ClassifyBatchWithOverlay(data_, empty,
                                               /*training=*/true),
              base->ClassifyTrainingBatch(data_))
        << what;
    for (size_t i = 0; i < queries_.size(); i += 7) {
      const auto x = queries_.Row(i);
      const auto row = data_.Row(i);
      EXPECT_EQ(merged->ClassifyWithOverlay(x, empty), base->Classify(x))
          << what << " row " << i;
      EXPECT_EQ(merged->ClassifyWithOverlay(row, empty, /*training=*/true),
                base->ClassifyTraining(row))
          << what << " row " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(
                    merged->EstimateDensityWithOverlay(x, empty)),
                std::bit_cast<uint64_t>(base->EstimateDensity(x)))
          << what << " row " << i;
    }
    ExpectStatsEqual(merged->query_stats(), base->query_stats(),
                     what + " query_stats");
    EXPECT_EQ(merged->grid_prunes(), base->grid_prunes()) << what;
  }
}

std::string BatchParamName(
    const ::testing::TestParamInfo<BatchParam>& info) {
  return std::string(std::get<0>(info.param)) + "_" +
         IndexBackendName(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, BatchEquivalenceTest,
    ::testing::Combine(::testing::Values("tkdc", "nocut", "simple", "rkde",
                                         "binned", "knn"),
                       ::testing::Values(IndexBackend::kKdTree)),
    BatchParamName);

// The ball-tree lane repeats only the algorithms that actually own a
// spatial index (simple/binned have no tree to swap).
INSTANTIATE_TEST_SUITE_P(
    BallTreeBackend, BatchEquivalenceTest,
    ::testing::Combine(::testing::Values("tkdc", "nocut", "rkde", "knn"),
                       ::testing::Values(IndexBackend::kBallTree)),
    BatchParamName);

}  // namespace
}  // namespace tkdc
