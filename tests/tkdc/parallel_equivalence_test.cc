// Serial-vs-parallel equivalence for the batch query engine: training and
// batch classification must be BIT-identical for every thread count —
// thresholds, bootstrap bounds, per-row training densities, labels, and
// (because TraversalStats::Add is order-insensitive) the merged work
// counters. This is the determinism guarantee of DESIGN.md § "Threading
// model", and the test the TSan build runs to certify the engine race-free
// (see README / EXPERIMENTS.md for the TKDC_SANITIZE=thread invocation).

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/rkde.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"
#include "tkdc/classifier.h"
#include "tkdc/multi_threshold.h"

namespace tkdc {
namespace {

constexpr size_t kTrainN = 3000;
constexpr size_t kQueries = 1000;

Dataset TrainingData() {
  Rng rng(21);
  return SampleStandardGaussian(kTrainN, 2, rng);
}

Dataset FreshQueries() {
  Rng rng(22);
  // Spread beyond the training mass so both labels occur.
  Dataset queries(2);
  queries.Reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    queries.AppendRow(
        std::vector<double>{rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)});
  }
  return queries;
}

struct Snapshot {
  double threshold;
  double threshold_lower;
  double threshold_upper;
  size_t bootstrap_iterations;
  size_t bootstrap_backoffs;
  std::vector<double> training_densities;
  uint64_t train_grid_prunes;
  TraversalStats train_stats;
  std::vector<Classification> training_labels;
  std::vector<Classification> fresh_labels;
  uint64_t total_grid_prunes;
  TraversalStats total_stats;
};

Snapshot RunWithThreads(size_t num_threads) {
  const Dataset data = TrainingData();
  const Dataset fresh = FreshQueries();
  TkdcConfig config;
  config.num_threads = num_threads;
  TkdcClassifier classifier(config);
  classifier.Train(data);

  Snapshot snap;
  snap.threshold = classifier.threshold();
  snap.threshold_lower = classifier.threshold_lower();
  snap.threshold_upper = classifier.threshold_upper();
  snap.bootstrap_iterations = classifier.bootstrap_result().iterations;
  snap.bootstrap_backoffs = classifier.bootstrap_result().backoffs;
  snap.training_densities = classifier.training_densities();
  snap.train_grid_prunes = classifier.grid_prunes();
  snap.train_stats = classifier.traversal_stats();
  snap.training_labels = classifier.ClassifyTrainingBatch(data.Head(kQueries));
  snap.fresh_labels = classifier.ClassifyBatch(fresh);
  snap.total_grid_prunes = classifier.grid_prunes();
  snap.total_stats = classifier.traversal_stats();
  return snap;
}

void ExpectStatsEqual(const TraversalStats& a, const TraversalStats& b) {
  EXPECT_EQ(a.kernel_evaluations, b.kernel_evaluations);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.leaf_points_evaluated, b.leaf_points_evaluated);
  EXPECT_EQ(a.queries, b.queries);
}

void ExpectSnapshotsEqual(const Snapshot& serial, const Snapshot& parallel) {
  // Trained state: thresholds and every training density, exactly.
  EXPECT_EQ(serial.threshold, parallel.threshold);
  EXPECT_EQ(serial.threshold_lower, parallel.threshold_lower);
  EXPECT_EQ(serial.threshold_upper, parallel.threshold_upper);
  EXPECT_EQ(serial.bootstrap_iterations, parallel.bootstrap_iterations);
  EXPECT_EQ(serial.bootstrap_backoffs, parallel.bootstrap_backoffs);
  ASSERT_EQ(serial.training_densities.size(),
            parallel.training_densities.size());
  for (size_t i = 0; i < serial.training_densities.size(); ++i) {
    EXPECT_EQ(serial.training_densities[i], parallel.training_densities[i])
        << "row " << i;
  }

  // Work accounting: identical total work, merged in any order.
  EXPECT_EQ(serial.train_grid_prunes, parallel.train_grid_prunes);
  ExpectStatsEqual(serial.train_stats, parallel.train_stats);

  // Batch classification: identical labels for training-point and
  // fresh-point queries, and identical post-query counters.
  EXPECT_EQ(serial.training_labels, parallel.training_labels);
  EXPECT_EQ(serial.fresh_labels, parallel.fresh_labels);
  EXPECT_EQ(serial.total_grid_prunes, parallel.total_grid_prunes);
  ExpectStatsEqual(serial.total_stats, parallel.total_stats);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelEquivalenceTest, MatchesSerialBitForBit) {
  ExpectSnapshotsEqual(RunWithThreads(1), RunWithThreads(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(2, 8));

TEST(ParallelEquivalenceTest, SetNumThreadsRepartitionsWithoutRetraining) {
  const Dataset data = TrainingData();
  TkdcConfig config;
  config.num_threads = 1;
  TkdcClassifier classifier(config);
  classifier.Train(data);
  const Dataset queries = data.Head(500);

  const std::vector<Classification> serial =
      classifier.ClassifyTrainingBatch(queries);
  const double threshold = classifier.threshold();
  for (const size_t threads : {2u, 5u, 8u}) {
    classifier.SetNumThreads(threads);
    EXPECT_EQ(classifier.num_threads(), threads);
    EXPECT_EQ(classifier.ClassifyTrainingBatch(queries), serial)
        << "threads=" << threads;
    EXPECT_EQ(classifier.threshold(), threshold);
  }
  // Back to serial: still identical.
  classifier.SetNumThreads(1);
  EXPECT_EQ(classifier.ClassifyTrainingBatch(queries), serial);
}

TEST(ParallelEquivalenceTest, BatchAgreesWithPerPointCalls) {
  const Dataset data = TrainingData();
  const Dataset fresh = FreshQueries();
  TkdcConfig config;
  config.num_threads = 4;
  TkdcClassifier classifier(config);
  classifier.Train(data);

  const std::vector<Classification> batch = classifier.ClassifyBatch(fresh);
  ASSERT_EQ(batch.size(), fresh.size());
  size_t high = 0;
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(batch[i], classifier.Classify(fresh.Row(i))) << "row " << i;
    if (batch[i] == Classification::kHigh) ++high;
  }
  // The query box straddles the threshold contour: both labels occur.
  EXPECT_GT(high, 0u);
  EXPECT_LT(high, fresh.size());
}

// rkde's auto radius and the multi-threshold ladder both come out of the
// bootstrap, which fans out over config.num_threads.
TEST(ParallelEquivalenceTest, RkdeAutoRadiusMatchesSerial) {
  const Dataset data = TrainingData();
  std::vector<double> radius_sq;
  std::vector<double> thresholds;
  for (const size_t threads : {1u, 4u}) {
    RkdeOptions options;
    options.base.num_threads = threads;
    RkdeClassifier classifier(options);
    classifier.Train(data);
    radius_sq.push_back(classifier.radius_scaled_squared());
    thresholds.push_back(classifier.threshold());
  }
  EXPECT_EQ(radius_sq[0], radius_sq[1]);
  EXPECT_EQ(thresholds[0], thresholds[1]);
}

TEST(ParallelEquivalenceTest, MultiThresholdMatchesSerial) {
  // The ladder's training pass fans out over the batch executor: the
  // thresholds, every training row's band, and the work counters must not
  // depend on the thread count.
  const Dataset data = TrainingData();
  std::vector<std::vector<double>> thresholds;
  std::vector<std::vector<size_t>> bands;
  std::vector<uint64_t> evaluations;
  for (const size_t threads : {1u, 4u, 8u}) {
    TkdcConfig config;
    config.num_threads = threads;
    MultiThresholdClassifier classifier(config, {0.01, 0.1, 0.5});
    classifier.Train(data);
    thresholds.push_back(classifier.thresholds());
    std::vector<size_t> row_bands(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      row_bands[i] = classifier.BandTraining(data.Row(i));
    }
    bands.push_back(std::move(row_bands));
    evaluations.push_back(classifier.kernel_evaluations());
  }
  for (size_t run = 1; run < thresholds.size(); ++run) {
    EXPECT_EQ(thresholds[run], thresholds[0]) << "run " << run;
    EXPECT_EQ(bands[run], bands[0]) << "run " << run;
    EXPECT_EQ(evaluations[run], evaluations[0]) << "run " << run;
  }
}

// Bitwise comparison: EXPECT_EQ on doubles would equate +0.0 and -0.0.
bool SameBits(const double* a, const double* b, size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

void ExpectSameIndex(const SpatialIndex& serial, const SpatialIndex& built) {
  ASSERT_EQ(serial.size(), built.size());
  ASSERT_EQ(serial.num_nodes(), built.num_nodes());
  for (size_t i = 0; i < serial.num_nodes(); ++i) {
    const IndexNode& a = serial.node(i);
    const IndexNode& b = built.node(i);
    ASSERT_EQ(a.begin, b.begin) << "node " << i;
    ASSERT_EQ(a.end, b.end) << "node " << i;
    ASSERT_EQ(a.left, b.left) << "node " << i;
    ASSERT_EQ(a.right, b.right) << "node " << i;
    ASSERT_EQ(a.split_axis, b.split_axis) << "node " << i;
  }
  ASSERT_EQ(serial.geometry().size(), built.geometry().size());
  ASSERT_TRUE(SameBits(serial.geometry().data(), built.geometry().data(),
                       serial.geometry().size()));
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.OriginalIndex(i), built.OriginalIndex(i)) << "row " << i;
    ASSERT_TRUE(
        SameBits(serial.Point(i).data(), built.Point(i).data(), serial.dims()))
        << "row " << i;
  }
  ASSERT_EQ(serial.num_soa_leaves(), built.num_soa_leaves());
  ASSERT_EQ(serial.num_soa_doubles(), built.num_soa_doubles());
  for (size_t i = 0; i < serial.num_nodes(); ++i) {
    if (!serial.node(i).is_leaf()) continue;
    const SpatialIndex::SoaLeaf a = serial.LeafSoa(i);
    const SpatialIndex::SoaLeaf b = built.LeafSoa(i);
    ASSERT_EQ(a.padded, b.padded) << "leaf " << i;
    ASSERT_TRUE(SameBits(a.block, b.block, serial.dims() * a.padded))
        << "leaf " << i;
  }
}

// The index build fans each tree level out over a pool. Nodes, boxes, the
// reordered points, the permutation and the SoA mirror must not depend on
// the pool's size, on every split path: gauss and an 8-column mixture
// (ordinary splits), all-identical rows (no split possible) and a column
// that is mostly one value (the median and strict-inequality fallbacks).
TEST(ParallelEquivalenceTest, IndexBuildMatchesSerial) {
  Rng rng(31);
  std::vector<std::pair<std::string, Dataset>> inputs;
  inputs.emplace_back("gauss_d2", SampleStandardGaussian(20000, 2, rng));
  inputs.emplace_back(
      "mixture_d8",
      RandomGaussianMixture(8, 6, 10.0, 0.1, 1.0, rng).Sample(4000, rng));
  Dataset identical(3);
  for (int i = 0; i < 500; ++i) {
    identical.AppendRow(std::vector<double>{1.5, -2.0, 0.25});
  }
  inputs.emplace_back("identical", std::move(identical));
  Dataset duplicates(2);
  for (int i = 0; i < 4000; ++i) {
    duplicates.AppendRow(std::vector<double>{
        i % 20 == 0 ? static_cast<double>(i % 7) : 0.0, rng.NextGaussian()});
  }
  inputs.emplace_back("duplicate_column", std::move(duplicates));

  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const size_t slots : {2u, 3u, 4u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(slots));
  }
  for (const auto& [name, data] : inputs) {
    for (const size_t leaf_size : {1u, 32u, 128u}) {
      for (const SplitRule rule :
           {SplitRule::kMedian, SplitRule::kMidpoint,
            SplitRule::kTrimmedMidpoint}) {
        for (const SplitAxisRule axis_rule :
             {SplitAxisRule::kCycle, SplitAxisRule::kWidestExtent}) {
          IndexOptions options;
          options.leaf_size = leaf_size;
          options.split_rule = rule;
          options.axis_rule = axis_rule;
          const SpatialIndex serial(data, options);
          for (const auto& pool : pools) {
            SCOPED_TRACE(name + " leaf " + std::to_string(leaf_size) + " " +
                         SplitRuleName(rule) + " axis rule " +
                         std::to_string(static_cast<int>(axis_rule)) +
                         " slots " + std::to_string(pool->num_threads()));
            const SpatialIndex built(data, options, pool.get());
            ExpectSameIndex(serial, built);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tkdc
