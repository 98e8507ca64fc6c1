// Thread-count equivalence for multi-class batch classification: the
// batch engine must return bit-identical label vectors at 1, 2, and 8
// worker threads, agree with the serial ClassifyInContext loop, and merge
// the per-worker traversal counters to the same totals regardless of how
// the rows were sharded.

#include "tkdc/multiclass.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "tkdc/config.h"

namespace tkdc {
namespace {

constexpr size_t kClasses = 5;
constexpr size_t kPerClass = 150;
constexpr size_t kQueries = 500;

Dataset Blob(size_t n, double cx, double cy, Rng& rng) {
  Dataset data(2);
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double row[2] = {cx + rng.NextGaussian(), cy + rng.NextGaussian()};
    data.AppendRow(row);
  }
  return data;
}

/// Fresh classifier on the deterministic fixture: training is
/// reproducible from the seed, so independently trained instances hold
/// identical models and their counters are directly comparable.
std::unique_ptr<MultiClassClassifier> Train() {
  Rng rng(271);
  std::vector<Dataset> parts;
  std::vector<std::string> labels;
  for (size_t c = 0; c < kClasses; ++c) {
    parts.push_back(Blob(kPerClass, 2.5 * static_cast<double>(c % 3),
                         2.5 * static_cast<double>(c / 3), rng));
    labels.push_back("c" + std::to_string(c));
  }
  TkdcConfig config;
  config.seed = 7;
  auto mc = std::make_unique<MultiClassClassifier>(config);
  EXPECT_TRUE(mc->TrainParts(parts, labels).ok());
  return mc;
}

Dataset Queries() {
  Rng rng(991);
  Dataset queries(2);
  queries.Reserve(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    const double row[2] = {rng.Uniform(-2.0, 8.0), rng.Uniform(-2.0, 8.0)};
    queries.AppendRow(row);
  }
  return queries;
}

// The suite ran once per spatial-index backend when there were two. It
// keeps a one-value parameter, the k-d tree, so its test names read as
// they did.
enum class TreeIndex : uint8_t { kKdTree };
class McBatchEquivalenceTest : public ::testing::TestWithParam<TreeIndex> {};

TEST_P(McBatchEquivalenceTest, BatchLabelsBitIdenticalAcrossThreadCounts) {
  const Dataset queries = Queries();

  // Serial reference through the context API.
  auto reference = Train();
  const auto ctx = reference->MakeQueryContext();
  std::vector<uint32_t> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = reference->ClassifyInContext(*ctx, queries.Row(i));
  }

  for (const size_t threads : {1u, 2u, 8u}) {
    auto mc = Train();
    mc->SetNumThreads(threads);
    const std::vector<uint32_t> labels = mc->ClassifyBatch(queries);
    ASSERT_EQ(labels.size(), queries.size()) << threads << " threads";
    EXPECT_EQ(labels, serial) << threads << " threads";
  }
}

TEST_P(McBatchEquivalenceTest, MergedCountersAgreeAcrossThreadCounts) {
  const Dataset queries = Queries();

  TraversalStats reference;
  bool have_reference = false;
  for (const size_t threads : {1u, 2u, 8u}) {
    auto mc = Train();
    mc->SetNumThreads(threads);
    mc->ClassifyBatch(queries);
    const TraversalStats& stats = mc->query_stats();
    EXPECT_EQ(stats.queries, queries.size()) << threads << " threads";
    EXPECT_GT(stats.nodes_expanded, 0u) << threads << " threads";
    if (!have_reference) {
      reference = stats;
      have_reference = true;
      continue;
    }
    // Work sharding must not change what work was done — only where.
    EXPECT_EQ(stats.nodes_expanded, reference.nodes_expanded)
        << threads << " threads";
    EXPECT_EQ(stats.kernel_evaluations, reference.kernel_evaluations)
        << threads << " threads";
    EXPECT_EQ(stats.leaf_points_evaluated, reference.leaf_points_evaluated)
        << threads << " threads";
    EXPECT_EQ(stats.queries, reference.queries) << threads << " threads";
  }
}

TEST_P(McBatchEquivalenceTest, BatchAfterBatchAccumulatesConsistently) {
  const Dataset queries = Queries();
  auto mc = Train();
  mc->SetNumThreads(4);
  const std::vector<uint32_t> first = mc->ClassifyBatch(queries);
  const uint64_t after_one = mc->query_stats().nodes_expanded;
  const std::vector<uint32_t> second = mc->ClassifyBatch(queries);
  EXPECT_EQ(first, second);
  // Identical queries on an immutable model do identical work.
  EXPECT_EQ(mc->query_stats().nodes_expanded, 2 * after_one);
  EXPECT_EQ(mc->query_stats().queries, 2 * queries.size());
}

INSTANTIATE_TEST_SUITE_P(Backends, McBatchEquivalenceTest,
                         ::testing::Values(TreeIndex::kKdTree),
                         [](const auto&) { return std::string("kdtree"); });

}  // namespace
}  // namespace tkdc
