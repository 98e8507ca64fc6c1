// Differential property suite for the multi-class classifier: the
// round-robin cross-class pruner against brute-force nonparametric Bayes
// (argmax_c prior_c * NaiveKde_c(q)) over a {2,3,5,8}-class sweep, plus
// the traced refinement invariants (bounds bracket
// the exact density and tighten monotonically; an eliminated class is
// never the exact argmax) and the degenerate-input error contract.

#include "tkdc/multiclass.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "kde/naive_kde.h"
#include "tkdc/config.h"

namespace tkdc {
namespace {

/// `n` points from an isotropic Gaussian at `mean` (shared helper; the
/// class blobs overlap enough that queries near boundaries exercise the
/// convergence band, not just the single-survivor fast path).
Dataset GaussianBlob(size_t n, const std::vector<double>& mean, Rng& rng) {
  Dataset data(mean.size());
  data.Reserve(n);
  std::vector<double> row(mean.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < mean.size(); ++j) {
      row[j] = mean[j] + rng.NextGaussian();
    }
    data.AppendRow(row);
  }
  return data;
}

struct McFixture {
  std::vector<Dataset> class_data;
  std::vector<std::string> labels;
  std::unique_ptr<MultiClassClassifier> mc;
};

McFixture MakeTrained(size_t k, size_t per_class, uint64_t seed) {
  McFixture f;
  Rng rng(seed);
  for (size_t c = 0; c < k; ++c) {
    std::vector<double> mean(2);
    for (double& m : mean) m = rng.Uniform(-3.0, 3.0);
    f.class_data.push_back(GaussianBlob(per_class, mean, rng));
    f.labels.push_back("class" + std::to_string(c));
  }
  TkdcConfig config;
  config.seed = seed;
  f.mc = std::make_unique<MultiClassClassifier>(config);
  const Status status = f.mc->TrainParts(f.class_data, f.labels);
  EXPECT_TRUE(status.ok()) << status.message();
  return f;
}

/// Queries near the class blobs (jittered training rows round-robin over
/// classes): dense regions, boundary regions, and — via the wide jitter —
/// genuine low-density tails.
Dataset MakeQueries(const std::vector<Dataset>& class_data, size_t n,
                    Rng& rng) {
  const size_t dims = class_data[0].dims();
  Dataset queries(dims);
  queries.Reserve(n);
  std::vector<double> row(dims);
  for (size_t i = 0; i < n; ++i) {
    const Dataset& source = class_data[i % class_data.size()];
    const std::span<const double> base =
        source.Row(static_cast<size_t>(rng.NextBounded(source.size())));
    for (size_t j = 0; j < dims; ++j) {
      row[j] = base[j] + 1.5 * rng.NextGaussian();
    }
    queries.AppendRow(row);
  }
  return queries;
}

// --- Differential: pruned argmax vs brute force --------------------------

class McDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(McDifferentialTest, MatchesBruteForceBayesOutsideToleranceBand) {
  const size_t k = GetParam();
  constexpr size_t kPerClass = 120;
  constexpr size_t kQueries = 1000;
  McFixture f = MakeTrained(k, kPerClass, /*seed=*/17 * k);

  // Exact per-class densities via NaiveKde with each part's own kernel
  // (bandwidths are per class — each model was trained on its own data).
  std::vector<NaiveKde> exact;
  exact.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    exact.emplace_back(f.class_data[c], f.mc->class_part(c).kernel());
  }

  Rng rng(99 + k);
  const Dataset queries = MakeQueries(f.class_data, kQueries, rng);
  const double eps = f.mc->config().epsilon;
  const std::vector<double>& priors = f.mc->priors();
  const auto ctx = f.mc->MakeQueryContext();

  size_t band_decided = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::span<const double> q = queries.Row(i);
    const uint32_t predicted = f.mc->ClassifyInContext(*ctx, q);

    std::vector<double> posterior(k);
    uint32_t exact_argmax = 0;
    for (size_t c = 0; c < k; ++c) {
      posterior[c] = priors[c] * exact[c].Density(q);
      if (posterior[c] > posterior[exact_argmax]) {
        exact_argmax = static_cast<uint32_t>(c);
      }
    }
    if (predicted == exact_argmax) continue;
    // Tolerance band: a converged decision may pick a contender whose
    // exact posterior trails the true max by at most the relative epsilon
    // band (the same guarantee the single-class classifier grants).
    ++band_decided;
    EXPECT_GE(posterior[predicted] * (1.0 + eps) * (1.0 + 1e-12),
              posterior[exact_argmax])
        << "query " << i << ": predicted class " << predicted
        << " with posterior " << posterior[predicted]
        << " but exact argmax is " << exact_argmax << " at "
        << posterior[exact_argmax];
  }
  // The band must be the exception, not the rule — otherwise the pruner
  // is deciding everything by tolerance and the test is vacuous.
  EXPECT_LT(band_decided, kQueries / 20)
      << band_decided << " of " << kQueries << " decided inside the band";
}

// Names keep the "_kdtree" suffix from when a second index existed.
INSTANTIATE_TEST_SUITE_P(
    ClassCountsAndBackends, McDifferentialTest,
    ::testing::Values<size_t>(2, 3, 5, 8), [](const auto& info) {
      return "K" + std::to_string(info.param) + "_kdtree";
    });

// --- Traced invariants ---------------------------------------------------

// The suite ran once per spatial-index backend when there were two. It
// keeps a one-value parameter, the k-d tree, so its test names read as
// they did.
enum class TreeIndex : uint8_t { kKdTree };
class McTracedPropertyTest : public ::testing::TestWithParam<TreeIndex> {};

TEST_P(McTracedPropertyTest, BoundsBracketExactDensityAndTightenMonotonically) {
  constexpr size_t kClasses = 4;
  McFixture f = MakeTrained(kClasses, /*per_class=*/100, /*seed=*/5);
  std::vector<NaiveKde> exact;
  for (size_t c = 0; c < kClasses; ++c) {
    exact.emplace_back(f.class_data[c], f.mc->class_part(c).kernel());
  }

  Rng rng(31);
  const Dataset queries = MakeQueries(f.class_data, 50, rng);
  const auto ctx = f.mc->MakeQueryContext();
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::span<const double> q = queries.Row(i);
    std::vector<McRoundSnapshot> trace;
    f.mc->ClassifyTraced(*ctx, q, &trace);
    ASSERT_GE(trace.size(), 1u);
    for (size_t c = 0; c < kClasses; ++c) {
      const double truth = exact[c].Density(q);
      for (size_t round = 0; round < trace.size(); ++round) {
        const DensityBounds& bounds = trace[round].density[c];
        // Bracket, with a relative slack for float round-off.
        const double slack = 1e-9 * std::max(1.0, bounds.upper);
        EXPECT_LE(bounds.lower, truth + slack)
            << "class " << c << " round " << round << " query " << i;
        EXPECT_GE(bounds.upper, truth - slack)
            << "class " << c << " round " << round << " query " << i;
        if (round > 0) {
          // Monotone tightening (the parent clamp guarantees this).
          EXPECT_GE(bounds.lower, trace[round - 1].density[c].lower)
              << "class " << c << " round " << round;
          EXPECT_LE(bounds.upper, trace[round - 1].density[c].upper)
              << "class " << c << " round " << round;
        }
      }
    }
  }
}

TEST_P(McTracedPropertyTest, EliminatedClassIsNeverTheExactArgmax) {
  constexpr size_t kClasses = 6;
  McFixture f = MakeTrained(kClasses, /*per_class=*/100, /*seed=*/23);
  std::vector<NaiveKde> exact;
  for (size_t c = 0; c < kClasses; ++c) {
    exact.emplace_back(f.class_data[c], f.mc->class_part(c).kernel());
  }
  const std::vector<double>& priors = f.mc->priors();

  Rng rng(47);
  const Dataset queries = MakeQueries(f.class_data, 200, rng);
  const auto ctx = f.mc->MakeQueryContext();
  size_t eliminations_seen = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::span<const double> q = queries.Row(i);
    std::vector<McRoundSnapshot> trace;
    f.mc->ClassifyTraced(*ctx, q, &trace);

    uint32_t exact_argmax = 0;
    double best = -1.0;
    for (size_t c = 0; c < kClasses; ++c) {
      const double posterior = priors[c] * exact[c].Density(q);
      if (posterior > best) {
        best = posterior;
        exact_argmax = static_cast<uint32_t>(c);
      }
    }
    const McRoundSnapshot& last = trace.back();
    for (size_t c = 0; c < kClasses; ++c) {
      if (!last.alive[c]) ++eliminations_seen;
    }
    // Soundness of the elimination rule: strict bound domination means
    // the eliminated class's exact posterior is strictly below a
    // survivor's — it cannot be the argmax.
    EXPECT_TRUE(last.alive[exact_argmax])
        << "query " << i << ": exact argmax class " << exact_argmax
        << " was eliminated";
  }
  // The property is only meaningful if elimination actually fired.
  EXPECT_GT(eliminations_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, McTracedPropertyTest,
                         ::testing::Values(TreeIndex::kKdTree),
                         [](const auto&) { return std::string("kdtree"); });

// --- Degenerate inputs: Status errors, never aborts ----------------------

TEST(McDegenerateInputTest, SingleClassTrainingIsRejected) {
  Rng rng(1);
  const Dataset data = GaussianBlob(50, {0.0, 0.0}, rng);
  MultiClassClassifier mc;
  const Status status =
      mc.Train(data, std::vector<std::string>(data.size(), "only"));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("at least 2 classes"), std::string::npos)
      << status.message();
  EXPECT_FALSE(mc.trained());
}

TEST(McDegenerateInputTest, EmptyOrTinyClassIsRejected) {
  Rng rng(2);
  std::vector<Dataset> parts;
  parts.push_back(GaussianBlob(50, {0.0, 0.0}, rng));
  parts.push_back(Dataset(2));  // Empty class.
  MultiClassClassifier mc;
  const Status status = mc.TrainParts(parts, {"a", "b"});
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(mc.trained());

  parts[1] = GaussianBlob(1, {3.0, 3.0}, rng);  // One row: still too few.
  const Status tiny = mc.TrainParts(parts, {"a", "b"});
  EXPECT_FALSE(tiny.ok());
  EXPECT_FALSE(mc.trained());
}

TEST(McDegenerateInputTest, DuplicateAndEmptyLabelsAreRejected) {
  Rng rng(3);
  std::vector<Dataset> parts;
  parts.push_back(GaussianBlob(50, {0.0, 0.0}, rng));
  parts.push_back(GaussianBlob(50, {3.0, 3.0}, rng));
  MultiClassClassifier mc;
  const Status duplicate = mc.TrainParts(parts, {"same", "same"});
  EXPECT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.message().find("duplicate class label"),
            std::string::npos)
      << duplicate.message();
  const Status empty = mc.TrainParts(parts, {"a", ""});
  EXPECT_FALSE(empty.ok());
  EXPECT_FALSE(mc.trained());
}

TEST(McDegenerateInputTest, BadPriorsAreRejected) {
  Rng rng(4);
  std::vector<Dataset> parts;
  parts.push_back(GaussianBlob(50, {0.0, 0.0}, rng));
  parts.push_back(GaussianBlob(50, {3.0, 3.0}, rng));
  MultiClassClassifier mc;

  const Status not_normalized = mc.TrainParts(parts, {"a", "b"}, {0.9, 0.3});
  EXPECT_FALSE(not_normalized.ok());
  EXPECT_NE(not_normalized.message().find("sum to 1"), std::string::npos)
      << not_normalized.message();

  const Status negative = mc.TrainParts(parts, {"a", "b"}, {1.2, -0.2});
  EXPECT_FALSE(negative.ok());

  const Status wrong_count =
      mc.TrainParts(parts, {"a", "b"}, {0.5, 0.25, 0.25});
  EXPECT_FALSE(wrong_count.ok());
  EXPECT_FALSE(mc.trained());
}

TEST(McDegenerateInputTest, LabelRowMismatchIsRejected) {
  Rng rng(5);
  const Dataset data = GaussianBlob(50, {0.0, 0.0}, rng);
  MultiClassClassifier mc;
  const Status status =
      mc.Train(data, std::vector<std::string>(data.size() - 1, "a"));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("one label per training row"),
            std::string::npos)
      << status.message();
}

TEST(McDegenerateInputTest, TrainingFailureLeavesPriorModelUsable) {
  Rng rng(6);
  std::vector<Dataset> parts;
  parts.push_back(GaussianBlob(60, {0.0, 0.0}, rng));
  parts.push_back(GaussianBlob(60, {3.0, 3.0}, rng));
  MultiClassClassifier mc;
  ASSERT_TRUE(mc.TrainParts(parts, {"a", "b"}).ok());
  ASSERT_TRUE(mc.trained());

  // A rejected retrain must not clobber the installed model.
  EXPECT_FALSE(mc.TrainParts(parts, {"x", "x"}).ok());
  EXPECT_TRUE(mc.trained());
  EXPECT_EQ(mc.num_classes(), 2u);
  const std::vector<double> q{0.1, -0.1};
  EXPECT_LT(mc.Classify(q), 2u);
}

}  // namespace
}  // namespace tkdc
