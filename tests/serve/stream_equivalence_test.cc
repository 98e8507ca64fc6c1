#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/simple_kde.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "kde/delta_overlay.h"
#include "kde/naive_kde.h"
#include "tkdc/classifier.h"
#include "tkdc_api.h"

namespace tkdc {
namespace {

/// The streamed workload every test shares: a Gaussian base set, a batch
/// of shifted arrivals staged as overlay inserts, and a handful of base
/// rows tombstoned. `merged` is what a full retrain would see.
struct StreamedWorkload {
  Dataset base{2};
  Dataset merged{2};
  std::unique_ptr<DeltaOverlay> overlay;
  Dataset queries{2};
};

StreamedWorkload MakeWorkload() {
  StreamedWorkload w;
  Rng rng(29);
  w.base = SampleStandardGaussian(300, 2, rng);
  Dataset fresh = SampleStandardGaussian(30, 2, rng);
  for (size_t i = 0; i < fresh.size(); ++i) {
    auto row = fresh.MutableRow(i);
    row[0] += 1.5;  // Shifted arrivals: the overlay changes the density.
  }
  w.overlay = std::make_unique<DeltaOverlay>(2, 256);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(w.overlay->Insert(fresh.Row(i)));
  }
  // Tombstone every 30th base row (10 rows).
  for (size_t i = 0; i < w.base.size(); i += 30) {
    EXPECT_TRUE(w.overlay->AddTombstone(w.base.Row(i)));
  }
  for (size_t i = 0; i < w.base.size(); ++i) {
    if (i % 30 != 0) w.merged.AppendRow(w.base.Row(i));
  }
  for (size_t i = 0; i < fresh.size(); ++i) w.merged.AppendRow(fresh.Row(i));
  // Queries spanning dense core and tails, where labels actually split.
  w.queries = SampleStandardGaussian(200, 2, rng);
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto row = w.queries.MutableRow(i);
    row[0] *= 1.8;
    row[1] *= 1.8;
  }
  return w;
}

api::TrainOptions Options(size_t threads) {
  api::TrainOptions options;
  options.config.p = 0.1;
  options.config.seed = 5;
  options.config.num_threads = threads;
  return options;
}

/// Overlay classification against the base model must agree with a full
/// retrain on base ∪ overlay everywhere except points whose density sits
/// in the joint tolerance band [min(t_base, t_new)(1 - 2eps),
/// max(t_base, t_new)(1 + 2eps)]: the overlay path classifies the merged
/// density against the base threshold while the retrain recomputes t(p)
/// (and the bandwidths) on the merged set, so densities between the two
/// cuts — widened by each side's epsilon slack — may legitimately land on
/// either label. Outside that band both models are past their tolerance
/// zones and must agree exactly.
TEST(StreamEquivalenceTest, OverlayMatchesRetrainKdTree) {
  const StreamedWorkload w = MakeWorkload();
  const api::TrainOptions options = Options(1);
  auto base_model = api::Train(w.base, options);
  ASSERT_TRUE(base_model.ok()) << base_model.message();
  auto retrained = api::Train(w.merged, options);
  ASSERT_TRUE(retrained.ok()) << retrained.message();

  const auto* base_tkdc =
      dynamic_cast<const TkdcClassifier*>(base_model.value().get());
  const auto* new_tkdc =
      dynamic_cast<const TkdcClassifier*>(retrained.value().get());
  ASSERT_NE(base_tkdc, nullptr);
  ASSERT_NE(new_tkdc, nullptr);
  const double eps = options.config.epsilon;
  // Exact merged densities under each model's own (data-dependent) kernel:
  // bandwidths shift with the training set, so each model gets its own
  // ground truth.
  const NaiveKde merged_base_kernel(w.merged, base_tkdc->kernel());
  const NaiveKde merged_new_kernel(w.merged, new_tkdc->kernel());

  size_t disagreements = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto x = w.queries.Row(q);
    const Classification via_overlay =
        api::ClassifyWithOverlay(*base_model.value(), x, *w.overlay);
    const Classification via_retrain = api::Classify(*retrained.value(), x);
    if (via_overlay == via_retrain) continue;
    ++disagreements;
    const double f_base = merged_base_kernel.Density(x);
    const double t_base = base_model.value()->threshold();
    const double f_new = merged_new_kernel.Density(x);
    const double t_new = retrained.value()->threshold();
    const double band_lo = std::min(t_base, t_new) * (1.0 - 2.0 * eps);
    const double band_hi = std::max(t_base, t_new) * (1.0 + 2.0 * eps);
    const bool base_in_band = f_base >= band_lo && f_base <= band_hi;
    const bool new_in_band = f_new >= band_lo && f_new <= band_hi;
    EXPECT_TRUE(base_in_band || new_in_band)
        << "query " << q << ": overlay/retrain label split outside the "
        << "joint band [" << band_lo << ", " << band_hi
        << "] (f_base=" << f_base << " t_base=" << t_base
        << " f_new=" << f_new << " t_new=" << t_new << ")";
  }
  // Sanity that the property is not vacuous: most labels must agree.
  EXPECT_LT(disagreements, w.queries.size() / 4);
}

TEST(StreamEquivalenceTest, OverlayBatchLabelsIdenticalAcrossThreadCounts) {
  const StreamedWorkload w = MakeWorkload();
  std::vector<std::vector<Classification>> per_thread_labels;
  for (const size_t threads : {1u, 2u, 8u}) {
    auto model = api::Train(w.base, Options(threads));
    ASSERT_TRUE(model.ok()) << model.message();
    per_thread_labels.push_back(
        api::ClassifyBatchWithOverlay(*model.value(), w.queries, *w.overlay));
    // The batch path and the serial per-point path agree bit-for-bit.
    for (size_t q = 0; q < w.queries.size(); ++q) {
      ASSERT_EQ(per_thread_labels.back()[q],
                api::ClassifyWithOverlay(*model.value(), w.queries.Row(q),
                                         *w.overlay))
          << "threads=" << threads << " query=" << q;
    }
  }
  EXPECT_EQ(per_thread_labels[0], per_thread_labels[1]);
  EXPECT_EQ(per_thread_labels[0], per_thread_labels[2]);
}

TEST(StreamEquivalenceTest, ExactEngineOverlayDensityEqualsRetrain) {
  // The simple (full-scan) engine has no pruning slack, so its overlay
  // density must equal the retrained density to rounding error — the
  // strongest anchor that the fold itself is exact.
  const StreamedWorkload w = MakeWorkload();
  api::TrainOptions options = Options(1);
  options.algorithm = "simple";
  auto base_model = api::Train(w.base, options);
  ASSERT_TRUE(base_model.ok()) << base_model.message();
  ASSERT_TRUE(base_model.value()->supports_overlay());
  const auto* simple =
      dynamic_cast<const SimpleKdeClassifier*>(base_model.value().get());
  ASSERT_NE(simple, nullptr);
  const NaiveKde merged_kde(w.merged, simple->kernel());
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const auto x = w.queries.Row(q);
    const double via_overlay =
        api::EstimateDensityWithOverlay(*base_model.value(), x, *w.overlay);
    const double retrained = merged_kde.Density(x);
    ASSERT_NEAR(via_overlay, retrained, 1e-12 * (1.0 + retrained))
        << "query " << q;
  }
}

}  // namespace
}  // namespace tkdc
