#include "baselines/rkde.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/stats.h"
#include "kde/bandwidth.h"
#include "kde/delta_overlay.h"
#include "kde/kernel_simd.h"
#include "tkdc/threshold.h"

namespace tkdc {

RkdeClassifier::RkdeClassifier(RkdeOptions options)
    : options_(std::move(options)) {
  options_.base.CheckValid();
}

std::shared_ptr<RkdeModel> RkdeClassifier::BuildModel(
    const TkdcConfig& config, const Dataset& data,
    std::vector<double> bandwidths,
    std::unique_ptr<const SpatialIndex> prebuilt_index) {
  TKDC_CHECK(data.size() >= 2);
  auto model = std::make_shared<RkdeModel>();
  model->kernel =
      std::make_unique<const Kernel>(config.kernel, std::move(bandwidths));
  if (prebuilt_index != nullptr) {
    TKDC_CHECK(prebuilt_index->size() == data.size() &&
               prebuilt_index->dims() == data.dims());
    model->tree = std::move(prebuilt_index);
  } else {
    model->tree = BuildIndex(
        data, config.MakeIndexOptions(model->kernel->inverse_bandwidths()));
  }
  model->self_contribution =
      model->kernel->MaxValue() / static_cast<double>(data.size());
  return model;
}

double RkdeClassifier::RadialDensity(const RkdeModel& m, TreeQueryContext& ctx,
                                     std::span<const double> x) {
  // Direct SoA traversal (replacing collect-then-evaluate): prune nodes
  // entirely outside the radius, sum fully-covered leaves unmasked, and
  // radius-mask partially-covered leaves — all through the vectorized
  // leaf-sum primitives. The work counters keep the old semantics:
  // kernel_evaluations counts distance tests on partial leaves plus kernel
  // terms of included points; fully-covered subtrees cost only their
  // kernel terms.
  const SpatialIndex& tree = *m.tree;
  const auto inv_bw = std::span<const double>(m.kernel->inverse_bandwidths());
  const KernelType type = m.kernel->type();
  const double norm = m.kernel->norm();
  const double radius_sq = m.radius_sq;
  uint64_t scanned = 0;  // Distance tests on partially-covered leaves.
  uint64_t inside = 0;   // Points whose kernel term entered the sum.
  double sum = 0.0;
  // The neighbor buffer doubles as the traversal stack; entries encode
  // node * 2 + covered, where covered means an ancestor's z_max already
  // proved every point inside the radius (so no bound recomputation —
  // this also keeps ball-tree children, which can poke outside their
  // parent, on the unmasked path their parent certified).
  std::vector<size_t>& stack = ctx.neighbors;
  stack.clear();
  stack.push_back(SpatialIndex::kRoot * 2);
  while (!stack.empty()) {
    const size_t item = stack.back();
    stack.pop_back();
    const size_t node_index = item / 2;
    bool covered = (item & 1) != 0;
    if (!covered) {
      double z_min = 0.0;
      double z_max = 0.0;
      tree.NodeScaledSquaredDistanceBounds(node_index, x, inv_bw, &z_min,
                                           &z_max);
      if (z_min > radius_sq) continue;
      covered = z_max <= radius_sq;
    }
    const IndexNode& node = tree.node(node_index);
    if (!node.is_leaf()) {
      const size_t flag = covered ? 1 : 0;
      stack.push_back(static_cast<size_t>(node.left) * 2 + flag);
      stack.push_back(static_cast<size_t>(node.right) * 2 + flag);
      continue;
    }
    const SpatialIndex::SoaLeaf leaf = tree.LeafSoa(node_index);
    if (covered) {
      sum += simd::SoaKernelSum(leaf.block, leaf.padded, leaf.count,
                                tree.dims(), x.data(), inv_bw.data(), type,
                                norm, /*fast_math=*/false);
      inside += leaf.count;
    } else {
      uint64_t hits = 0;
      sum += simd::SoaKernelSumWithinRadius(
          leaf.block, leaf.padded, leaf.count, tree.dims(), x.data(),
          inv_bw.data(), radius_sq, type, norm, /*fast_math=*/false, &hits);
      scanned += leaf.count;
      inside += hits;
    }
  }
  ctx.stats.kernel_evaluations += scanned + inside;
  ctx.stats.leaf_points_evaluated += inside;
  ++ctx.stats.queries;
  return sum / static_cast<double>(tree.size());
}

void RkdeClassifier::Train(const Dataset& data) {
  const TkdcConfig& config = options_.base;
  auto model = BuildModel(
      config, data,
      SelectBandwidths(config.bandwidth_rule, data, config.bandwidth_scale));

  TraversalStats bootstrap_stats;
  if (options_.radius_bandwidths > 0.0) {
    model->radius_sq =
        options_.radius_bandwidths * options_.radius_bandwidths;
  } else {
    // Auto radius: the same bootstrap as tKDC yields a lower bound t_lo on
    // the threshold; excluding all points beyond radius r changes the
    // density by at most K(r), so K(r) <= eps * t_lo guarantees error
    // below the Problem 1 tolerance.
    ThresholdEstimator estimator(&config);
    const ThresholdBootstrapResult bootstrap =
        estimator.Bootstrap(data, *model->tree, *model->kernel);
    bootstrap_stats = bootstrap.stats;
    // The radius spends the traversal share of the error budget (rkde does
    // not compress, so with coreset_epsilon == 0 this is exactly epsilon).
    const double target = config.ResolveBudget().traversal * bootstrap.lower;
    model->radius_sq =
        model->kernel->ScaledSquaredDistanceForValue(target);
    // Guard against a degenerate bootstrap (t_lo == 0): fall back to a wide
    // but finite radius.
    const double max_radius_sq = 64.0;  // 8 bandwidths.
    if (!(model->radius_sq < max_radius_sq)) model->radius_sq = max_radius_sq;
  }

  // Threshold from (a sample of) training densities, computed the same way
  // queries will be answered.
  const size_t n = data.size();
  std::vector<size_t> rows;
  if (options_.threshold_sample == 0 || options_.threshold_sample >= n) {
    rows.resize(n);
    for (size_t i = 0; i < n; ++i) rows[i] = i;
  } else {
    Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 13);
    rows = rng.SampleWithoutReplacement(n, options_.threshold_sample);
  }
  TreeQueryContext train_ctx;
  std::vector<double> densities;
  densities.reserve(rows.size());
  for (size_t row : rows) {
    densities.push_back(RadialDensity(*model, train_ctx, data.Row(row)) -
                        model->self_contribution);
  }
  model->threshold = Quantile(std::move(densities), config.p);
  model_ = std::move(model);  // Published: immutable from here on.

  train_stats_ = bootstrap_stats;
  train_stats_.Add(train_ctx.stats);
  train_grid_prunes_ = 0;
  ResetQueryState();
}

Classification RkdeClassifier::ClassifyInContext(
    QueryContext& ctx, std::span<const double> x, bool training,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "Classify called before Train");
  const RkdeModel& m = *model_;
  double self = m.self_contribution;
  const double density = MergeOverlay(
      overlay, m.tree->size(), *m.kernel, x,
      RadialDensity(m, static_cast<TreeQueryContext&>(ctx), x), ctx, &self);
  return density - (training ? self : 0.0) > m.threshold
             ? Classification::kHigh
             : Classification::kLow;
}

double RkdeClassifier::EstimateDensityInContext(
    QueryContext& ctx, std::span<const double> x,
    const DeltaOverlay* overlay) const {
  TKDC_CHECK_MSG(trained(), "EstimateDensity called before Train");
  const RkdeModel& m = *model_;
  return MergeOverlay(overlay, m.tree->size(), *m.kernel, x,
                      RadialDensity(m, static_cast<TreeQueryContext&>(ctx), x),
                      ctx);
}

bool RkdeClassifier::ExportTrainingData(Dataset* out) const {
  if (model_ == nullptr) return false;
  *out = model_->tree->ExportPoints();
  return true;
}

double RkdeClassifier::threshold() const {
  TKDC_CHECK_MSG(trained(), "threshold read before Train");
  return model_->threshold;
}

void RkdeClassifier::Restore(const Dataset& data,
                             const std::vector<double>& bandwidths,
                             double radius_sq, double threshold,
                             std::unique_ptr<const SpatialIndex> prebuilt_index) {
  TKDC_CHECK(bandwidths.size() == data.dims());
  TKDC_CHECK(radius_sq > 0.0);
  auto model =
      BuildModel(options_.base, data, bandwidths, std::move(prebuilt_index));
  model->radius_sq = radius_sq;
  model->threshold = threshold;
  model_ = std::move(model);
  train_stats_ = TraversalStats();
  train_grid_prunes_ = 0;
  ResetQueryState();
}

}  // namespace tkdc
