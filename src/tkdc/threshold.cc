#include "tkdc/threshold.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/macros.h"
#include "common/order_stats.h"
#include "common/rng.h"
#include "kde/bandwidth.h"
#include "kde/batch_executor.h"

namespace tkdc {
namespace {

// Gives up on a subsample level after this many consecutive backoffs and
// falls back to unbounded (exact) density evaluation, which always yields
// valid order statistics.
constexpr size_t kMaxBackoffsPerLevel = 30;

}  // namespace

ThresholdEstimator::ThresholdEstimator(const TkdcConfig* config)
    : config_(config) {
  TKDC_CHECK(config != nullptr);
}

ThresholdBootstrapResult ThresholdEstimator::Bootstrap(
    const Dataset& data, const SpatialIndex& full_tree,
    const Kernel& full_kernel) {
  const size_t n = data.size();
  TKDC_CHECK(n >= 2);
  TKDC_CHECK(full_tree.size() == n);
  Rng rng(config_->seed * 0x2545f4914f6cdd1dULL + 1);
  // The bootstrap's traversals spend the traversal share of the error
  // budget, matching the evaluator's pruning band.
  const double eps_traversal = config_->ResolveBudget().traversal;

  ThresholdBootstrapResult result;
  double t_lo = 0.0;
  double t_hi = std::numeric_limits<double>::infinity();
  size_t r = std::min(config_->r0, n);
  size_t backoffs_this_level = 0;

  // Each level's query sample fans out over the executor. Densities are
  // written by sample index and sorted afterwards, and the counters fold as
  // plain sums into `sink`, so every level's outcome is bit-identical at
  // any thread count; with one thread the executor runs the serial loop on
  // `sink` itself.
  BatchExecutor executor(config_->ResolvedNumThreads());
  const BatchExecutor::ContextFactory make_context = [] {
    return std::make_unique<TreeQueryContext>();
  };
  TreeQueryContext sink;

  for (;;) {
    // Training subsample X_r; the final level reuses the full index.
    const bool full_level = r == n;
    std::unique_ptr<Dataset> subsample;
    std::unique_ptr<Kernel> sub_kernel;
    std::unique_ptr<const SpatialIndex> sub_tree;
    const Dataset* train = &data;
    const Kernel* kernel = &full_kernel;
    const SpatialIndex* tree = &full_tree;
    if (!full_level) {
      subsample = std::make_unique<Dataset>(
          data.SelectRows(rng.SampleWithoutReplacement(n, r)));
      // Recalculate the bandwidth for the subsample size (Algorithm 3).
      sub_kernel = std::make_unique<Kernel>(
          config_->kernel, SelectBandwidths(config_->bandwidth_rule,
                                            *subsample,
                                            config_->bandwidth_scale));
      sub_tree = BuildIndex(
          *subsample,
          config_->MakeIndexOptions(sub_kernel->inverse_bandwidths()));
      train = subsample.get();
      kernel = sub_kernel.get();
      tree = sub_tree.get();
    }

    // Query sample X_s drawn from X_r.
    const size_t s = std::min(config_->s0, r);
    const std::vector<size_t> query_rows = rng.SampleWithoutReplacement(r, s);
    const double self_contribution =
        kernel->MaxValue() / static_cast<double>(r);

    const DensityBoundEvaluator evaluator(tree, kernel, config_);
    std::vector<double> densities(s);
    // t_lo/t_hi live in self-corrected space; the traversal bounds raw
    // densities, so shift by the subsample's self-contribution and keep
    // the tolerance at eps * t_lo in corrected units.
    const double tolerance = eps_traversal * t_lo;
    executor.Map(
        s, BatchExecutor::kDefaultMinChunk, make_context,
        [&](QueryContext& ctx, size_t k) {
          const DensityBounds bounds = evaluator.BoundDensity(
              static_cast<TreeQueryContext&>(ctx), train->Row(query_rows[k]),
              t_lo + self_contribution, t_hi + self_contribution, tolerance);
          densities[k] = bounds.Midpoint() - self_contribution;
        },
        sink);
    std::sort(densities.begin(), densities.end());
    ++result.iterations;

    const QuantileCi ci =
        NormalApproxQuantileCi(static_cast<int>(s), config_->p,
                               config_->delta);
    const double d_lower = densities[ci.lower - 1];  // Ranks are 1-based.
    const double d_upper = densities[ci.upper - 1];

    // Validity check: the confidence ranks must land inside the threshold
    // bounds the densities were computed under, otherwise the bounds were
    // too tight and the near-threshold densities are unreliable. Rounds
    // evaluated with the trivial bounds (0, inf) are exact and always valid.
    // With t_lo = 0 no lower rule can fire (tolerance 0, and a training
    // row's raw density never falls below its own self-contribution), so
    // the lower side is exact and a slightly negative d_lower is round-off.
    const bool was_unbounded = t_lo == 0.0 && std::isinf(t_hi);
    const bool upper_invalid = d_upper > t_hi;
    const bool lower_invalid = t_lo > 0.0 && d_lower < t_lo;
    if (!was_unbounded && (upper_invalid || lower_invalid)) {
      if (backoffs_this_level < kMaxBackoffsPerLevel) {
        // A multiplicative step cannot leave t_hi = 0, and from a bound at
        // round-off level (a compact kernel's zero quantile) it needs ~20
        // steps. So t_hi grows at least to the rank it just missed, and
        // t_lo drops to 0 when the rank it missed is not positive.
        if (upper_invalid) {
          t_hi = std::max(t_hi * config_->h_backoff, d_upper);
        }
        if (lower_invalid) {
          t_lo = d_lower > 0.0 ? t_lo / config_->h_backoff : 0.0;
        }
      } else {
        // Pathological level: retry once with unbounded (exact) evaluation.
        t_lo = 0.0;
        t_hi = std::numeric_limits<double>::infinity();
      }
      ++result.backoffs;
      ++backoffs_this_level;
      continue;  // Retry at the same r.
    }

    if (full_level) {
      result.lower = std::max(0.0, d_lower);
      result.upper = d_upper;
      result.stats = sink.stats;
      return result;
    }

    // Valid bound: buffer it and grow the subsample.
    t_hi = d_upper * config_->h_buffer;
    t_lo = std::max(0.0, d_lower / config_->h_buffer);
    backoffs_this_level = 0;
    const double grown = static_cast<double>(r) * config_->h_growth;
    r = grown >= static_cast<double>(n) ? n : static_cast<size_t>(grown);
  }
}

OnlineThresholdEstimator::OnlineThresholdEstimator(double p, double delta,
                                                   size_t capacity,
                                                   uint64_t seed)
    : p_(p),
      delta_(delta),
      capacity_(capacity),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 41) {
  TKDC_CHECK(p_ > 0.0 && p_ < 1.0);
  TKDC_CHECK(delta_ > 0.0 && delta_ < 1.0);
  TKDC_CHECK(capacity_ >= 2);
  reservoir_.reserve(capacity_);
}

void OnlineThresholdEstimator::Reseed(std::span<const double> densities) {
  std::scoped_lock lock(mutex_);
  reservoir_.clear();
  if (densities.size() <= capacity_) {
    reservoir_.assign(densities.begin(), densities.end());
  } else {
    for (size_t row : rng_.SampleWithoutReplacement(densities.size(),
                                                    capacity_)) {
      reservoir_.push_back(densities[row]);
    }
  }
  // Algorithm R treats the seed as the stream prefix, so later arrivals
  // displace seed entries at the correct 1/stream_length rate.
  stream_length_ = densities.size();
  observed_ = 0;
}

void OnlineThresholdEstimator::Observe(double density) {
  std::scoped_lock lock(mutex_);
  ++stream_length_;
  ++observed_;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(density);
    return;
  }
  const uint64_t slot = rng_.NextBounded(stream_length_);
  if (slot < reservoir_.size()) {
    reservoir_[static_cast<size_t>(slot)] = density;
  }
}

OnlineThresholdEstimator::Band OnlineThresholdEstimator::Estimate(
    double staleness_fraction, double extra_relative_band) const {
  std::vector<double> sorted;
  Band band;
  {
    std::scoped_lock lock(mutex_);
    sorted = reservoir_;
    band.observed = observed_;
  }
  const size_t s = sorted.size();
  band.sample_size = s;
  if (s == 0) return band;
  std::sort(sorted.begin(), sorted.end());

  const size_t point_rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(p_ * static_cast<double>(s))), 1, s);
  band.threshold = sorted[point_rank - 1];

  // Exact binomial ranks where the O(s) scan is cheap; normal approximation
  // for large reservoirs (matching the bootstrap's regime split).
  const QuantileCi ci = s <= 512
                            ? ExactBinomialQuantileCi(static_cast<int>(s), p_,
                                                      delta_)
                            : NormalApproxQuantileCi(static_cast<int>(s), p_,
                                                     delta_);
  band.lower = sorted[static_cast<size_t>(ci.lower) - 1];
  band.upper = sorted[static_cast<size_t>(ci.upper) - 1];

  // The rank CI covers reservoir sampling error only. Two unmodeled error
  // sources widen it multiplicatively: drift contributed by the un-rebuilt
  // overlay (staleness), and — for compressed models — the coreset share
  // of the error budget, since the reservoir holds compressed densities.
  const double widen =
      std::max(0.0, staleness_fraction) + std::max(0.0, extra_relative_band);
  if (widen > 0.0) {
    band.lower *= std::max(0.0, 1.0 - widen);
    band.upper *= 1.0 + widen;
  }
  return band;
}

}  // namespace tkdc
