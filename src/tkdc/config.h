#ifndef TKDC_TKDC_CONFIG_H_
#define TKDC_TKDC_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include <vector>

#include "common/status.h"
#include "index/index_backend.h"
#include "tkdc/error_budget.h"
#include "index/spatial_index.h"
#include "index/split_rule.h"
#include "kde/bandwidth.h"
#include "kde/kernel.h"

namespace tkdc {

/// Full configuration for the tKDC classifier (paper Table 1 plus the
/// optimization switches used by the factor/lesion analyses of Figures 12
/// and 16). Defaults match the paper.
struct TkdcConfig {
  /// Classification rate p: the quantile defining the threshold t(p).
  double p = 0.01;
  /// Multiplicative error tolerance epsilon of Problem 1.
  double epsilon = 0.01;
  /// Share of epsilon handed to epsilon-coreset model compression
  /// (kde/coreset.h): training compresses the training set until the
  /// compressed KDE's deviation stays within this band, and the pruning
  /// rules spend only the remaining traversal share (tkdc/error_budget.h).
  /// 0 disables compression; must stay strictly below epsilon.
  double coreset_epsilon = 0.0;
  /// Failure probability delta of the threshold bootstrap.
  double delta = 0.01;
  /// Bandwidth scale factor b of Eq. 4.
  double bandwidth_scale = 1.0;
  /// Kernel family (paper default: Gaussian).
  KernelType kernel = KernelType::kGaussian;
  /// Bandwidth selection rule (paper default: Scott).
  BandwidthRule bandwidth_rule = BandwidthRule::kScott;

  // --- Optimization switches (Section 3.3, 3.7) ---
  /// Threshold pruning rule (Eq. 9), the core contribution.
  bool use_threshold_rule = true;
  /// Tolerance pruning rule (Eq. 8), from Gray & Moore.
  bool use_tolerance_rule = true;
  /// Grid cache for obvious inliers; auto-disabled above
  /// `grid_max_dims` dimensions.
  bool use_grid = true;
  /// The grid scales exponentially with dimension; the paper disables it
  /// for d > 4.
  size_t grid_max_dims = 4;
  /// Spatial-index backend behind every traversal (kdtree / balltree).
  /// The default honors the TKDC_INDEX environment variable, which is how
  /// the CI ball-tree lane forces the backend without touching configs.
  IndexBackend index_backend = DefaultIndexBackend();
  /// Index split rule (paper default: trimmed midpoint "equi-width").
  SplitRule split_rule = SplitRule::kTrimmedMidpoint;
  /// Index axis rule (paper default: cycle through dimensions).
  SplitAxisRule axis_rule = SplitAxisRule::kCycle;
  /// Index leaf capacity. One node expansion costs about as much as ~18
  /// SIMD leaf points, so leaves of 128 beat the former 32: a sweep over
  /// 32..512 (DESIGN.md §11) put 128 at or near the best train time and
  /// per-row cost on both backends at d = 2 to 10.
  size_t leaf_size = 128;

  // --- Threshold bootstrap (Algorithm 3) ---
  /// Initial training subsample size r0.
  size_t r0 = 200;
  /// Query sample size s0.
  size_t s0 = 20000;
  /// Multiplicative backoff when a bound proves invalid.
  double h_backoff = 4.0;
  /// Buffer factor applied to valid bounds before the next iteration.
  double h_buffer = 1.5;
  /// Training subsample growth rate per iteration.
  double h_growth = 4.0;

  /// Seed for the bootstrap's subsampling.
  uint64_t seed = 0;

  // --- Execution (beyond the paper) ---
  /// Worker threads for the training-density pass and the batch query
  /// APIs (`ClassifyBatch` / `ClassifyTrainingBatch`). 0 = hardware
  /// concurrency; 1 = the exact legacy serial path (no pool, no worker
  /// threads). Results are bit-identical regardless of the value — each
  /// point's densities are computed independently and only the (order-
  /// insensitive) stats aggregation differs — so this is purely a
  /// wall-clock knob. Per-point Classify()/ClassifyTraining() calls are
  /// always serial.
  size_t num_threads = 0;

  /// Leaf-scan fast-math mode: lets the SIMD backends evaluate the
  /// Gaussian leaf sums with a vectorized polynomial exp (relative error
  /// ~1e-14) instead of the bit-exact per-lane std::exp. Off by default —
  /// the default invariant is classification bit-identical to the scalar
  /// path; turning this on trades that for leaf throughput within the
  /// epsilon band the property tests enforce. No effect on the compact
  /// kernels, the scalar backend, or any bound computation (bounds stay
  /// exact so pruning stays certified).
  bool fast_math_leaf = false;

  /// Checks every field against its legal range. Returns OK or an error
  /// naming the first out-of-range field. Configs come from user input
  /// (CLI flags, env, serve requests), so validation is a recoverable
  /// error, not an invariant — entry points (tkdc::api, tkdc_serve)
  /// surface the message instead of aborting.
  Status Validate() const;

  /// CHECK-fails with Validate()'s message when the config is invalid.
  /// For internal constructors whose callers have already validated (a
  /// bad config reaching them is a programmer error).
  void CheckValid() const;

  /// `num_threads` with 0 resolved to the hardware concurrency.
  size_t ResolvedNumThreads() const;

  /// The resolved error-budget decomposition of epsilon (traversal /
  /// coreset / fast-math shares). Resolution is deterministic, so every
  /// call returns the same decomposition Validate() certified; CHECK-fails
  /// on an invalid config (callers have already validated).
  ErrorBudget ResolveBudget() const;

  /// One-line human-readable summary of the switch settings.
  std::string OptimizationSummary() const;

  /// The index build options this config implies. `scale` is the ball
  /// tree's radius metric — pass the kernel's inverse bandwidths so ball
  /// bounds are tight under the query metric; the k-d tree ignores it.
  IndexOptions MakeIndexOptions(std::vector<double> scale = {}) const;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_CONFIG_H_
