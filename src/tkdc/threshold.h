#ifndef TKDC_TKDC_THRESHOLD_H_
#define TKDC_TKDC_THRESHOLD_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/rng.h"
#include "data/dataset.h"
#include "index/spatial_index.h"
#include "kde/kernel.h"
#include "tkdc/config.h"
#include "tkdc/density_bounds.h"

namespace tkdc {

/// Output of the bootstrapped threshold bound (paper Algorithm 3).
struct ThresholdBootstrapResult {
  /// Probabilistic lower bound on t(p): with probability >= 1 - delta the
  /// true quantile threshold is >= lower.
  double lower = 0.0;
  /// Probabilistic upper bound on t(p).
  double upper = 0.0;
  /// Bootstrap iterations executed (including retries after backoff).
  size_t iterations = 0;
  /// Times an invalid bound was detected and backed off.
  size_t backoffs = 0;
  /// Total traversal work across all iterations.
  TraversalStats stats;
};

/// Bootstrapped estimation of coarse bounds on the quantile threshold t(p)
/// (paper Section 3.5, Algorithm 3). Kernel density estimates are trained
/// on geometrically growing subsamples X_r (r0, r0*h_growth, ..., n); each
/// round bounds the densities of a query sample X_s under the previous
/// round's threshold bounds, reads off order-statistic confidence ranks
/// (Eq. 11), validates them, and either tightens the bounds (buffered by
/// h_buffer) or backs off (by h_backoff) and retries at the same r.
class ThresholdEstimator {
 public:
  explicit ThresholdEstimator(const TkdcConfig* config);

  /// Runs the bootstrap over `data`. `full_tree` and `full_kernel` must be
  /// the index and kernel over the complete `data`; the final iteration
  /// (r = n) reuses them instead of rebuilding. Each level's query sample
  /// runs on `config->num_threads` workers (kde/batch_executor.h); the
  /// result is bit-identical at every thread count.
  ThresholdBootstrapResult Bootstrap(const Dataset& data,
                                     const SpatialIndex& full_tree,
                                     const Kernel& full_kernel);

 private:
  const TkdcConfig* config_;
};

/// Maintains an online estimate of the quantile threshold t(p) over a
/// reservoir sample of training densities, for the streaming-serve path.
///
/// The reservoir is seeded from the trained model's density sample
/// (Reseed) and kept representative of the evolving point set by feeding
/// the merged density of every inserted point through Observe (Vitter's
/// algorithm R: each arrival replaces a uniformly random reservoir slot
/// with probability capacity / arrivals_so_far).
///
/// Estimate reads off the p-quantile of the reservoir together with a
/// binomial confidence band on its rank (Eq. 10 exact for small samples,
/// Eq. 11 normal approximation otherwise — the same order-statistic
/// machinery the bootstrap uses). The binomial band only covers sampling
/// error; distribution drift since the last rebuild is unmodeled, so
/// callers pass the overlay staleness fraction and the band is widened
/// multiplicatively by it. A rebuild re-tightens by calling Reseed with
/// fresh training densities.
///
/// Thread safety: all methods lock an internal mutex. Observe runs on the
/// serve dispatcher thread; Estimate may run concurrently on connection
/// threads (STATS) or the rebuild worker.
class OnlineThresholdEstimator {
 public:
  /// The threshold estimate with its confidence band.
  struct Band {
    /// Point estimate: the p-quantile of the reservoir.
    double threshold = 0.0;
    /// Probabilistic lower / upper bounds, widened by staleness.
    double lower = 0.0;
    double upper = 0.0;
    /// Reservoir occupancy the estimate was read from.
    size_t sample_size = 0;
    /// Arrivals observed since the last Reseed (excludes the seed itself).
    uint64_t observed = 0;
  };

  /// `p` is the quantile (classification rate), `delta` the band's failure
  /// probability, `capacity` the reservoir size.
  OnlineThresholdEstimator(double p, double delta, size_t capacity,
                           uint64_t seed);

  /// Replaces the reservoir with (a uniform subsample of) `densities` and
  /// resets the arrival counter — the post-rebuild re-tighten path.
  void Reseed(std::span<const double> densities);

  /// Feeds one arrival's density into the reservoir (algorithm R).
  void Observe(double density);

  /// Current estimate; `staleness_fraction` (overlay size / n_eff) widens
  /// the band beyond the binomial rank CI, and `extra_relative_band` widens
  /// it by an additional multiplicative fraction — the serving path passes
  /// the model's coreset share (tkdc/error_budget.h) so the online band
  /// also covers the compression's density deviation. Returns a zero Band
  /// when the reservoir is empty.
  Band Estimate(double staleness_fraction = 0.0,
                double extra_relative_band = 0.0) const;

  size_t capacity() const { return capacity_; }

 private:
  const double p_;
  const double delta_;
  const size_t capacity_;
  mutable std::mutex mutex_;
  Rng rng_;
  std::vector<double> reservoir_;
  /// Total stream length feeding algorithm R (seed size + arrivals).
  uint64_t stream_length_ = 0;
  /// Arrivals since the last Reseed, exported via Band::observed.
  uint64_t observed_ = 0;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_THRESHOLD_H_
