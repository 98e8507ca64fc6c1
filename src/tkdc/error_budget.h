#ifndef TKDC_TKDC_ERROR_BUDGET_H_
#define TKDC_TKDC_ERROR_BUDGET_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace tkdc {

/// Relative-error ceiling reserved for the --fast-math-leaf vectorized
/// Gaussian exp. The polynomial's measured relative error is <= 1.2e-13 on
/// the density, so a 1e-12 carve-out covers it with an order of magnitude
/// of headroom while staying invisible next to any practical epsilon.
inline constexpr double kFastMathLeafShare = 1e-12;

/// The Problem 1 multiplicative tolerance epsilon, decomposed into the
/// shares that spend it:
///
///   total = traversal + coreset + fast_math
///
///   - traversal: the Eq. 8/9 pruning band — tolerance cutoffs, threshold
///     cutoffs, the bootstrap's refinement target, and the multi-class
///     survivor split all draw on this share.
///   - coreset:   absorbed by epsilon-coreset model compression
///     (kde/coreset.h): the compressed KDE deviates from the exact one by
///     at most coreset * max(f, t) near the threshold, so classification
///     against the compressed model stays within the total band.
///   - fast_math: the SIMD fast-exp leaf band (--fast-math-leaf), a fixed
///     tiny carve-out only present when the mode is on.
///
/// The decomposition is resolved once from the config (ResolveErrorBudget,
/// called by TkdcConfig::Validate() and TkdcConfig::ResolveBudget()),
/// carried immutably in the trained model, and consumed by every pruning
/// site in place of the raw config epsilon. With compression disabled and
/// exact leaf math, traversal == total exactly — the refactor is then
/// bit-identical to spending the raw epsilon.
struct ErrorBudget {
  double total = 0.0;
  double traversal = 0.0;
  double coreset = 0.0;
  double fast_math = 0.0;

  /// The per-survivor traversal share of the multi-class round-robin:
  /// a class whose posterior width is below this yields its refinement
  /// turn (see tkdc/multiclass.h).
  double SurvivorShare(double leader_lower, size_t alive) const {
    return leader_lower * traversal / static_cast<double>(alive);
  }

  /// Validates an already-resolved decomposition (model IO reads one from
  /// disk): finite non-negative shares, traversal strictly positive, and
  /// shares summing to the total up to round-off.
  Status Validate() const;

  /// "total 0.01 = traversal 0.0075 + coreset 0.0025 + fast-math 0".
  std::string Summary() const;
};

/// Resolves the budget decomposition for a config's (epsilon,
/// coreset_epsilon, fast_math_leaf) triple. Errors when coreset_epsilon is
/// negative, non-finite, or >= epsilon (the traversal share must stay
/// strictly positive — pruning with a zero band never terminates early).
Result<ErrorBudget> ResolveErrorBudget(double epsilon, double coreset_epsilon,
                                       bool fast_math_leaf);

}  // namespace tkdc

#endif  // TKDC_TKDC_ERROR_BUDGET_H_
