#ifndef TKDC_TKDC_TRAVERSAL_TRACE_H_
#define TKDC_TKDC_TRAVERSAL_TRACE_H_

#include <cstdint>
#include <vector>

namespace tkdc {

/// Why a BoundDensity traversal stopped — the pruning behavior the paper's
/// factor analysis (Figure 12) and lesion study (Figure 16) reason about.
enum class CutoffReason : uint8_t {
  kNone = 0,
  /// Threshold rule (Eq. 9): the lower bound cleared t_hi * (1 + eps), so
  /// the point is certified HIGH without resolving its density.
  kLowerAboveThreshold,
  /// Threshold rule (Eq. 9): the upper bound fell below t_lo * (1 - eps),
  /// certifying LOW.
  kUpperBelowThreshold,
  /// Tolerance rule (Eq. 8): the bound width shrank below eps * t.
  kTolerance,
  /// The traversal exhausted the tree — every remaining node was expanded
  /// down to exact leaf sums, so the bounds are exact.
  kExactLeaf,
  /// A budgeted refinement (RefinePointBounds, the multi-class loop) ran
  /// out of its expansion budget before the bounds became exact.
  kExpansionBudget,
};

inline const char* CutoffReasonName(CutoffReason reason) {
  switch (reason) {
    case CutoffReason::kNone:
      return "none";
    case CutoffReason::kLowerAboveThreshold:
      return "lower_above_threshold";
    case CutoffReason::kUpperBelowThreshold:
      return "upper_below_threshold";
    case CutoffReason::kTolerance:
      return "tolerance";
    case CutoffReason::kExactLeaf:
      return "exact_leaf";
    case CutoffReason::kExpansionBudget:
      return "expansion_budget";
  }
  return "unknown";
}

/// One node expansion of a traced traversal, with the certified density
/// interval as it stood AFTER the expansion. Step 0 is the seed (the
/// root's bounds, node = the root, no expansion yet).
struct TraceStep {
  uint32_t node = 0;
  bool is_leaf = false;
  /// Points scanned exactly when `is_leaf` (0 for internal expansions).
  uint32_t leaf_points = 0;
  double lower = 0.0;
  double upper = 0.0;
};

/// Opt-in capture of the full node-visit sequence of a single point query.
/// Attach via TreeQueryContext::tracer before calling BoundDensity (or
/// Classify); each call clears the previous capture, so one tracer serves
/// many sequential queries. Tracing is strictly a diagnostics/testing tool:
/// it allocates, so it never rides along in benchmarked paths.
class TraversalTracer {
 public:
  /// Starts a fresh capture with the seed bounds.
  void Begin(uint32_t seed_node, double lower, double upper) {
    steps_.clear();
    reason_ = CutoffReason::kNone;
    steps_.push_back(TraceStep{seed_node, false, 0, lower, upper});
  }

  /// Records one expansion and the bounds it produced.
  void Expand(uint32_t node, bool is_leaf, uint32_t leaf_points, double lower,
              double upper) {
    steps_.push_back(TraceStep{node, is_leaf, leaf_points, lower, upper});
  }

  /// Seals the capture with the traversal's cutoff reason.
  void Finish(CutoffReason reason) { reason_ = reason; }

  const std::vector<TraceStep>& steps() const { return steps_; }
  CutoffReason reason() const { return reason_; }

 private:
  std::vector<TraceStep> steps_;
  CutoffReason reason_ = CutoffReason::kNone;
};

}  // namespace tkdc

#endif  // TKDC_TKDC_TRAVERSAL_TRACE_H_
