#include "tkdc/config.h"

#include "common/macros.h"
#include "common/parallel.h"

namespace tkdc {

Status TkdcConfig::Validate() const {
  if (!(p > 0.0 && p < 1.0)) return Status::Error("p must be in (0, 1)");
  if (!(epsilon > 0.0)) return Status::Error("epsilon must be positive");
  if (const Result<ErrorBudget> budget =
          ResolveErrorBudget(epsilon, coreset_epsilon, fast_math_leaf);
      !budget.ok()) {
    return budget.status();
  }
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::Error("delta must be in (0, 1)");
  }
  if (!(bandwidth_scale > 0.0)) {
    return Status::Error("bandwidth_scale must be positive");
  }
  if (leaf_size < 1) return Status::Error("leaf_size must be >= 1");
  if (r0 < 2) return Status::Error("r0 must be >= 2");
  if (s0 < 2) return Status::Error("s0 must be >= 2");
  if (!(h_backoff > 1.0)) return Status::Error("h_backoff must be > 1");
  if (!(h_buffer >= 1.0)) return Status::Error("h_buffer must be >= 1");
  if (!(h_growth > 1.0)) return Status::Error("h_growth must be > 1");
  if (num_threads > 4096) return Status::Error("num_threads out of range");
  return Status::Ok();
}

void TkdcConfig::CheckValid() const {
  const Status status = Validate();
  TKDC_CHECK_MSG(status.ok(), status.message().c_str());
}

IndexOptions TkdcConfig::MakeIndexOptions() const {
  IndexOptions options;
  options.leaf_size = leaf_size;
  options.split_rule = split_rule;
  options.axis_rule = axis_rule;
  return options;
}

ErrorBudget TkdcConfig::ResolveBudget() const {
  Result<ErrorBudget> budget =
      ResolveErrorBudget(epsilon, coreset_epsilon, fast_math_leaf);
  TKDC_CHECK_MSG(budget.ok(), budget.message().c_str());
  return budget.take();
}

size_t TkdcConfig::ResolvedNumThreads() const {
  return num_threads == 0 ? HardwareConcurrency() : num_threads;
}

std::string TkdcConfig::OptimizationSummary() const {
  std::string summary;
  summary += use_threshold_rule ? "+threshold" : "-threshold";
  summary += use_tolerance_rule ? " +tolerance" : " -tolerance";
  summary += use_grid ? " +grid" : " -grid";
  summary += " split=" + SplitRuleName(split_rule);
  summary += " simd=";
  summary += SimdBackendName(ActiveSimdBackend());
  if (fast_math_leaf) summary += " +fast-math-leaf";
  return summary;
}

}  // namespace tkdc
