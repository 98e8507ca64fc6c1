#include "kde/density_classifier.h"

#include "common/macros.h"
#include "kde/delta_overlay.h"

namespace tkdc {

QueryContext& DensityClassifier::live_context() {
  if (live_context_ == nullptr) {
    live_context_ = MakeQueryContext();
    AttachShard(*live_context_);
  }
  return *live_context_;
}

void DensityClassifier::AttachMetrics(MetricsRegistry* registry) {
  if (registry != nullptr) query_metrics::RegisterStandard(*registry);
  registry_ = registry;
  // Re-shard (or detach) the live context in place so counters accumulated
  // so far survive; only the observability shard changes hands.
  if (live_context_ != nullptr) AttachShard(*live_context_);
  // Cached batch-worker contexts hold shards of the previous registry (or
  // none); rebuild them on the next batch so they record into this one.
  executor_.InvalidateContexts();
}

void DensityClassifier::FlushMetrics() {
  if (registry_ == nullptr || live_context_ == nullptr ||
      live_context_->metrics == nullptr) {
    return;
  }
  registry_->Absorb(*live_context_->metrics);
  live_context_->metrics->Reset();
}

const DeltaOverlay* DensityClassifier::StagedOverlay(
    const DeltaOverlay& overlay) const {
  TKDC_CHECK_MSG(supports_overlay(),
                 "this engine does not support delta overlays");
  return overlay.snapshot().empty() ? nullptr : &overlay;
}

std::vector<Classification> DensityClassifier::ClassifyBatchImpl(
    const Dataset& queries, bool training, const DeltaOverlay* overlay) {
  TKDC_CHECK_MSG(trained(), "ClassifyBatch called before Train");
  // An empty batch is a no-op regardless of how the (dimensionless) empty
  // dataset was constructed, so the dims check must not fire on it.
  if (queries.size() == 0) return {};
  TKDC_CHECK_MSG(queries.dims() == dims(),
                 "query dimensionality does not match the trained model");
  std::vector<Classification> labels(queries.size());
  executor_.Map(
      queries.size(), BatchExecutor::kDefaultMinChunk,
      [this] {
        auto ctx = MakeQueryContext();
        AttachShard(*ctx);
        return ctx;
      },
      [&](QueryContext& ctx, size_t row) {
        const std::span<const double> x = queries.Row(row);
        labels[row] = Observed(
            ctx, [&] { return ClassifyInContext(ctx, x, training, overlay); });
      },
      live_context());
  return labels;
}

}  // namespace tkdc
