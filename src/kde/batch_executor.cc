#include "kde/batch_executor.h"

namespace tkdc {

void BatchExecutor::SetNumThreads(size_t num_threads) {
  const size_t resolved =
      num_threads == 0 ? HardwareConcurrency() : num_threads;
  if (resolved == num_threads_ && (resolved == 1 || pool_ != nullptr)) return;
  num_threads_ = resolved;
  pool_.reset();      // Rebuilt lazily on the next parallel Map.
  contexts_.clear();  // Slot count changed; cached contexts are stale.
}

ThreadPool* BatchExecutor::pool() {
  if (num_threads_ == 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
  return pool_.get();
}

void BatchExecutor::Map(size_t total, size_t min_chunk,
                        const ContextFactory& make_context, const RowBody& body,
                        QueryContext& sink) {
  if (total == 0) return;
  if (num_threads_ == 1) {
    // Serial path: run on the sink itself, reusing its warm scratch.
    for (size_t row = 0; row < total; ++row) body(sink, row);
    return;
  }
  // Recycle cached per-slot contexts (warm scratch); build any missing
  // ones. Counters must be zeroed before reuse — they were already merged
  // into the sink at the end of the previous Map.
  while (contexts_.size() < num_threads_) contexts_.push_back(make_context());
  for (auto& ctx : contexts_) ctx->ResetCounters();

  pool()->ParallelFor(total, min_chunk,
                      [&](size_t slot, size_t begin, size_t end) {
                        QueryContext& ctx = *contexts_[slot];
                        for (size_t row = begin; row < end; ++row) {
                          body(ctx, row);
                        }
                      });
  for (const auto& ctx : contexts_) sink.MergeCounters(*ctx);
}

}  // namespace tkdc
