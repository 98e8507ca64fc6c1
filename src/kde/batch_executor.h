#ifndef TKDC_KDE_BATCH_EXECUTOR_H_
#define TKDC_KDE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "kde/query_context.h"

namespace tkdc {

/// Deterministic fan-out of per-row query work across a thread pool, shared
/// by every DensityClassifier. The executor owns the pool and the fork/join
/// protocol; the classifier supplies two callbacks: a factory for fresh
/// per-worker QueryContexts and the per-row body.
///
/// Determinism contract (inherited from ThreadPool::ParallelFor): rows are
/// split into contiguous chunks assigned round-robin to slots, each row is
/// processed exactly once, and results written by row index are
/// bit-identical to a serial run. Counter totals are also identical at
/// every thread count because QueryContext::MergeCounters folds plain sums.
///
/// Threading of the *sink*: with one thread the executor runs every row
/// directly on the sink context — the exact legacy serial path, reusing its
/// warm scratch and bumping its counters in place. With T > 1 threads each
/// slot gets its own context from `make_context` and the sink only receives
/// the merged counters after the join, so the sink's scratch is never
/// touched concurrently.
///
/// Worker contexts are cached across Map() calls: a serving workload issues
/// thousands of small batches per second, and rebuilding every slot's
/// scratch (traversal heaps, neighbor lists, metrics shards) per batch
/// dominates the dispatch cost. Cached contexts have their counters reset
/// before reuse, so merged totals stay bit-identical to fresh-context runs.
/// The owner must call InvalidateContexts() whenever the factory's output
/// would change — model retrain/restore or metrics (de)attachment.
class BatchExecutor {
 public:
  using ContextFactory = std::function<std::unique_ptr<QueryContext>()>;
  using RowBody = std::function<void(QueryContext& ctx, size_t row)>;

  /// Smallest contiguous run of rows a worker grabs at once: one easy
  /// density query is sub-microsecond, so amortize the per-chunk dispatch.
  static constexpr size_t kDefaultMinChunk = 16;

  /// `num_threads`: 0 = hardware concurrency, 1 = serial (no pool).
  explicit BatchExecutor(size_t num_threads = 1) { SetNumThreads(num_threads); }

  /// Resolved thread count (never 0).
  size_t num_threads() const { return num_threads_; }

  /// Re-sizes the pool. Cheap when the count is unchanged; otherwise the
  /// old pool is torn down and a new one is built lazily on the next Map.
  void SetNumThreads(size_t num_threads);

  /// Runs `body(ctx, row)` for every row in [0, total), giving each worker
  /// slot its own context, then folds every per-slot counter set into
  /// `sink` (slot order — order-insensitive anyway). `min_chunk` bounds the
  /// smallest chunk of the deterministic split.
  void Map(size_t total, size_t min_chunk, const ContextFactory& make_context,
           const RowBody& body, QueryContext& sink);

  /// The executor's pool, built on first use; null when serial. Other
  /// fork/join work between Map() calls (the bootstrap's subsample index
  /// builds) borrows it instead of starting threads of its own.
  ThreadPool* pool();

  /// Drops the cached worker contexts; the next Map() rebuilds them from
  /// its factory. Call when the trained model or metrics attachment behind
  /// the factory changes — a stale context would carry scratch sized to the
  /// old model and a shard of the old registry.
  void InvalidateContexts() { contexts_.clear(); }

 private:
  size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // Built lazily; null when serial.
  /// Per-slot worker contexts, reused across Map() calls (counters reset
  /// on reuse). Cleared on resize and by InvalidateContexts().
  std::vector<std::unique_ptr<QueryContext>> contexts_;
};

}  // namespace tkdc

#endif  // TKDC_KDE_BATCH_EXECUTOR_H_
