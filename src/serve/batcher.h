#ifndef TKDC_SERVE_BATCHER_H_
#define TKDC_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "kde/delta_overlay.h"
#include "kde/density_classifier.h"
#include "serve/protocol.h"
#include "tkdc/multiclass.h"
#include "tkdc/threshold.h"

namespace tkdc::serve {

/// One published model generation: the trained classifier plus where it
/// came from. Reload builds a fresh ServingModel and swaps the shared_ptr
/// (RCU-style): batches in flight keep their generation alive through
/// their own reference; the old model is destroyed when its last batch
/// finishes. The classifier inside is driven only by the dispatcher
/// thread (its facade is externally single-threaded); parallelism lives
/// inside ClassifyBatch via the shared BatchExecutor thread pool.
///
/// Streaming generations additionally carry a DeltaOverlay staging
/// INSERT/DELETE mutations on top of the immutable classifier. The
/// overlay (and `live_counts`) are mutated only by the dispatcher thread;
/// `generation`, the overlay's published counts, and `last_rebuild_ms`
/// may be read from any thread (STATS).
struct ServingModel {
  /// Exactly one of `classifier` / `mc_classifier` is set: a generation
  /// serves either a single-class model (HIGH/LOW verbs) or a multi-class
  /// container (CLASSIFY_MC). A verb aimed at the other kind is answered
  /// with ERR, never misrouted.
  std::unique_ptr<DensityClassifier> classifier;
  std::unique_ptr<MultiClassClassifier> mc_classifier;
  std::string source_path;

  // --- Streaming state (defaults describe a static, non-streaming model).
  /// Monotonic model version; bumped by RELOAD and every rebuild.
  uint64_t generation = 0;
  /// Staged mutations; null = static serving (no streaming verbs).
  std::shared_ptr<DeltaOverlay> overlay;
  /// Whether streaming verbs are accepted (overlay != null and the
  /// classifier supports the fold).
  bool streaming = false;
  /// Training rows of the base model (original row order) — the base half
  /// of a rebuild's merged dataset. Null when the engine cannot export
  /// (binned): INSERT/DELETE still work, rebuilds don't.
  std::shared_ptr<const Dataset> base_data;
  /// Online t(p) estimator fed by INSERT densities; carried across
  /// rebuilds (reseeded) so its arrival history survives. Null for static
  /// models.
  std::shared_ptr<OnlineThresholdEstimator> estimator;
  /// Wall-clock of the last rebuild/reload publication (unix ms).
  int64_t last_rebuild_ms = 0;
  /// Overlay size (inserted + tombstones) at which the dispatcher asks
  /// the server to rebuild; 0 = never.
  size_t rebuild_trigger = 0;
  /// Live multiplicity of every point (base + inserts - tombstones),
  /// keyed by the raw bytes of its coordinates. DELETE validation: a
  /// point absent here cannot be tombstoned. Dispatcher thread only.
  /// Null when base_data is unavailable (DELETE is then unvalidated).
  std::unique_ptr<std::unordered_map<std::string, int64_t>> live_counts;

  /// Effective point count: base + inserted - tombstoned.
  size_t effective_n() const;

  // --- Kind-agnostic accessors (single- or multi-class generation) ------
  bool multiclass() const { return mc_classifier != nullptr; }
  /// Query dimensionality of whichever classifier is installed.
  size_t dims() const;
  /// Wire name of the served algorithm ("tkdc", ..., or "tkdc-mc").
  std::string algorithm() const;
  /// Base training rows (multi-class: summed over the per-class models).
  size_t base_points() const;
  /// Folds the installed classifier's query-path shard into its registry.
  void FlushMetrics();
};

/// Hash key of a point: the raw bytes of its coordinates (exact-match
/// semantics, bitwise — the same contract the overlay's tombstone
/// cancellation uses).
std::string PointKey(std::span<const double> x);

struct BatcherOptions {
  /// Most requests coalesced into one ClassifyBatch call.
  size_t max_batch = 64;
  /// How long the dispatcher holds an open batch waiting for more arrivals
  /// once at least one request is queued. 0 = dispatch immediately.
  uint64_t batch_window_us = 200;
  /// Minimum time between batch dispatches (0 = none): a per-worker
  /// capacity throttle. Where the window bounds how long a request waits
  /// for company, the pace bounds how often the engine runs at all,
  /// capping a worker at ~max_batch/pace requests per second and keeping
  /// CPU headroom for the other workers sharing the host — the QoS knob a
  /// fleet deployment sizes worker count against. Drains ignore it.
  uint64_t batch_pace_us = 0;
  /// Admission bound: requests beyond this many queued are shed with
  /// OVERLOADED instead of growing latency without bound.
  size_t queue_depth = 1024;
  /// Default per-request deadline in ms (0 = none); requests may override.
  int64_t default_timeout_ms = 0;
};

/// Metric names the batcher registers (exported via STATS/--metrics-out).
namespace metric_names {
inline constexpr char kAdmitted[] = "serve.requests_admitted";
inline constexpr char kShed[] = "serve.requests_shed";
inline constexpr char kTimedOut[] = "serve.requests_timed_out";
inline constexpr char kCompleted[] = "serve.requests_completed";
inline constexpr char kBatches[] = "serve.batches";
inline constexpr char kReloads[] = "serve.model_reloads";
inline constexpr char kBatchSize[] = "serve.batch_size";
inline constexpr char kQueueWaitUs[] = "serve.queue_wait_us";
// Streaming counters.
inline constexpr char kOverlayInserts[] = "serve.overlay_inserts";
inline constexpr char kOverlayDeletes[] = "serve.overlay_deletes";
inline constexpr char kOverlayRejected[] = "serve.overlay_rejected";
inline constexpr char kStaleQueries[] = "serve.stale_queries";
inline constexpr char kRebuilds[] = "serve.model_rebuilds";
}  // namespace metric_names

class ModelRegistry;  // serve/registry.h; it includes this header.

/// Dynamic micro-batcher: coalesces concurrently arriving classify /
/// estimate requests into batch calls against the current model.
///
/// Life of a request: Submit() (any thread) either enqueues it — bounded
/// queue, excess shed with OVERLOADED — or rejects it; the dispatcher
/// thread wakes on the first arrival, holds the batch open for up to
/// `batch_window_us` (cut short when `max_batch` fills), drains up to
/// `max_batch` entries, expires requests whose deadline passed (TIMEOUT),
/// groups the rest by verb, and answers them through one
/// ClassifyBatch / ClassifyTrainingBatch call (plus a serial
/// EstimateDensity loop) on a model snapshot taken at drain time. Every
/// admitted request gets exactly one completion callback, on the
/// dispatcher thread; labels are bit-identical to serial Classify because
/// the batch engine is deterministic at any thread count.
///
/// Stop() drains: no new admissions, every queued request still executes,
/// then the dispatcher joins — the graceful-SIGTERM contract.
///
/// Multi-model serving: each drained batch is grouped by Request.model_id.
/// The scope-less group runs against the default model snapshot; scoped
/// groups resolve through the attached ModelRegistry at drain time (so a
/// cold slot lazy-loads at most once per batch, not per request). Scoped
/// requests without a registry, or naming unknown slots, are answered ERR
/// individually — a bad scope never poisons the rest of the batch.
class MicroBatcher {
 public:
  using Completion = std::function<void(const Response&)>;

  /// `registry` (borrowed, must outlive the batcher) receives the serve
  /// counters/histograms; the full serve schema is registered before any
  /// shard is created, so callers must finish registering *their* metrics
  /// (e.g. AttachMetrics on the classifier) before constructing the
  /// batcher.
  MicroBatcher(const BatcherOptions& options,
               std::shared_ptr<ServingModel> model, MetricsRegistry* registry);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Starts the dispatcher thread. Call once.
  void Start();

  /// Stops admissions, drains every queued request, joins the dispatcher.
  /// Idempotent.
  void Stop();

  /// Submits a classify/estimate request. On rejection (queue full:
  /// OVERLOADED; stopped: ERR) the completion is invoked inline and false
  /// is returned. Admitted requests complete exactly once, from the
  /// dispatcher thread. Thread-safe.
  bool Submit(Request request, Completion done);

  /// Publishes a new model generation (RCU-style). In-flight batches keep
  /// the old generation alive; queued requests not yet drained execute
  /// against the new one. Thread-safe.
  void SwapModel(std::shared_ptr<ServingModel> model);

  /// Attaches the model registry scoped requests resolve through (null =
  /// scoped requests answered ERR). Borrowed; must outlive the batcher.
  /// Call before Start().
  void SetRegistry(ModelRegistry* registry);

  /// Publishes a *rebuilt* streaming generation for `model_id` ("" = the
  /// default model). Unlike SwapModel, the install happens on the
  /// dispatcher thread between batches: the dispatcher migrates every
  /// overlay row the rebuild did NOT consume (inserted rows >=
  /// consumed_inserted, tombstones >= consumed_tombstones in the old
  /// overlay) into the new model's fresh overlay, so mutations that raced
  /// the rebuild survive the swap and zero requests are dropped or
  /// answered against missing state. Scoped installs publish into the
  /// registry slot instead of the default generation. Blocks until the
  /// install completes (or the batcher is stopping — returns false then).
  /// Thread-safe; callers serialize rebuilds among themselves.
  bool PublishRebuild(std::shared_ptr<ServingModel> model,
                      const std::string& model_id, size_t consumed_inserted,
                      size_t consumed_tombstones);

  /// Asks the server to rebuild the named model ("" = default): invoked
  /// (without the queue lock, on the dispatcher thread) when a streaming
  /// model's overlay reaches its rebuild trigger or rejects a mutation
  /// for want of capacity. The callback must not block; it flags a worker
  /// and returns.
  void SetRebuildRequestCallback(
      std::function<void(const std::string&)> callback);

  /// Current model generation (for control-plane peeks, e.g. RELOAD
  /// resolving the default path).
  std::shared_ptr<ServingModel> model() const;

  /// Exact point-in-time totals (under the queue lock); also folds the
  /// pending metric shard into the registry so a subsequent
  /// registry read (the STATS response) is up to date.
  struct Snapshot {
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t timed_out = 0;
    uint64_t completed = 0;
    uint64_t batches = 0;
  };
  Snapshot snapshot();

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request request;
    Clock::time_point enqueued_at;
    Clock::time_point deadline;  // time_point::max() = none.
    Completion done;
  };

  struct RebuildPublication {
    std::shared_ptr<ServingModel> model;
    std::string model_id;  // "" = the default model.
    size_t consumed_inserted = 0;
    size_t consumed_tombstones = 0;
    uint64_t ticket = 0;
  };

  void Loop();
  /// Groups `batch` by model scope, resolves each group's model, and runs
  /// the groups. `default_model` is the drain-time snapshot.
  void ExecuteBatch(std::vector<Pending>& batch,
                    const std::shared_ptr<ServingModel>& default_model);
  /// Runs one model's share of a batch. Returns the executed count and
  /// appends scopes wanting a rebuild to `rebuild_ids`.
  size_t ExecuteGroup(std::vector<Pending*>& group, ServingModel& model,
                      const std::string& scope, Clock::time_point drained_at,
                      std::vector<std::string>& rebuild_ids,
                      size_t* stale_queries);
  /// Applies one INSERT/DELETE to `model` and returns its answer.
  /// Dispatcher thread; mutation-quiescence is upheld because no queries
  /// run concurrently with this.
  Response ApplyMutation(const Request& request, ServingModel& model,
                         bool* rebuild_wanted);
  /// Books `count` completed requests (totals and the serve shard). Called
  /// before their answers go out, so a STATS read after an answer counts
  /// it.
  void BookCompleted(size_t count);
  /// Migrates the unconsumed overlay suffix and installs `publication`.
  /// Dispatcher thread, called without the lock held.
  void InstallRebuild(RebuildPublication publication,
                      const std::shared_ptr<ServingModel>& old_model);
  /// Folds the shard into the registry and zeroes it. Caller holds mutex_.
  void AbsorbShardLocked();

  const BatcherOptions options_;
  MetricsRegistry* const registry_;
  /// Scoped-request resolver; null = single-model serving.
  ModelRegistry* model_registry_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable wake_cv_;
  /// Signals rebuild installs to PublishRebuild waiters.
  std::condition_variable install_cv_;
  std::deque<Pending> queue_;
  std::shared_ptr<ServingModel> model_;
  /// Rebuild handed over by PublishRebuild, awaiting dispatcher install.
  std::optional<RebuildPublication> pending_rebuild_;
  uint64_t rebuild_tickets_ = 0;
  uint64_t installed_ticket_ = 0;
  std::function<void(const std::string&)> rebuild_request_cb_;
  /// End of the last dispatch; start of the pacing interval.
  Clock::time_point last_dispatch_ = Clock::time_point::min();
  bool stopping_ = false;
  bool started_ = false;
  Snapshot totals_;
  /// Serve-schema shard; mutated under mutex_ (Submit sheds/admits from
  /// many threads, the dispatcher books batch stats), absorbed into the
  /// registry after each batch and on snapshot()/Stop().
  std::unique_ptr<MetricsShard> shard_;

  // Metric ids into shard_.
  size_t admitted_id_ = 0, shed_id_ = 0, timed_out_id_ = 0, completed_id_ = 0,
         batches_id_ = 0, reloads_id_ = 0;
  size_t overlay_inserts_id_ = 0, overlay_deletes_id_ = 0,
         overlay_rejected_id_ = 0, stale_queries_id_ = 0, rebuilds_id_ = 0;
  size_t batch_size_id_ = 0, queue_wait_us_id_ = 0;

  std::thread dispatcher_;
};

}  // namespace tkdc::serve

#endif  // TKDC_SERVE_BATCHER_H_
