#include "serve/batcher.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/macros.h"
#include "data/dataset.h"
#include "serve/registry.h"

namespace tkdc::serve {
namespace {

std::string FormatDensity(double density) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", density);
  return buffer;
}

}  // namespace

std::string PointKey(std::span<const double> x) {
  return std::string(reinterpret_cast<const char*>(x.data()),
                     x.size() * sizeof(double));
}

size_t ServingModel::effective_n() const {
  const size_t base = base_points();
  if (overlay == nullptr) return base;
  const DeltaOverlay::Snapshot snap = overlay->snapshot();
  return base + snap.inserted - snap.tombstones;
}

size_t ServingModel::dims() const {
  return classifier != nullptr ? classifier->dims() : mc_classifier->dims();
}

std::string ServingModel::algorithm() const {
  return classifier != nullptr ? classifier->name() : std::string("tkdc-mc");
}

size_t ServingModel::base_points() const {
  if (classifier != nullptr) return classifier->training_size();
  size_t total = 0;
  for (size_t c = 0; c < mc_classifier->num_classes(); ++c) {
    total += mc_classifier->class_part(c).training_size();
  }
  return total;
}

void ServingModel::FlushMetrics() {
  if (classifier != nullptr) classifier->FlushMetrics();
  if (mc_classifier != nullptr) mc_classifier->FlushMetrics();
}

MicroBatcher::MicroBatcher(const BatcherOptions& options,
                           std::shared_ptr<ServingModel> model,
                           MetricsRegistry* registry)
    : options_(options), registry_(registry), model_(std::move(model)) {
  TKDC_CHECK_MSG(options_.max_batch >= 1, "max_batch must be >= 1");
  TKDC_CHECK_MSG(options_.queue_depth >= 1, "queue_depth must be >= 1");
  TKDC_CHECK(model_ != nullptr && (model_->classifier != nullptr ||
                                   model_->mc_classifier != nullptr));
  if (registry_ != nullptr) {
    admitted_id_ = registry_->AddCounter(metric_names::kAdmitted);
    shed_id_ = registry_->AddCounter(metric_names::kShed);
    timed_out_id_ = registry_->AddCounter(metric_names::kTimedOut);
    completed_id_ = registry_->AddCounter(metric_names::kCompleted);
    batches_id_ = registry_->AddCounter(metric_names::kBatches);
    reloads_id_ = registry_->AddCounter(metric_names::kReloads);
    overlay_inserts_id_ = registry_->AddCounter(metric_names::kOverlayInserts);
    overlay_deletes_id_ = registry_->AddCounter(metric_names::kOverlayDeletes);
    overlay_rejected_id_ =
        registry_->AddCounter(metric_names::kOverlayRejected);
    stale_queries_id_ = registry_->AddCounter(metric_names::kStaleQueries);
    rebuilds_id_ = registry_->AddCounter(metric_names::kRebuilds);
    batch_size_id_ = registry_->AddHistogram(
        metric_names::kBatchSize, MetricsRegistry::PowerOfTwoBounds(12));
    queue_wait_us_id_ = registry_->AddHistogram(
        metric_names::kQueueWaitUs, MetricsRegistry::DecadeBounds(0, 7));
    shard_ = registry_->NewShard();
  }
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  TKDC_CHECK_MSG(!started_, "MicroBatcher started twice");
  started_ = true;
  dispatcher_ = std::thread([this] { Loop(); });
}

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Already stopping; fall through to join below (idempotent callers).
    }
    stopping_ = true;
  }
  wake_cv_.notify_all();
  install_cv_.notify_all();  // Release PublishRebuild waiters.
  if (dispatcher_.joinable()) dispatcher_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  AbsorbShardLocked();
}

bool MicroBatcher::Submit(Request request, Completion done) {
  const Clock::time_point now = Clock::now();
  const int64_t timeout_ms = request.timeout_ms >= 0
                                 ? request.timeout_ms
                                 : options_.default_timeout_ms;
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued_at = now;
  pending.deadline = timeout_ms > 0
                         ? now + std::chrono::milliseconds(timeout_ms)
                         : Clock::time_point::max();
  pending.done = std::move(done);

  Response rejection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      rejection = Response::Error(pending.request.id, "server draining");
    } else if (queue_.size() >= options_.queue_depth) {
      if (shard_ != nullptr) shard_->Inc(shed_id_);
      ++totals_.shed;
      rejection = Response::Overloaded(pending.request.id);
    } else {
      if (shard_ != nullptr) shard_->Inc(admitted_id_);
      ++totals_.admitted;
      queue_.push_back(std::move(pending));
      // Wake the dispatcher on first arrival; also cut the batch window
      // short the moment a full batch is available.
      wake_cv_.notify_all();
      return true;
    }
  }
  pending.done(rejection);
  return false;
}

void MicroBatcher::SwapModel(std::shared_ptr<ServingModel> model) {
  TKDC_CHECK(model != nullptr && (model->classifier != nullptr ||
                                  model->mc_classifier != nullptr));
  std::lock_guard<std::mutex> lock(mutex_);
  model_ = std::move(model);
  if (shard_ != nullptr) shard_->Inc(reloads_id_);
}

void MicroBatcher::SetRegistry(ModelRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  model_registry_ = registry;
}

void MicroBatcher::SetRebuildRequestCallback(
    std::function<void(const std::string&)> callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  rebuild_request_cb_ = std::move(callback);
}

bool MicroBatcher::PublishRebuild(std::shared_ptr<ServingModel> model,
                                  const std::string& model_id,
                                  size_t consumed_inserted,
                                  size_t consumed_tombstones) {
  TKDC_CHECK(model != nullptr && model->classifier != nullptr &&
             model->overlay != nullptr);
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return false;
  // One rebuild in flight at a time: callers (the server) serialize via
  // their reload mutex, so a pending slot is never overwritten.
  TKDC_CHECK_MSG(!pending_rebuild_.has_value(),
                 "concurrent PublishRebuild calls");
  const uint64_t ticket = ++rebuild_tickets_;
  pending_rebuild_ = RebuildPublication{std::move(model), model_id,
                                        consumed_inserted, consumed_tombstones,
                                        ticket};
  wake_cv_.notify_all();
  install_cv_.wait(lock, [this, ticket] {
    return stopping_ || installed_ticket_ >= ticket;
  });
  return installed_ticket_ >= ticket;
}

std::shared_ptr<ServingModel> MicroBatcher::model() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return model_;
}

MicroBatcher::Snapshot MicroBatcher::snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  AbsorbShardLocked();
  return totals_;
}

void MicroBatcher::AbsorbShardLocked() {
  if (shard_ == nullptr || registry_ == nullptr) return;
  registry_->Absorb(*shard_);
  shard_->Reset();
}

void MicroBatcher::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_cv_.wait(lock, [this] {
      return stopping_ || !queue_.empty() || pending_rebuild_.has_value();
    });
    if (pending_rebuild_.has_value()) {
      // Install between batches: no queries are in flight, so the old
      // overlay is quiescent and its unconsumed suffix can migrate.
      RebuildPublication publication = std::move(*pending_rebuild_);
      pending_rebuild_.reset();
      // The generation being replaced: the default model for scope-less
      // rebuilds, the registry's resident slot for scoped ones.
      std::shared_ptr<ServingModel> old_model;
      if (publication.model_id.empty()) {
        old_model = model_;
      } else if (model_registry_ != nullptr) {
        old_model = model_registry_->Resident(publication.model_id);
      }
      lock.unlock();
      InstallRebuild(std::move(publication), old_model);
      lock.lock();
      continue;
    }
    if (queue_.empty()) {
      if (stopping_) return;  // Drained.
      continue;
    }
    // Pacing: space dispatches at least batch_pace_us apart. Drains skip
    // it (capacity throttling is pointless once shutdown has begun), and a
    // rebuild publication still interrupts the sleep.
    if (options_.batch_pace_us > 0 && !stopping_) {
      const auto next_allowed =
          last_dispatch_ + std::chrono::microseconds(options_.batch_pace_us);
      if (Clock::now() < next_allowed) {
        wake_cv_.wait_until(lock, next_allowed, [this] {
          return stopping_ || pending_rebuild_.has_value();
        });
        if (stopping_ || pending_rebuild_.has_value()) continue;
      }
    }
    // Hold the batch open for the window unless it fills first. During a
    // drain (stopping_) the window is skipped: latency no longer matters,
    // getting every queued response out does.
    if (options_.batch_window_us > 0 && !stopping_ &&
        queue_.size() < options_.max_batch) {
      const auto window_end =
          Clock::now() + std::chrono::microseconds(options_.batch_window_us);
      wake_cv_.wait_until(lock, window_end, [this] {
        return stopping_ || queue_.size() >= options_.max_batch;
      });
    }
    std::vector<Pending> batch;
    batch.reserve(std::min(queue_.size(), options_.max_batch));
    while (!queue_.empty() && batch.size() < options_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    const std::shared_ptr<ServingModel> model = model_;  // RCU snapshot.
    last_dispatch_ = Clock::now();
    lock.unlock();
    ExecuteBatch(batch, model);
    lock.lock();
    AbsorbShardLocked();
  }
}

Response MicroBatcher::ApplyMutation(const Request& request,
                                     ServingModel& model,
                                     bool* rebuild_wanted) {
  const uint64_t id = request.id;
  const std::span<const double> x = request.point;
  if (!model.streaming) {
    return Response::Error(id,
                           "model does not support streaming (INSERT/DELETE)");
  }
  DeltaOverlay& overlay = *model.overlay;
  const bool is_insert = request.verb == RequestVerb::kInsert;
  if (!is_insert) {
    // DELETE validation: the point must currently be live, and removing it
    // must leave a model (>= 2 points keeps every engine's invariants).
    if (model.effective_n() <= 2) {
      return Response::Error(
          id, "refusing DELETE: model would fall below 2 points");
    }
    if (model.live_counts != nullptr) {
      const auto it = model.live_counts->find(PointKey(x));
      if (it == model.live_counts->end() || it->second <= 0) {
        return Response::Error(id, "DELETE of a point not in the model");
      }
    }
  }
  const bool appended = is_insert ? overlay.Insert(x) : overlay.AddTombstone(x);
  if (!appended) {
    *rebuild_wanted = true;  // Capacity pressure: ask for a rebuild now.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shard_ != nullptr) shard_->Inc(overlay_rejected_id_);
    }
    return Response::Error(id,
                           "overlay full; retry after the rebuild (or FLUSH)");
  }
  if (model.live_counts != nullptr) {
    (*model.live_counts)[PointKey(x)] += is_insert ? 1 : -1;
  }
  if (is_insert && model.estimator != nullptr) {
    // Feed the arrival's merged density (overlay included — the point is
    // already published, so this is its post-insert density; the K(0)/n
    // self-term is O(1/n) and washes out against the staleness widening)
    // into the online t(p) reservoir. Quiescent: mutations are applied
    // one at a time on this thread with no queries in flight.
    model.estimator->Observe(
        model.classifier->EstimateDensityWithOverlay(x, overlay));
  }
  if (model.rebuild_trigger > 0 &&
      overlay.snapshot().size() >= model.rebuild_trigger) {
    *rebuild_wanted = true;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard_ != nullptr) {
      shard_->Inc(is_insert ? overlay_inserts_id_ : overlay_deletes_id_);
    }
  }
  return Response::Ok(id, is_insert ? "INSERTED" : "DELETED");
}

void MicroBatcher::BookCompleted(size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.completed += count;
  if (shard_ != nullptr) shard_->Inc(completed_id_, count);
}

void MicroBatcher::InstallRebuild(
    RebuildPublication publication,
    const std::shared_ptr<ServingModel>& old_model) {
  ServingModel& fresh = *publication.model;
  // Migrate every overlay row the rebuild's snapshot did not consume:
  // mutations that raced the retrain survive into the new generation.
  // Rows below the published counts are immutable and this thread is the
  // only writer of the new overlay, so no locking is needed.
  if (old_model != nullptr && old_model->overlay != nullptr &&
      fresh.overlay != nullptr) {
    const DeltaOverlay& old_overlay = *old_model->overlay;
    std::vector<double> row(old_overlay.dims());
    const size_t inserted = old_overlay.inserted_count();
    for (size_t i = publication.consumed_inserted; i < inserted; ++i) {
      old_overlay.CopyInsertedRow(i, row);
      TKDC_CHECK_MSG(fresh.overlay->Insert(row),
                     "rebuilt overlay cannot hold the migrated suffix");
      if (fresh.live_counts != nullptr) ++(*fresh.live_counts)[PointKey(row)];
    }
    const size_t tombstones = old_overlay.tombstone_count();
    for (size_t i = publication.consumed_tombstones; i < tombstones; ++i) {
      old_overlay.CopyTombstoneRow(i, row);
      TKDC_CHECK_MSG(fresh.overlay->AddTombstone(row),
                     "rebuilt overlay cannot hold the migrated suffix");
      if (fresh.live_counts != nullptr) --(*fresh.live_counts)[PointKey(row)];
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (publication.model_id.empty()) {
    model_ = std::move(publication.model);
  } else if (model_registry_ != nullptr) {
    const Status status = model_registry_->Publish(publication.model_id,
                                                   std::move(publication.model));
    if (!status.ok()) {
      // The slot was UNLOADed while the rebuild trained; the fresh
      // generation has no home and is simply dropped.
      std::fprintf(stderr, "rebuild install for @%s dropped: %s\n",
                   publication.model_id.c_str(), status.message().c_str());
    }
  }
  installed_ticket_ = publication.ticket;
  if (shard_ != nullptr) shard_->Inc(rebuilds_id_);
  install_cv_.notify_all();
}

void MicroBatcher::ExecuteBatch(
    std::vector<Pending>& batch,
    const std::shared_ptr<ServingModel>& default_model) {
  const Clock::time_point drained_at = Clock::now();

  // Group by model scope in arrival order; "@default" is the scope-less
  // slot. Group count is bounded by batch size, so linear lookup is fine.
  std::vector<std::pair<std::string, std::vector<Pending*>>> groups;
  for (Pending& pending : batch) {
    const std::string& raw = pending.request.model_id;
    const std::string scope = raw == kDefaultModelId ? std::string() : raw;
    std::vector<Pending*>* group = nullptr;
    for (auto& [id, members] : groups) {
      if (id == scope) {
        group = &members;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back(scope, std::vector<Pending*>());
      group = &groups.back().second;
    }
    group->push_back(&pending);
  }

  size_t executed = 0;
  size_t stale_queries = 0;
  std::vector<std::string> rebuild_ids;
  for (auto& [scope, group] : groups) {
    std::shared_ptr<ServingModel> resolved;
    if (scope.empty()) {
      resolved = default_model;
    } else if (model_registry_ == nullptr) {
      for (Pending* pending : group) {
        pending->done(Response::Error(
            pending->request.id,
            "no model registry (start the server with --model-dir)"));
      }
      continue;
    } else {
      // Resolve at drain time: a cold slot lazy-loads once per batch, and
      // a bad scope errors its own group without touching the others.
      auto acquired = model_registry_->Acquire(scope, group.size());
      if (!acquired.ok()) {
        for (Pending* pending : group) {
          pending->done(Response::Error(pending->request.id,
                                        acquired.status().message()));
        }
        continue;
      }
      resolved = acquired.take();
    }
    executed += ExecuteGroup(group, *resolved, scope, drained_at, rebuild_ids,
                             &stale_queries);
  }

  std::function<void(const std::string&)> rebuild_cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (executed != 0) {
      ++totals_.batches;
      if (shard_ != nullptr) {
        shard_->Inc(batches_id_);
        if (stale_queries > 0) shard_->Inc(stale_queries_id_, stale_queries);
        shard_->Observe(batch_size_id_, static_cast<double>(executed));
        for (const Pending& pending : batch) {
          const auto wait =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  drained_at - pending.enqueued_at);
          shard_->Observe(queue_wait_us_id_,
                          static_cast<double>(wait.count()));
        }
      }
    }
    if (!rebuild_ids.empty()) rebuild_cb = rebuild_request_cb_;
  }
  // Fired outside the lock; the callback just flags the rebuild worker.
  if (rebuild_cb) {
    for (const std::string& id : rebuild_ids) rebuild_cb(id);
  }
}

size_t MicroBatcher::ExecuteGroup(std::vector<Pending*>& group,
                                  ServingModel& model,
                                  const std::string& scope,
                                  Clock::time_point drained_at,
                                  std::vector<std::string>& rebuild_ids,
                                  size_t* group_stale_queries) {
  const bool multiclass = model.multiclass();
  const size_t dims = model.dims();

  // Partition: expire deadlines and reject dimension mismatches first so
  // the batch datasets hold only executable rows. Verbs aimed at the other
  // model kind are rejected here too — a mixed CLASSIFY/CLASSIFY_MC stream
  // through one batcher answers each request against the right surface or
  // errors it, never misroutes it. Mutations apply immediately, in arrival
  // order, so every query in this batch folds a single quiescent overlay
  // state that includes them.
  std::vector<Pending*> classify, classify_training, estimate, classify_mc;
  size_t executed = 0;
  bool rebuild_wanted = false;
  for (Pending* pending_ptr : group) {
    Pending& pending = *pending_ptr;
    if (drained_at > pending.deadline) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shard_ != nullptr) shard_->Inc(timed_out_id_);
        ++totals_.timed_out;
      }
      pending.done(Response::Timeout(pending.request.id));
      continue;
    }
    if (pending.request.point.size() != dims) {
      Errorf error;
      error << "point has " << pending.request.point.size()
            << " dims, model has " << dims;
      pending.done(Response::Error(pending.request.id,
                                   static_cast<Status>(error).message()));
      continue;
    }
    const bool single_only =
        pending.request.verb == RequestVerb::kClassify ||
        pending.request.verb == RequestVerb::kClassifyTraining ||
        pending.request.verb == RequestVerb::kEstimateDensity;
    if (multiclass && single_only) {
      pending.done(Response::Error(
          pending.request.id,
          "model is multi-class; use CLASSIFY_MC"));
      continue;
    }
    if (!multiclass && pending.request.verb == RequestVerb::kClassifyMc) {
      pending.done(Response::Error(
          pending.request.id,
          "model is single-class; use CLASSIFY/CLASSIFY_TRAINING/ESTIMATE"));
      continue;
    }
    switch (pending.request.verb) {
      case RequestVerb::kClassify:
        classify.push_back(&pending);
        break;
      case RequestVerb::kClassifyTraining:
        classify_training.push_back(&pending);
        break;
      case RequestVerb::kClassifyMc:
        classify_mc.push_back(&pending);
        break;
      case RequestVerb::kEstimateDensity:
        estimate.push_back(&pending);
        break;
      case RequestVerb::kInsert:
      case RequestVerb::kDelete: {
        // Answered as soon as applied, but booked first like the queries
        // below. Multi-class generations never stream; ApplyMutation
        // answers the not-streaming error for them.
        const Response response =
            ApplyMutation(pending.request, model, &rebuild_wanted);
        BookCompleted(1);
        pending.done(response);
        ++executed;
        break;
      }
      default:
        // Control verbs are handled at the session layer and never
        // enqueued; seeing one here is a programmer error.
        pending.done(
            Response::Error(pending.request.id, "verb not batchable"));
        break;
    }
  }

  // Overlay state is frozen for the rest of the batch (mutation
  // quiescence): every query group folds the same Delta. Query answers are
  // held until the group's work is booked (completion count, query-path
  // metrics), so a client that reads its answer and then sends STATS sees
  // its own request counted.
  const bool use_overlay =
      model.streaming && !model.overlay->snapshot().empty();
  size_t stale_queries = 0;
  std::vector<std::pair<Pending*, Response>> answers;
  answers.reserve(classify.size() + classify_training.size() +
                  classify_mc.size() + estimate.size());
  const auto run_classify_group = [&](std::vector<Pending*>& group,
                                      bool training) {
    if (group.empty()) return;
    DensityClassifier& classifier = *model.classifier;
    Dataset queries(dims);
    queries.Reserve(group.size());
    for (const Pending* pending : group) {
      queries.AppendRow(pending->request.point);
    }
    const std::vector<Classification> labels =
        use_overlay
            ? classifier.ClassifyBatchWithOverlay(queries, *model.overlay,
                                                  training)
            : training ? classifier.ClassifyTrainingBatch(queries)
                       : classifier.ClassifyBatch(queries);
    for (size_t i = 0; i < group.size(); ++i) {
      answers.emplace_back(
          group[i], Response::Ok(group[i]->request.id,
                                 labels[i] == Classification::kHigh ? "HIGH"
                                                                    : "LOW"));
    }
    if (use_overlay) stale_queries += group.size();
  };
  run_classify_group(classify, /*training=*/false);
  run_classify_group(classify_training, /*training=*/true);
  if (!classify_mc.empty()) {
    MultiClassClassifier& mc = *model.mc_classifier;
    Dataset queries(dims);
    queries.Reserve(classify_mc.size());
    for (const Pending* pending : classify_mc) {
      queries.AppendRow(pending->request.point);
    }
    const std::vector<uint32_t> labels = mc.ClassifyBatch(queries);
    for (size_t i = 0; i < classify_mc.size(); ++i) {
      answers.emplace_back(classify_mc[i],
                           Response::Ok(classify_mc[i]->request.id,
                                        mc.class_labels()[labels[i]]));
    }
  }
  for (Pending* pending : estimate) {
    DensityClassifier& classifier = *model.classifier;
    const double density =
        use_overlay
            ? classifier.EstimateDensityWithOverlay(pending->request.point,
                                                    *model.overlay)
            : classifier.EstimateDensity(pending->request.point);
    answers.emplace_back(
        pending, Response::Ok(pending->request.id, FormatDensity(density)));
    if (use_overlay) ++stale_queries;
  }
  model.FlushMetrics();  // Query-path shard → registry (no-op if
                         // detached).
  if (!answers.empty()) BookCompleted(answers.size());
  for (auto& [pending, response] : answers) pending->done(response);
  executed += answers.size();

  *group_stale_queries += stale_queries;
  if (rebuild_wanted) rebuild_ids.push_back(scope);
  return executed;
}

}  // namespace tkdc::serve
