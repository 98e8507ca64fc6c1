#include "serve/batcher.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "data/generators.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

using std::chrono::milliseconds;

api::TrainOptions SmallOptions(size_t num_threads) {
  api::TrainOptions options;
  options.config.p = 0.1;
  options.config.seed = 7;
  options.config.num_threads = num_threads;
  return options;
}

Dataset TrainingData() {
  Rng rng(11);
  return SampleStandardGaussian(400, 2, rng);
}

std::shared_ptr<ServingModel> MakeModel(size_t num_threads) {
  auto trained = api::Train(TrainingData(), SmallOptions(num_threads));
  EXPECT_TRUE(trained.ok()) << trained.message();
  auto model = std::make_shared<ServingModel>();
  model->classifier = trained.take();
  model->source_path = "<in-memory>";
  return model;
}

Request ClassifyRequest(uint64_t id, std::vector<double> point) {
  Request request;
  request.id = id;
  request.verb = RequestVerb::kClassify;
  request.point = std::move(point);
  return request;
}

/// Collects completions keyed by request id and counts duplicates.
class ResponseLog {
 public:
  MicroBatcher::Completion Sink() {
    return [this](const Response& response) {
      std::lock_guard<std::mutex> lock(mutex_);
      auto [it, inserted] = responses_.emplace(response.id, response);
      if (!inserted) ++duplicates_;
      cv_.notify_all();
    };
  }

  void AwaitCount(size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return responses_.size() >= n; });
  }

  std::map<uint64_t, Response> responses() {
    std::lock_guard<std::mutex> lock(mutex_);
    return responses_;
  }

  int duplicates() {
    std::lock_guard<std::mutex> lock(mutex_);
    return duplicates_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<uint64_t, Response> responses_;
  int duplicates_ = 0;
};

// N client threads race Submit; every request gets exactly one response and
// each label is bit-identical to the serial Classify() facade.
TEST(ServeBatcherTest, ConcurrentSubmitsMatchSerialClassifyExactly) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  constexpr size_t kTotal = kThreads * kPerThread;

  // Serial reference labels from an identically trained model.
  Rng rng(23);
  const Dataset queries = SampleStandardGaussian(kTotal, 2, rng);
  auto reference = api::Train(TrainingData(), SmallOptions(1));
  ASSERT_TRUE(reference.ok()) << reference.message();
  std::vector<std::string> expected(kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    expected[i] = reference.value()->Classify(queries.Row(i)) ==
                          Classification::kHigh
                      ? "HIGH"
                      : "LOW";
  }

  BatcherOptions options;
  options.max_batch = 16;
  options.batch_window_us = 100;
  MicroBatcher batcher(options, MakeModel(/*num_threads=*/3), nullptr);
  batcher.Start();

  ResponseLog log;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t row = t * kPerThread + i;
        const auto point = queries.Row(row);
        ASSERT_TRUE(batcher.Submit(
            ClassifyRequest(row + 1, {point.begin(), point.end()}),
            log.Sink()));
      }
    });
  }
  for (auto& t : clients) t.join();
  log.AwaitCount(kTotal);
  batcher.Stop();

  const auto responses = log.responses();
  ASSERT_EQ(responses.size(), kTotal);
  EXPECT_EQ(log.duplicates(), 0);
  for (size_t row = 0; row < kTotal; ++row) {
    const auto it = responses.find(row + 1);
    ASSERT_NE(it, responses.end()) << "no response for id " << row + 1;
    EXPECT_EQ(it->second.code, ResponseCode::kOk);
    EXPECT_EQ(it->second.body, expected[row]) << "id " << row + 1;
  }

  const auto totals = batcher.snapshot();
  EXPECT_EQ(totals.admitted, kTotal);
  EXPECT_EQ(totals.completed, kTotal);
  EXPECT_EQ(totals.shed, 0u);
  EXPECT_GE(totals.batches, 1u);
}

// With the dispatcher wedged on a completion callback, the bounded queue
// sheds precisely the overflow with OVERLOADED — and never aborts.
TEST(ServeBatcherTest, ShedsWithOverloadedWhenQueueIsFull) {
  BatcherOptions options;
  options.max_batch = 1;     // One request per batch.
  options.batch_window_us = 0;
  options.queue_depth = 4;
  MetricsRegistry registry;
  MicroBatcher batcher(options, MakeModel(1), &registry);
  batcher.Start();

  // First request's completion blocks the dispatcher until released.
  std::promise<void> wedge_reached;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  ResponseLog log;
  ASSERT_TRUE(batcher.Submit(
      ClassifyRequest(1, {0.0, 0.0}), [&](const Response&) {
        wedge_reached.set_value();
        release_future.wait();
      }));
  wedge_reached.get_future().wait();

  // Queue is empty again (id 1 was drained); fill it exactly.
  for (uint64_t id = 2; id < 2 + options.queue_depth; ++id) {
    EXPECT_TRUE(batcher.Submit(ClassifyRequest(id, {0.0, 0.0}), log.Sink()));
  }
  // Overflow: shed inline with OVERLOADED.
  std::promise<Response> shed;
  EXPECT_FALSE(batcher.Submit(ClassifyRequest(99, {0.0, 0.0}),
                              [&](const Response& r) { shed.set_value(r); }));
  const Response rejection = shed.get_future().get();
  EXPECT_EQ(rejection.code, ResponseCode::kOverloaded);
  EXPECT_EQ(rejection.id, 99u);

  release.set_value();
  log.AwaitCount(options.queue_depth);  // Queued requests all complete.
  batcher.Stop();
  for (const auto& [id, response] : log.responses()) {
    EXPECT_EQ(response.code, ResponseCode::kOk) << "id " << id;
  }

  const auto totals = batcher.snapshot();
  EXPECT_EQ(totals.admitted, 1 + options.queue_depth);
  EXPECT_EQ(totals.shed, 1u);
  EXPECT_EQ(totals.completed, 1 + options.queue_depth);

  // The shed counter is also visible through the metrics registry.
  std::ostringstream json;
  registry.WriteJson(json);
  EXPECT_NE(json.str().find("\"serve.requests_shed\": 1"), std::string::npos)
      << json.str();
}

// A request whose deadline passes while queued is answered TIMEOUT, not
// executed.
TEST(ServeBatcherTest, ExpiredDeadlinesGetTimeout) {
  BatcherOptions options;
  options.batch_window_us = 0;
  MicroBatcher batcher(options, MakeModel(1), nullptr);

  // Submit before Start so the requests sit queued past their deadline.
  ResponseLog log;
  Request doomed = ClassifyRequest(1, {0.0, 0.0});
  doomed.timeout_ms = 1;
  ASSERT_TRUE(batcher.Submit(std::move(doomed), log.Sink()));
  Request patient = ClassifyRequest(2, {0.0, 0.0});
  patient.timeout_ms = 60'000;
  ASSERT_TRUE(batcher.Submit(std::move(patient), log.Sink()));

  std::this_thread::sleep_for(milliseconds(20));
  batcher.Start();
  log.AwaitCount(2);
  batcher.Stop();

  const auto responses = log.responses();
  EXPECT_EQ(responses.at(1).code, ResponseCode::kTimeout);
  EXPECT_EQ(responses.at(2).code, ResponseCode::kOk);
  const auto totals = batcher.snapshot();
  EXPECT_EQ(totals.timed_out, 1u);
  EXPECT_EQ(totals.completed, 1u);
}

// Swapping models mid-traffic (the SIGHUP/RELOAD path) drops zero
// requests: every submission is answered OK throughout the churn.
TEST(ServeBatcherTest, HotModelSwapDropsNoRequests) {
  BatcherOptions options;
  options.max_batch = 8;
  options.batch_window_us = 50;
  MicroBatcher batcher(options, MakeModel(2), nullptr);
  batcher.Start();

  std::atomic<uint64_t> next_id{1};
  std::atomic<bool> stop_traffic{false};
  ResponseLog log;
  Rng rng(31);
  const Dataset points = SampleStandardGaussian(64, 2, rng);

  std::vector<std::thread> clients;
  std::mutex admitted_mutex;
  std::vector<uint64_t> admitted_ids;
  std::atomic<uint64_t> attempts{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      while (!stop_traffic.load()) {
        const uint64_t id = next_id.fetch_add(1);
        const auto point = points.Row(id % points.size());
        attempts.fetch_add(1);
        if (batcher.Submit(
                ClassifyRequest(id, {point.begin(), point.end()}),
                log.Sink())) {
          std::lock_guard<std::mutex> lock(admitted_mutex);
          admitted_ids.push_back(id);
        }
      }
    });
  }

  // Publish fresh generations while traffic is in flight.
  for (int swap = 0; swap < 5; ++swap) {
    std::this_thread::sleep_for(milliseconds(10));
    batcher.SwapModel(MakeModel(2));
  }
  stop_traffic.store(true);
  for (auto& t : clients) t.join();
  batcher.Stop();  // Drain: everything admitted completes.

  // Every submission was answered exactly once (admitted ones with a
  // label; a shed one — possible only if the queue ever filled — with
  // OVERLOADED), and no admitted request was lost across the swaps.
  const auto responses = log.responses();
  EXPECT_EQ(responses.size(), attempts.load());
  EXPECT_EQ(log.duplicates(), 0);
  ASSERT_GT(admitted_ids.size(), 0u);
  for (const uint64_t id : admitted_ids) {
    const auto it = responses.find(id);
    ASSERT_NE(it, responses.end()) << "admitted id " << id << " unanswered";
    EXPECT_EQ(it->second.code, ResponseCode::kOk) << "id " << id;
    EXPECT_TRUE(it->second.body == "HIGH" || it->second.body == "LOW")
        << it->second.body;
  }
}

// Stop() drains: everything admitted before the stop completes, and later
// submissions are refused with an explicit error, never an abort.
TEST(ServeBatcherTest, StopDrainsQueueAndRefusesNewWork) {
  BatcherOptions options;
  options.max_batch = 4;
  options.batch_window_us = 1000;
  MicroBatcher batcher(options, MakeModel(1), nullptr);
  batcher.Start();

  ResponseLog log;
  constexpr uint64_t kRequests = 32;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(batcher.Submit(ClassifyRequest(id, {0.5, -0.5}), log.Sink()));
  }
  batcher.Stop();

  const auto responses = log.responses();
  ASSERT_EQ(responses.size(), kRequests);
  for (const auto& [id, response] : responses) {
    EXPECT_EQ(response.code, ResponseCode::kOk) << "id " << id;
  }

  std::promise<Response> refused;
  EXPECT_FALSE(
      batcher.Submit(ClassifyRequest(100, {0.0, 0.0}),
                     [&](const Response& r) { refused.set_value(r); }));
  const Response rejection = refused.get_future().get();
  EXPECT_EQ(rejection.code, ResponseCode::kError);
  EXPECT_NE(rejection.body.find("draining"), std::string::npos);
}

// Mixed verbs in one batch: estimates return parseable densities that
// match the serial facade bit-for-bit.
TEST(ServeBatcherTest, EstimateAndClassifyShareABatch) {
  auto reference = api::Train(TrainingData(), SmallOptions(1));
  ASSERT_TRUE(reference.ok());
  const std::vector<double> probe = {0.25, -0.75};
  const double expected_density = reference.value()->EstimateDensity(probe);

  BatcherOptions options;
  options.batch_window_us = 5000;  // Wide window: both requests coalesce.
  MicroBatcher batcher(options, MakeModel(2), nullptr);
  batcher.Start();

  ResponseLog log;
  Request estimate;
  estimate.id = 1;
  estimate.verb = RequestVerb::kEstimateDensity;
  estimate.point = probe;
  ASSERT_TRUE(batcher.Submit(std::move(estimate), log.Sink()));
  ASSERT_TRUE(batcher.Submit(ClassifyRequest(2, probe), log.Sink()));
  log.AwaitCount(2);
  batcher.Stop();

  const auto responses = log.responses();
  ASSERT_EQ(responses.at(1).code, ResponseCode::kOk);
  EXPECT_EQ(std::stod(responses.at(1).body), expected_density);
  EXPECT_EQ(responses.at(2).code, ResponseCode::kOk);
}

// Dimension mismatches are per-request errors, not poison for the batch.
TEST(ServeBatcherTest, DimensionMismatchIsARequestLevelError) {
  BatcherOptions options;
  options.batch_window_us = 5000;
  MicroBatcher batcher(options, MakeModel(1), nullptr);
  batcher.Start();

  ResponseLog log;
  ASSERT_TRUE(
      batcher.Submit(ClassifyRequest(1, {1.0, 2.0, 3.0}), log.Sink()));
  ASSERT_TRUE(batcher.Submit(ClassifyRequest(2, {1.0, 2.0}), log.Sink()));
  log.AwaitCount(2);
  batcher.Stop();

  const auto responses = log.responses();
  EXPECT_EQ(responses.at(1).code, ResponseCode::kError);
  EXPECT_NE(responses.at(1).body.find("dims"), std::string::npos);
  EXPECT_EQ(responses.at(2).code, ResponseCode::kOk);
}

// Continuous batching (the default): an idle dispatcher runs the first
// request at once, and everything that arrives while a batch runs forms the
// next batch.
TEST(ServeBatcherTest, ArrivalsDuringABatchFormTheNextBatch) {
  constexpr uint64_t kLater = 10;
  Rng rng(41);
  const Dataset queries = SampleStandardGaussian(1 + kLater, 2, rng);
  auto reference = api::Train(TrainingData(), SmallOptions(1));
  ASSERT_TRUE(reference.ok()) << reference.message();
  const auto point = [&](uint64_t row) {
    const auto x = queries.Row(row);
    return std::vector<double>(x.begin(), x.end());
  };

  MicroBatcher batcher(BatcherOptions(), MakeModel(2), nullptr);
  batcher.Start();

  // The first request's completion wedges the dispatcher mid-batch.
  std::promise<void> wedge_reached;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::promise<Response> first;
  ASSERT_TRUE(batcher.Submit(ClassifyRequest(1, point(0)),
                             [&](const Response& response) {
                               first.set_value(response);
                               wedge_reached.set_value();
                               release_future.wait();
                             }));
  wedge_reached.get_future().wait();

  ResponseLog log;
  for (uint64_t id = 2; id <= 1 + kLater; ++id) {
    ASSERT_TRUE(batcher.Submit(ClassifyRequest(id, point(id - 1)), log.Sink()));
  }
  release.set_value();
  log.AwaitCount(kLater);
  batcher.Stop();

  std::map<uint64_t, Response> responses = log.responses();
  responses.emplace(1, first.get_future().get());
  ASSERT_EQ(responses.size(), 1 + kLater);
  EXPECT_EQ(log.duplicates(), 0);
  for (const auto& [id, response] : responses) {
    const bool high = reference.value()->Classify(queries.Row(id - 1)) ==
                      Classification::kHigh;
    EXPECT_EQ(response.code, ResponseCode::kOk) << "id " << id;
    EXPECT_EQ(response.body, high ? "HIGH" : "LOW") << "id " << id;
  }
  const auto totals = batcher.snapshot();
  EXPECT_EQ(totals.batches, 2u);
  EXPECT_EQ(totals.completed, 1 + kLater);
}

}  // namespace
}  // namespace tkdc::serve
