#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tcp_test_util.h"
#include "tkdc_api.h"

namespace tkdc::serve {
namespace {

using std::chrono::milliseconds;

const std::function<bool()> kNeverStop = [] { return false; };

using tcp_test::AnnounceStream;
using tcp_test::TcpServer;

/// Two real workers sharing one model-dir behind a pipe-mode router.
class FleetE2eTest : public ::testing::Test {
 protected:
  static std::string ModelPath() {
    static const std::string* path = [] {
      Rng rng(23);
      const Dataset data = SampleStandardGaussian(400, 2, rng);
      api::TrainOptions options;
      options.config.p = 0.1;
      options.config.seed = 7;
      options.config.num_threads = 1;
      auto trained = api::Train(data, options);
      EXPECT_TRUE(trained.ok()) << trained.message();
      auto* result = new std::string(testing::TempDir() + "/fleet_model." +
                                     std::to_string(getpid()) + ".tkdc");
      const Status saved = api::SaveModel(*result, *trained.value(), data);
      EXPECT_TRUE(saved.ok()) << saved.message();
      return result;
    }();
    return *path;
  }

  static std::string ModelDir() {
    static const std::string* dir = [] {
      auto* result = new std::string(testing::TempDir() + "/fleet_dir." +
                                     std::to_string(getpid()));
      mkdir(result->c_str(), 0755);
      for (const char* id : {"alpha", "beta"}) {
        std::ifstream in(ModelPath(), std::ios::binary);
        std::ofstream out(*result + "/" + id + ".tkdc", std::ios::binary);
        out << in.rdbuf();
        EXPECT_TRUE(out.good());
      }
      return result;
    }();
    return *dir;
  }

  static ServerOptions WorkerOptions() {
    ServerOptions options;
    options.model_path = ModelPath();
    options.model_dir = ModelDir();
    options.num_threads = 1;
    options.batcher.batch_window_us = 100;
    return options;
  }
};

TEST_F(FleetE2eTest, TwoWorkersServeScopedTrafficAndSurviveAKill) {
  auto first = std::make_unique<TcpServer>(WorkerOptions());
  auto second = std::make_unique<TcpServer>(WorkerOptions());

  RouterOptions router_options;
  router_options.workers = {first->address(), second->address()};
  router_options.probe_interval_ms = 50;
  int to_router[2], from_router[2];
  ASSERT_EQ(pipe(to_router), 0);
  ASSERT_EQ(pipe(from_router), 0);
  auto created = Router::Create(router_options);
  ASSERT_TRUE(created.ok()) << created.message();
  Router& router = *created.value();
  int exit_code = -1;
  std::thread runner([&] {
    exit_code = router.RunPipe(to_router[0], from_router[1]);
    close(from_router[1]);
    close(to_router[0]);
  });
  FrameReader reader(from_router[0], Framing::kLine);
  uint64_t next_id = 0;
  const auto send = [&](const std::string& rest) {
    const std::string line = std::to_string(++next_id) + " " + rest + "\n";
    ASSERT_EQ(write(to_router[1], line.data(), line.size()),
              static_cast<ssize_t>(line.size()));
  };
  const auto read_response = [&]() -> std::string {
    auto next = reader.Next(kNeverStop);
    EXPECT_TRUE(next.ok()) << next.message();
    EXPECT_TRUE(next.value().has_value());
    return next.value().value_or("");
  };
  const auto expect_ok = [&](const std::string& rest) -> std::string {
    send(rest);
    const std::string response = read_response();
    EXPECT_EQ(response.find(std::to_string(next_id) + " OK"), 0u)
        << rest << " -> " << response;
    return response;
  };

  // Scoped, @default, and scope-less traffic all flow through the fleet.
  const std::string alpha = expect_ok("CLASSIFY @alpha 0.1,-0.2");
  EXPECT_TRUE(alpha.find("HIGH") != std::string::npos ||
              alpha.find("LOW") != std::string::npos)
      << alpha;
  expect_ok("CLASSIFY @beta 0.3,0.4");
  expect_ok("CLASSIFY 0.1,-0.2");
  expect_ok("CLASSIFY @default 0.1,-0.2");
  expect_ok("ESTIMATE @alpha 0.0,0.0");
  expect_ok("PING");

  // Scoped STATS reaches whichever worker owns @alpha, which made it
  // resident with the classify above (scope routing is sticky).
  const std::string stats = expect_ok("STATS @alpha");
  EXPECT_NE(stats.find("\"model_id\":\"alpha\""), std::string::npos) << stats;

  // MODELS lists the shared model-dir slots on the owning worker.
  send("MODELS");
  const std::string models = read_response();
  EXPECT_NE(models.find("\"id\":\"alpha\""), std::string::npos) << models;
  EXPECT_NE(models.find("\"id\":\"beta\""), std::string::npos) << models;
  EXPECT_NE(models.find("\"id\":\"default\""), std::string::npos) << models;

  // Kill one worker mid-session: its scopes fail over to the survivor
  // after at most a few retries (the ERR/retry contract).
  EXPECT_EQ(first->Kill(), 0);
  int errors = 0;
  for (const std::string scope : {"alpha", "beta", ""}) {
    const std::string at = scope.empty() ? "" : "@" + scope + " ";
    bool answered = false;
    for (int attempt = 0; attempt < 100 && !answered; ++attempt) {
      send("CLASSIFY " + at + "0.1,-0.2");
      const std::string response = read_response();
      answered =
          response.find(std::to_string(next_id) + " OK") == 0;
      if (!answered) {
        ASSERT_NE(response.find("ERR"), std::string::npos) << response;
        ++errors;
        std::this_thread::sleep_for(milliseconds(10));
      }
    }
    EXPECT_TRUE(answered) << "scope \"" << scope
                          << "\" never failed over (errors: " << errors
                          << ")";
  }
  EXPECT_EQ(router.live_workers(), 1u);

  // Clean client EOF: the router drains and exits 0.
  close(to_router[1]);
  runner.join();
  EXPECT_EQ(exit_code, 0);
  close(from_router[0]);
  EXPECT_EQ(second->Kill(), 0);
}

// Through a TCP router, pipelined answers are not held either: the router's
// accepted client connections and its worker dials both run without
// Nagle's algorithm.
TEST_F(FleetE2eTest, PipelinedAnswersThroughTheRouterAreNotHeld) {
  TcpServer worker(WorkerOptions());
  std::atomic<bool> terminate{false};
  RouterOptions router_options;
  router_options.workers = {worker.address()};
  router_options.terminate = &terminate;
  auto created = Router::Create(router_options);
  ASSERT_TRUE(created.ok()) << created.message();
  Router& router = *created.value();
  AnnounceStream announce;
  int exit_code = -1;
  std::thread runner([&] { exit_code = router.RunTcp(/*port=*/0, announce); });
  const uint16_t port = announce.AwaitPort();
  ASSERT_GT(port, 0);

  tcp_test::ExpectPipelinedAnswersNotHeld(port);

  terminate.store(true);
  runner.join();
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(worker.Kill(), 0);
}

}  // namespace
}  // namespace tkdc::serve
