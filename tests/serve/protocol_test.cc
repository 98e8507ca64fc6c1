#include "serve/protocol.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tkdc::serve {
namespace {

const std::function<bool()> kNeverStop = [] { return false; };

TEST(ServeProtocolTest, ParsesClassifyRequest) {
  auto parsed = ParseRequest("42 CLASSIFY 1.5,-2.25,0");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().id, 42u);
  EXPECT_EQ(parsed.value().verb, RequestVerb::kClassify);
  EXPECT_EQ(parsed.value().point, (std::vector<double>{1.5, -2.25, 0.0}));
  EXPECT_EQ(parsed.value().timeout_ms, -1);
}

TEST(ServeProtocolTest, ParsesClassifyTrainingAndEstimate) {
  auto training = ParseRequest("7 CLASSIFY_TRAINING 0.25,0.5");
  ASSERT_TRUE(training.ok()) << training.message();
  EXPECT_EQ(training.value().verb, RequestVerb::kClassifyTraining);

  auto estimate = ParseRequest("8 ESTIMATE 1,2 250");
  ASSERT_TRUE(estimate.ok()) << estimate.message();
  EXPECT_EQ(estimate.value().verb, RequestVerb::kEstimateDensity);
  EXPECT_EQ(estimate.value().timeout_ms, 250);
}

TEST(ServeProtocolTest, ParsesControlVerbs) {
  auto ping = ParseRequest("1 PING");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping.value().verb, RequestVerb::kPing);

  auto stats = ParseRequest("2 STATS");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().verb, RequestVerb::kStats);

  auto reload = ParseRequest("3 RELOAD /tmp/other.tkdc");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload.value().verb, RequestVerb::kReload);
  EXPECT_EQ(reload.value().path, "/tmp/other.tkdc");

  auto reload_default = ParseRequest("4 RELOAD");
  ASSERT_TRUE(reload_default.ok());
  EXPECT_TRUE(reload_default.value().path.empty());
}

TEST(ServeProtocolTest, ToleratesCarriageReturn) {
  auto parsed = ParseRequest("5 PING\r");
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(parsed.value().id, 5u);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("PING").ok());            // Missing id.
  EXPECT_FALSE(ParseRequest("x PING").ok());          // Non-numeric id.
  EXPECT_FALSE(ParseRequest("1 FROBNICATE").ok());    // Unknown verb.
  EXPECT_FALSE(ParseRequest("1 CLASSIFY").ok());      // Missing point.
  EXPECT_FALSE(ParseRequest("1 CLASSIFY a,b").ok());  // Non-numeric coords.
  EXPECT_FALSE(ParseRequest("1 CLASSIFY 1,2 -5").ok());  // Bad timeout.
  EXPECT_FALSE(ParseRequest("1 PING extra").ok());  // Trailing tokens.
}

TEST(ServeProtocolTest, BestEffortIdRecoversTheLeadingToken) {
  // A rejected payload whose id token parses still gets its error
  // attributed; anything else falls back to id 0.
  EXPECT_EQ(BestEffortRequestId("42 FROBNICATE"), 42u);
  EXPECT_EQ(BestEffortRequestId("7 CLASSIFY a,b"), 7u);
  EXPECT_EQ(BestEffortRequestId("9 PING\r"), 9u);
  EXPECT_EQ(BestEffortRequestId("this is not a request"), 0u);
  EXPECT_EQ(BestEffortRequestId(""), 0u);
  EXPECT_EQ(BestEffortRequestId("-3 PING"), 0u);
}

TEST(ServeProtocolTest, RejectsNonFiniteCoordinates) {
  EXPECT_FALSE(ParseRequest("1 CLASSIFY nan,0").ok());
  EXPECT_FALSE(ParseRequest("1 CLASSIFY inf,0").ok());
  EXPECT_FALSE(ParseRequest("1 ESTIMATE 1,,2").ok());  // Empty coordinate.
}

// DELETE matches points by their bits, so every accepted spelling must give
// exactly the double strtod gives.
TEST(ServeProtocolTest, CoordinatesParseToTheBitsStrtodGives) {
  for (const char* cell : {"+1.5", "1e-3", "-0", "2.5E+2", "0.1", "-7.25e-12",
                           "1e-310", "1e-400"}) {
    auto parsed = ParseRequest(std::string("1 CLASSIFY ") + cell + ",0");
    ASSERT_TRUE(parsed.ok()) << cell << ": " << parsed.message();
    const double expected = std::strtod(cell, nullptr);
    const double got = parsed.value().point[0];
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
        << cell << " parsed as " << got;
  }
}

TEST(ServeProtocolTest, RejectsHexFloatsSignRunsAndWhitespace) {
  EXPECT_FALSE(ParseRequest("1 CLASSIFY 0x1p3,0").ok());
  EXPECT_FALSE(ParseRequest("1 CLASSIFY 0,\t1").ok());
  EXPECT_FALSE(ParseRequest("1 CLASSIFY +-1,0").ok());
  EXPECT_FALSE(ParseRequest("1 CLASSIFY +,0").ok());
  EXPECT_FALSE(ParseRequest("1 CLASSIFY 1e400,0").ok());  // Overflows.
}

TEST(ServeProtocolTest, RendersResponses) {
  EXPECT_EQ(RenderResponse(Response::Ok(3, "HIGH")), "3 OK HIGH");
  EXPECT_EQ(RenderResponse(Response::Error(4, "bad point")),
            "4 ERR bad point");
  EXPECT_EQ(RenderResponse(Response::Overloaded(5)), "5 OVERLOADED");
  EXPECT_EQ(RenderResponse(Response::Timeout(6)), "6 TIMEOUT");
}

TEST(ServeProtocolTest, LineFramingFlattensNewlines) {
  EXPECT_EQ(EncodeFrame("a\nb\rc", Framing::kLine), "a b c\n");
  EXPECT_EQ(EncodeFrame("plain", Framing::kLine), "plain\n");
}

TEST(ServeProtocolTest, LengthPrefixedFramingRoundTrips) {
  const std::string frame = EncodeFrame("hello", Framing::kLengthPrefixed);
  ASSERT_EQ(frame.size(), 4u + 5u);
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), 5u);
  EXPECT_EQ(frame.substr(4), "hello");

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_EQ(write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  close(fds[1]);
  FrameReader reader(fds[0], Framing::kLengthPrefixed);
  auto payload = reader.Next(kNeverStop);
  ASSERT_TRUE(payload.ok()) << payload.message();
  ASSERT_TRUE(payload.value().has_value());
  EXPECT_EQ(*payload.value(), "hello");
  // Clean EOF after the only frame.
  auto eof = reader.Next(kNeverStop);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
  close(fds[0]);
}

TEST(ServeProtocolTest, LineReaderSplitsFramesAndHandlesFinalFragment) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string wire = "first\nsecond\nunterminated";
  ASSERT_EQ(write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  close(fds[1]);
  FrameReader reader(fds[0], Framing::kLine);
  auto first = reader.Next(kNeverStop);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first.value(), "first");
  auto second = reader.Next(kNeverStop);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second.value(), "second");
  // A final line without its newline still arrives at EOF.
  auto last = reader.Next(kNeverStop);
  ASSERT_TRUE(last.ok()) << last.message();
  EXPECT_EQ(*last.value(), "unterminated");
  auto eof = reader.Next(kNeverStop);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
  close(fds[0]);
}

TEST(ServeProtocolTest, ReaderRejectsOversizedLengthPrefix) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // 0xFFFFFFFF length: far beyond kMaxFrameBytes.
  const unsigned char prefix[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(write(fds[1], prefix, 4), 4);
  close(fds[1]);
  FrameReader reader(fds[0], Framing::kLengthPrefixed);
  auto result = reader.Next(kNeverStop);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.message().find("frame"), std::string::npos);
  close(fds[0]);
}

TEST(ServeProtocolTest, ReaderErrorsOnEofInsideFrame) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Announces 10 payload bytes but delivers 3.
  const unsigned char wire[7] = {0, 0, 0, 10, 'a', 'b', 'c'};
  ASSERT_EQ(write(fds[1], wire, sizeof(wire)),
            static_cast<ssize_t>(sizeof(wire)));
  close(fds[1]);
  FrameReader reader(fds[0], Framing::kLengthPrefixed);
  auto result = reader.Next(kNeverStop);
  EXPECT_FALSE(result.ok());
  close(fds[0]);
}

TEST(ServeProtocolTest, ReaderHonorsStopPredicate) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);  // Nothing ever written: reader would block.
  FrameReader reader(fds[0], Framing::kLine);
  std::atomic<bool> stop{false};
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
  });
  auto result = reader.Next([&] { return stop.load(); });
  trigger.join();
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_FALSE(result.value().has_value());
  close(fds[0]);
  close(fds[1]);
}

TEST(ServeProtocolTest, WriterSurvivesClosedPeer) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);  // Peer vanished; writes would raise SIGPIPE if unignored.
  signal(SIGPIPE, SIG_IGN);
  FrameWriter writer(fds[1], Framing::kLine, /*owns_fd=*/true);
  writer.Write(Response::Ok(1, "HIGH"));
  EXPECT_TRUE(writer.broken());
  writer.Write(Response::Ok(2, "LOW"));  // No-op, no crash.
}

TEST(ServeProtocolTest, WriterIsThreadSafe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  // Large pipe buffer relative to the writes, so writers never block.
  auto writer =
      std::make_shared<FrameWriter>(fds[1], Framing::kLine, /*owns_fd=*/true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([writer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        writer->Write(Response::Ok(
            static_cast<uint64_t>(t * kPerThread + i + 1), "HIGH"));
      }
    });
  }
  for (auto& t : threads) t.join();
  writer.reset();  // Closes the write end; reader sees EOF.

  FrameReader reader(fds[0], Framing::kLine);
  int frames = 0;
  while (true) {
    auto next = reader.Next(kNeverStop);
    ASSERT_TRUE(next.ok()) << next.message();
    if (!next.value().has_value()) break;
    // Interleaved writes must never shear: every frame is a whole response.
    EXPECT_NE(next.value()->find(" OK HIGH"), std::string::npos)
        << *next.value();
    ++frames;
  }
  EXPECT_EQ(frames, kThreads * kPerThread);
  close(fds[0]);
}

}  // namespace
}  // namespace tkdc::serve
