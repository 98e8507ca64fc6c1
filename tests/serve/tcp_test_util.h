#ifndef TKDC_TESTS_SERVE_TCP_TEST_UTIL_H_
#define TKDC_TESTS_SERVE_TCP_TEST_UTIL_H_

// Loopback TCP helpers shared by the serve and fleet tests: an in-process
// server, a client connection, and the pipelined-answer check.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "serve/server.h"

namespace tkdc::serve::tcp_test {

/// Captures the "listening on 127.0.0.1:<port>" announcement, which RunTcp
/// flushes from its own thread, via a promise set on sync().
class AnnounceStream : public std::ostream {
 public:
  AnnounceStream() : std::ostream(&buf_), buf_(this) {}

  uint16_t AwaitPort() {
    const std::string text = port_future_.get();
    const size_t colon = text.rfind(':');
    EXPECT_NE(colon, std::string::npos) << text;
    return static_cast<uint16_t>(std::stoi(text.substr(colon + 1)));
  }

 private:
  class Buf : public std::stringbuf {
   public:
    explicit Buf(AnnounceStream* owner) : owner_(owner) {}
    int sync() override {
      if (!owner_->port_set_) {
        owner_->port_set_ = true;
        owner_->port_promise_.set_value(str());
      }
      return 0;
    }

   private:
    AnnounceStream* owner_;
  };

  Buf buf_;
  bool port_set_ = false;
  std::promise<std::string> port_promise_;
  std::future<std::string> port_future_ = port_promise_.get_future();
};

/// One in-process tkdc_serve on an ephemeral loopback port, served on its
/// own thread until Kill().
class TcpServer {
 public:
  explicit TcpServer(ServerOptions options) {
    options.terminate = &terminate_;
    auto created = Server::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.message();
    server_ = created.take();
    runner_ = std::thread([this] {
      exit_code_ = server_->RunTcp(/*port=*/0, announce_);
    });
    port_ = announce_.AwaitPort();
    EXPECT_GT(port_, 0);
  }

  ~TcpServer() { Kill(); }

  uint16_t port() const { return port_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }
  Server& server() { return *server_; }

  /// Terminates (drains) the server and returns its exit code.
  int Kill() {
    if (!runner_.joinable()) return exit_code_;
    terminate_.store(true);
    runner_.join();
    return exit_code_;
  }

 private:
  std::atomic<bool> terminate_{false};
  std::unique_ptr<Server> server_;
  AnnounceStream announce_;
  std::thread runner_;
  uint16_t port_ = 0;
  int exit_code_ = -1;
};

inline int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << strerror(errno);
  return fd;
}

/// Checks that a length-prefixed endpoint on `port` (a 2-d model behind
/// it) answers pipelined requests at once. A server that leaves Nagle's
/// algorithm on holds the second of two answers until the client ACKs the
/// first, and a client past TCP's quick-ACK start delays that ACK by at
/// least 40 ms. So: 200 one-at-a-time PINGs first, then two PINGs in one
/// write() and two CLASSIFYs in one write(); each pair must be fully
/// answered within 20 ms. A pair gets a second try after a fresh warm-up
/// (a held answer is late on every try; a host stall rarely twice).
inline void ExpectPipelinedAnswersNotHeld(uint16_t port) {
  constexpr double kBoundMs = 20.0;
  const int fd = ConnectLoopback(port);
  FrameReader reader(fd, Framing::kLengthPrefixed);
  uint64_t next_id = 0;
  // Sends one request per entry in a single write(); returns the ms until
  // every answer has been read.
  const auto round_trip_ms = [&](const std::vector<std::string>& requests) {
    std::string bytes;
    std::set<uint64_t> unanswered;
    for (const std::string& request : requests) {
      unanswered.insert(++next_id);
      bytes += EncodeFrame(std::to_string(next_id) + " " + request,
                           Framing::kLengthPrefixed);
    }
    const auto start = std::chrono::steady_clock::now();
    const auto give_up = start + std::chrono::seconds(10);
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    while (!unanswered.empty()) {
      auto frame = reader.Next(
          [&] { return std::chrono::steady_clock::now() > give_up; });
      if (!frame.ok() || !frame.value().has_value()) {
        ADD_FAILURE() << "no answer for " << unanswered.size()
                      << " request(s)";
        break;
      }
      const std::string& payload = *frame.value();
      const uint64_t id = std::stoull(payload.substr(0, payload.find(' ')));
      EXPECT_EQ(payload.find(" OK "), payload.find(' ')) << payload;
      EXPECT_EQ(unanswered.erase(id), 1u) << payload;
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const std::vector<std::vector<std::string>> pairs = {
      {"PING", "PING"}, {"CLASSIFY 0.1,0.2", "CLASSIFY -0.3,0.4"}};
  for (const std::vector<std::string>& pair : pairs) {
    double best_ms = std::numeric_limits<double>::infinity();
    for (int attempt = 0; attempt < 2 && best_ms >= kBoundMs; ++attempt) {
      for (int i = 0; i < 200; ++i) round_trip_ms({"PING"});
      best_ms = std::min(best_ms, round_trip_ms(pair));
    }
    EXPECT_LT(best_ms, kBoundMs) << "pipelined " << pair[0] << " pair";
  }
  ::close(fd);
}

}  // namespace tkdc::serve::tcp_test

#endif  // TKDC_TESTS_SERVE_TCP_TEST_UTIL_H_
