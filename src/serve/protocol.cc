#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tkdc::serve {
namespace {

/// Poll interval for blocking reads: the latency bound on noticing a
/// shutdown/reload flag while a connection is idle.
constexpr int kPollIntervalMs = 50;

std::vector<std::string_view> SplitTokens(std::string_view payload) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < payload.size()) {
    while (i < payload.size() && payload[i] == ' ') ++i;
    size_t start = i;
    while (i < payload.size() && payload[i] != ' ') ++i;
    if (i > start) tokens.push_back(payload.substr(start, i - start));
  }
  return tokens;
}

bool ParseUint64(std::string_view token, uint64_t* value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

bool ParseInt64(std::string_view token, int64_t* value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

/// Parses one coordinate straight from its cell: an optional sign (`+` or
/// `-`), then a decimal number with an optional exponent. Leading
/// whitespace, hex floats, NaN and infinities are rejected.
Status ParseCoordinate(std::string_view cell, double* value) {
  if (cell.empty()) return Errorf() << "empty coordinate in point";
  // from_chars takes no leading '+'; skip one, but never in front of a
  // second sign ("+-1").
  std::string_view digits = cell;
  if (digits.front() == '+') {
    digits.remove_prefix(1);
    if (!digits.empty() && (digits.front() == '-' || digits.front() == '+')) {
      return Errorf() << "bad coordinate \"" << cell << "\"";
    }
  }
  const char* last = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), last, *value);
  const bool in_range = ec == std::errc();
  if (ptr != last || !(in_range || ec == std::errc::result_out_of_range)) {
    return Errorf() << "bad coordinate \"" << cell << "\"";
  }
  if (!in_range) {
    // Well-formed but beyond double's range: strtod's rounding (signed zero
    // on underflow, infinity on overflow) decides, as it always did.
    *value = std::strtod(std::string(digits).c_str(), nullptr);
  }
  if (!std::isfinite(*value)) {
    return Errorf() << "non-finite coordinate \"" << cell << "\"";
  }
  return Status::Ok();
}

Status ParsePoint(std::string_view csv, std::vector<double>* point) {
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) comma = csv.size();
    double value = 0.0;
    if (const Status status =
            ParseCoordinate(csv.substr(start, comma - start), &value);
        !status.ok()) {
      return status;
    }
    point->push_back(value);
    start = comma + 1;
    if (comma == csv.size()) break;
  }
  if (point->empty()) return Errorf() << "empty point";
  return Status::Ok();
}

Status ParseTimeout(std::string_view token, int64_t* timeout_ms) {
  int64_t value = 0;
  if (!ParseInt64(token, &value) || value < 0) {
    return Errorf() << "bad timeout_ms \"" << token << "\"";
  }
  *timeout_ms = value;
  return Status::Ok();
}

}  // namespace

const char* ResponseCodeName(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk:
      return "OK";
    case ResponseCode::kError:
      return "ERR";
    case ResponseCode::kOverloaded:
      return "OVERLOADED";
    case ResponseCode::kTimeout:
      return "TIMEOUT";
  }
  return "ERR";
}

Response Response::Ok(uint64_t id, std::string body) {
  return Response{id, ResponseCode::kOk, std::move(body)};
}
Response Response::Error(uint64_t id, std::string message) {
  return Response{id, ResponseCode::kError, std::move(message)};
}
Response Response::Overloaded(uint64_t id) {
  return Response{id, ResponseCode::kOverloaded, ""};
}
Response Response::Timeout(uint64_t id) {
  return Response{id, ResponseCode::kTimeout, ""};
}

Result<Request> ParseRequest(std::string_view payload) {
  // Tolerate CRLF line endings from naive TCP clients.
  if (!payload.empty() && payload.back() == '\r') payload.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(payload);
  if (tokens.size() < 2) {
    return Errorf() << "expected \"<id> <verb> [args]\", got \"" << payload
                    << "\"";
  }
  Request request;
  if (!ParseUint64(tokens[0], &request.id)) {
    return Errorf() << "bad request id \"" << tokens[0] << "\"";
  }
  const std::string_view verb = tokens[1];
  // Optional `@<model_id>` scope right after the verb (mandatory for
  // LOAD/UNLOAD, handled below). Coordinates, paths, and timeouts never
  // start with '@', so the prefix is unambiguous.
  size_t arg = 2;
  if (tokens.size() > 2 && tokens[2].front() == '@' && verb != "MODELS") {
    const std::string_view id = tokens[2].substr(1);
    if (!IsValidModelId(id)) {
      return Errorf() << "bad model id \"" << tokens[2]
                      << "\" (want @ then 1-64 chars of [A-Za-z0-9_.-])";
    }
    request.model_id = std::string(id);
    arg = 3;
  }
  const size_t args = tokens.size() - arg;
  const bool takes_point = verb == "CLASSIFY" || verb == "CLASSIFY_TRAINING" ||
                           verb == "CLASSIFY_MC" || verb == "ESTIMATE" ||
                           verb == "INSERT" || verb == "DELETE";
  if (takes_point) {
    request.verb = verb == "CLASSIFY"            ? RequestVerb::kClassify
                   : verb == "CLASSIFY_TRAINING" ? RequestVerb::kClassifyTraining
                   : verb == "CLASSIFY_MC"       ? RequestVerb::kClassifyMc
                   : verb == "ESTIMATE"          ? RequestVerb::kEstimateDensity
                   : verb == "INSERT"            ? RequestVerb::kInsert
                                                 : RequestVerb::kDelete;
    if (args < 1 || args > 2) {
      return Errorf() << verb << " takes [@model] <v1,v2,...> [timeout_ms]";
    }
    if (const Status status = ParsePoint(tokens[arg], &request.point);
        !status.ok()) {
      return status;
    }
    if (args == 2) {
      if (const Status status =
              ParseTimeout(tokens[arg + 1], &request.timeout_ms);
          !status.ok()) {
        return status;
      }
    }
    return request;
  }
  if (verb == "STATS" || verb == "PING" || verb == "FLUSH") {
    if (args != 0) {
      return Errorf() << verb << " takes no arguments beyond [@model]";
    }
    request.verb = verb == "STATS"  ? RequestVerb::kStats
                   : verb == "PING" ? RequestVerb::kPing
                                    : RequestVerb::kFlush;
    return request;
  }
  if (verb == "RELOAD") {
    if (args > 1) return Errorf() << "RELOAD takes [@model] [path]";
    request.verb = RequestVerb::kReload;
    if (args == 1) request.path = std::string(tokens[arg]);
    return request;
  }
  if (verb == "MODELS") {
    if (tokens.size() != 2) return Errorf() << "MODELS takes no arguments";
    request.verb = RequestVerb::kModels;
    return request;
  }
  if (verb == "LOAD") {
    if (request.model_id.empty() || args != 1) {
      return Errorf() << "LOAD takes @model <path>";
    }
    request.verb = RequestVerb::kLoad;
    request.path = std::string(tokens[arg]);
    return request;
  }
  if (verb == "UNLOAD") {
    if (request.model_id.empty() || args != 0) {
      return Errorf() << "UNLOAD takes @model";
    }
    request.verb = RequestVerb::kUnload;
    return request;
  }
  return Errorf() << "unknown verb \"" << verb
                  << "\" (known: CLASSIFY CLASSIFY_TRAINING CLASSIFY_MC "
                     "ESTIMATE INSERT DELETE FLUSH STATS RELOAD PING "
                     "MODELS LOAD UNLOAD)";
}

uint64_t BestEffortRequestId(std::string_view payload) {
  if (!payload.empty() && payload.back() == '\r') payload.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(payload);
  uint64_t id = 0;
  if (!tokens.empty() && ParseUint64(tokens[0], &id)) return id;
  return 0;
}

bool IsValidModelId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string BestEffortModelScope(std::string_view payload) {
  if (!payload.empty() && payload.back() == '\r') payload.remove_suffix(1);
  const std::vector<std::string_view> tokens = SplitTokens(payload);
  if (tokens.size() < 3 || tokens[2].front() != '@') return "";
  const std::string_view id = tokens[2].substr(1);
  return IsValidModelId(id) ? std::string(id) : "";
}

std::string RenderResponse(const Response& response) {
  std::string payload = std::to_string(response.id);
  payload += ' ';
  payload += ResponseCodeName(response.code);
  if (!response.body.empty()) {
    payload += ' ';
    payload += response.body;
  }
  return payload;
}

std::string EncodeFrame(std::string_view payload, Framing framing) {
  if (framing == Framing::kLine) {
    std::string frame(payload);
    for (char& c : frame) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    frame += '\n';
    return frame;
  }
  std::string frame;
  frame.reserve(payload.size() + 4);
  const uint32_t length = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xff));
  frame.push_back(static_cast<char>((length >> 16) & 0xff));
  frame.push_back(static_cast<char>((length >> 8) & 0xff));
  frame.push_back(static_cast<char>(length & 0xff));
  frame.append(payload);
  return frame;
}

Result<bool> FrameReader::FillSome(const std::function<bool()>& stop,
                                   bool* stopped) {
  *stopped = false;
  while (true) {
    if (stop != nullptr && stop()) {
      *stopped = true;
      return true;
    }
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // Signal; loop re-checks stop().
      return Errorf() << "poll failed: " << std::strerror(errno);
    }
    if (ready == 0) continue;  // Idle; re-check stop().
    char chunk[4096];
    const ssize_t got = ::read(fd_, chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Errorf() << "read failed: " << std::strerror(errno);
    }
    if (got == 0) return false;  // EOF.
    buffer_.append(chunk, static_cast<size_t>(got));
    return true;
  }
}

Result<std::optional<std::string>> FrameReader::Next(
    const std::function<bool()>& stop) {
  while (true) {
    if (framing_ == Framing::kLine) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string payload = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return std::optional<std::string>(std::move(payload));
      }
      if (buffer_.size() > kMaxFrameBytes) {
        return Errorf() << "line frame exceeds " << kMaxFrameBytes
                        << " bytes without a newline";
      }
    } else if (buffer_.size() >= 4) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(
          buffer_.data());
      const uint32_t length = (static_cast<uint32_t>(bytes[0]) << 24) |
                              (static_cast<uint32_t>(bytes[1]) << 16) |
                              (static_cast<uint32_t>(bytes[2]) << 8) |
                              static_cast<uint32_t>(bytes[3]);
      if (length > kMaxFrameBytes) {
        return Errorf() << "frame length " << length << " exceeds "
                        << kMaxFrameBytes;
      }
      if (buffer_.size() >= 4 + static_cast<size_t>(length)) {
        std::string payload = buffer_.substr(4, length);
        buffer_.erase(0, 4 + static_cast<size_t>(length));
        return std::optional<std::string>(std::move(payload));
      }
    }
    bool stopped = false;
    const Result<bool> filled = FillSome(stop, &stopped);
    if (!filled.ok()) return filled.status();
    if (stopped) return std::optional<std::string>();
    if (!filled.value()) {
      // EOF: a clean end between frames, an error mid-frame. An unfinished
      // line is tolerated as a final frame (shell here-docs often lack the
      // trailing newline).
      if (framing_ == Framing::kLine && !buffer_.empty()) {
        std::string payload = std::move(buffer_);
        buffer_.clear();
        return std::optional<std::string>(std::move(payload));
      }
      if (!buffer_.empty()) {
        return Errorf() << "EOF inside a frame (" << buffer_.size()
                        << " bytes buffered)";
      }
      return std::optional<std::string>();
    }
  }
}

namespace {

/// The open Coalesce scope of this thread (null = none).
thread_local FrameWriter::Coalesce* current_coalesce = nullptr;

}  // namespace

FrameWriter::Coalesce::Coalesce() { current_coalesce = this; }

FrameWriter::Coalesce::~Coalesce() {
  current_coalesce = nullptr;
  for (auto& [writer, frames] : held_) writer->Send(frames);
}

FrameWriter::FrameWriter(int fd, Framing framing, bool owns_fd)
    : fd_(fd), framing_(framing), owns_fd_(owns_fd) {}

FrameWriter::~FrameWriter() {
  if (owns_fd_ && fd_ >= 0) ::close(fd_);
}

void FrameWriter::Write(const Response& response) {
  WriteRaw(RenderResponse(response));
}

void FrameWriter::WriteRaw(std::string_view payload) {
  std::string frame = EncodeFrame(payload, framing_);
  if (current_coalesce == nullptr) {
    Send(frame);
    return;
  }
  auto& held = current_coalesce->held_;
  const auto it =
      std::find_if(held.begin(), held.end(),
                   [this](const auto& entry) { return entry.first == this; });
  if (it == held.end()) {
    held.emplace_back(this, std::move(frame));
  } else {
    it->second += frame;
  }
}

void FrameWriter::Send(std::string_view frames) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (broken_) return;
  size_t written = 0;
  while (written < frames.size()) {
    const ssize_t put =
        ::write(fd_, frames.data() + written, frames.size() - written);
    if (put < 0) {
      if (errno == EINTR) continue;
      broken_ = true;  // Peer vanished; stop writing, keep serving others.
      return;
    }
    written += static_cast<size_t>(put);
  }
}

bool FrameWriter::broken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return broken_;
}

void SetTcpNoDelay(int fd) {
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
}

int ListenLoopback(uint16_t port, std::ostream& announce) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "socket failed: %s\n", std::strerror(errno));
    return -1;
  }
  const int enable = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 64) < 0) {
    std::fprintf(stderr, "bind/listen failed: %s\n", std::strerror(errno));
    ::close(listener);
    return -1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  announce << "listening on 127.0.0.1:" << ntohs(addr.sin_port) << "\n"
           << std::flush;
  return listener;
}

}  // namespace tkdc::serve
