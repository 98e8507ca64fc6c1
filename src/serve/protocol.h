#ifndef TKDC_SERVE_PROTOCOL_H_
#define TKDC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tkdc::serve {

/// Wire protocol of `tkdc_serve`.
///
/// A connection carries a stream of *frames*, each holding one request or
/// one response payload. Two framings exist:
///   - kLengthPrefixed (TCP): 4-byte big-endian payload length, then the
///     payload bytes. Lengths above kMaxFrameBytes are a protocol error
///     (the peer is garbage or hostile; the connection is dropped rather
///     than buffering unbounded input).
///   - kLine (pipe mode, stdin/stdout): newline-terminated text payloads,
///     so a shell can drive the server with printf. Response bodies have
///     embedded newlines flattened to spaces to keep one-frame-per-line.
///
/// Request payload grammar (text in both framings):
///   <id> CLASSIFY [@model] <v1,v2,...> [timeout_ms]
///   <id> CLASSIFY_TRAINING [@model] <v1,v2,...> [timeout_ms]
///   <id> CLASSIFY_MC [@model] <v1,v2,...> [timeout_ms]
///   <id> ESTIMATE [@model] <v1,v2,...> [timeout_ms]
///   <id> INSERT [@model] <v1,v2,...> [timeout_ms]
///   <id> DELETE [@model] <v1,v2,...> [timeout_ms]
///   <id> FLUSH [@model]
///   <id> STATS [@model]
///   <id> RELOAD [@model] [path]
///   <id> PING
///   <id> MODELS
///   <id> LOAD @model <path>
///   <id> UNLOAD @model
/// `id` is a client-chosen uint64 echoed in the response, so responses may
/// be matched out of order (the micro-batcher completes requests by batch,
/// not arrival order). `timeout_ms` overrides the server's default
/// per-request deadline (0 = no deadline).
///
/// Model scope: a server holds many models in its registry, each addressed
/// by a `@<model_id>` token right after the verb (e.g.
/// `7 CLASSIFY @users-eu 1.2,3.4`). Scope-less requests route to the
/// default model (`--model`), keeping every pre-fleet client unchanged;
/// `@default` names it explicitly. Ids are 1-64 chars of [A-Za-z0-9_.-]
/// (see IsValidModelId). MODELS lists every registered slot; LOAD
/// registers + loads a new slot from a model file; UNLOAD drops one
/// (in-flight requests keep the evicted generation alive, RCU-style).
///
/// Streaming verbs: INSERT adds a training point to the serving model's
/// delta overlay, DELETE tombstones an existing point (matched by exact
/// coordinates), and FLUSH synchronously rebuilds the base model on
/// base ∪ overlay and swaps it in. INSERT/DELETE flow through the same
/// micro-batcher queue as queries, so a classify enqueued after an insert
/// observes it.
///
/// CLASSIFY_MC queries a multi-class model (a tag-7 container serving K
/// per-class KDEs); the OK body is the predicted class *label*. It is an
/// error against a single-class model, as CLASSIFY/ESTIMATE are against a
/// multi-class one — the verb must match the loaded model kind.
///
/// Response payload grammar:
///   <id> OK <body>         body: HIGH | LOW | <class label> | <density> |
///                                PONG | RELOADED | INSERTED | DELETED |
///                                REBUILT <n> | <stats json>
///   <id> ERR <message>     malformed/unsatisfiable request (never aborts)
///   <id> OVERLOADED        admission queue full; retry later
///   <id> TIMEOUT           deadline expired before execution
/// Unparseable requests are answered with the leading id token when it
/// parses (e.g. a known id with an unknown verb) and id 0 otherwise.
enum class RequestVerb {
  kClassify,
  kClassifyTraining,
  kClassifyMc,
  kEstimateDensity,
  kInsert,
  kDelete,
  kFlush,
  kStats,
  kReload,
  kPing,
  kModels,
  kLoad,
  kUnload,
};

struct Request {
  uint64_t id = 0;
  RequestVerb verb = RequestVerb::kPing;
  /// Query point; classify/estimate verbs only.
  std::vector<double> point;
  /// Model path override; RELOAD (empty = reload the slot's path) and
  /// LOAD (required) only.
  std::string path;
  /// Target model id (`@<id>` scope); empty = the default model.
  std::string model_id;
  /// Per-request deadline override in ms; -1 = server default, 0 = none.
  int64_t timeout_ms = -1;
};

enum class ResponseCode { kOk, kError, kOverloaded, kTimeout };

/// Wire token of a response code ("OK", "ERR", "OVERLOADED", "TIMEOUT").
const char* ResponseCodeName(ResponseCode code);

struct Response {
  uint64_t id = 0;
  ResponseCode code = ResponseCode::kOk;
  /// Body after the code token; empty for OVERLOADED / TIMEOUT.
  std::string body;

  static Response Ok(uint64_t id, std::string body);
  static Response Error(uint64_t id, std::string message);
  static Response Overloaded(uint64_t id);
  static Response Timeout(uint64_t id);
};

/// Parses one request payload. Errors never abort: a malformed frame
/// yields a Status whose message goes back to the client as an ERR
/// response. Rejects non-finite coordinates (they would poison density
/// sums server-side).
Result<Request> ParseRequest(std::string_view payload);

/// Best-effort request id for ERR responses to payloads ParseRequest
/// rejected: the leading token when it is a valid id, else 0. Lets a
/// client match "unknown verb"-style errors to the request that caused
/// them instead of receiving an unattributable id-0 error.
uint64_t BestEffortRequestId(std::string_view payload);

/// Whether `id` is a legal model id: 1-64 chars of [A-Za-z0-9_.-]. The
/// alphabet is closed under filenames and the wire grammar (no spaces, no
/// '@'), so a model-dir stem is always addressable and vice versa.
bool IsValidModelId(std::string_view id);

/// Best-effort model scope of a request payload: the `@`-token after the
/// verb, or "" when absent or malformed. Routers key the consistent-hash
/// ring on this without validating the rest of the request — the owning
/// worker is the single source of protocol errors.
std::string BestEffortModelScope(std::string_view payload);

/// Renders a response payload (without framing).
std::string RenderResponse(const Response& response);

enum class Framing { kLengthPrefixed, kLine };

/// Frames a payload per `framing` (adds the length prefix or the trailing
/// newline; flattens interior newlines in line mode).
std::string EncodeFrame(std::string_view payload, Framing framing);

/// Hard cap on a single frame payload (1 MiB). A length prefix above this
/// is treated as a protocol error, bounding per-connection memory.
inline constexpr size_t kMaxFrameBytes = 1u << 20;

/// Buffered frame reader over a file descriptor. Blocking reads are split
/// into short poll() waits so the caller's `stop` predicate (shutdown or
/// reload flags) is observed within ~50 ms even when the peer is idle.
/// Owned and used by exactly one thread.
class FrameReader {
 public:
  FrameReader(int fd, Framing framing) : fd_(fd), framing_(framing) {}

  /// Next payload. Outcomes:
  ///   - a payload string: one complete frame;
  ///   - nullopt: clean end of stream (EOF with no partial frame) or
  ///     `stop` returned true;
  ///   - error Status: malformed frame (oversized length, EOF mid-frame)
  ///     or a read error. The connection should be dropped.
  Result<std::optional<std::string>> Next(const std::function<bool()>& stop);

 private:
  /// Waits (poll) then reads once into `buffer_`. Returns false on EOF.
  Result<bool> FillSome(const std::function<bool()>& stop, bool* stopped);

  int fd_;
  Framing framing_;
  std::string buffer_;
};

/// Mutex-guarded frame writer shared between a connection's reader thread
/// (parse errors, control responses) and the micro-batcher's dispatcher
/// (batch completions). A failed write marks the writer broken and later
/// writes become no-ops — a vanished client must not take down the
/// daemon. Closes `fd` on destruction when `owns_fd`.
class FrameWriter {
 public:
  /// Holds back every frame the constructing thread writes, through any
  /// FrameWriter, until the scope ends; then sends each writer's frames in
  /// one write(). The dispatcher wraps a batch's answers in one, so a
  /// connection with many answers in the batch gets one segment instead of
  /// one per answer. Frames stay whole and in order per writer; other
  /// threads' writes are not held. Every writer written through must
  /// outlive the scope, and a thread opens one scope at a time.
  class Coalesce {
   public:
    Coalesce();
    ~Coalesce();

    Coalesce(const Coalesce&) = delete;
    Coalesce& operator=(const Coalesce&) = delete;

   private:
    friend class FrameWriter;
    /// Held frames per writer, in first-write order.
    std::vector<std::pair<FrameWriter*, std::string>> held_;
  };

  FrameWriter(int fd, Framing framing, bool owns_fd);
  ~FrameWriter();

  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  /// Serializes, frames, and writes `response`. Thread-safe.
  void Write(const Response& response);

  /// Frames and writes an already-rendered payload verbatim. The fleet
  /// router forwards request/response payloads through this so the bytes
  /// between client and worker survive the hop unmodified (only the
  /// leading id token is rewritten). Thread-safe.
  void WriteRaw(std::string_view payload);

  bool broken() const;

 private:
  /// Writes whole frames under the mutex.
  void Send(std::string_view frames);

  mutable std::mutex mutex_;
  int fd_;
  Framing framing_;
  bool owns_fd_;
  bool broken_ = false;
};

/// Turns off Nagle's algorithm on a TCP socket. With it on, a frame written
/// while the previous one is unacknowledged waits for the peer's ACK, and
/// a peer that delays its ACK (Linux: at least 40 ms) holds the answer that
/// long. Every TCP socket the serve layer owns goes through this: the
/// connections tkdc_serve and tkdc_router accept, and the router's dials.
void SetTcpNoDelay(int fd);

/// Binds a listening TCP socket on 127.0.0.1:`port` (0 = ephemeral) and
/// announces "listening on 127.0.0.1:<port>" on `announce`. Returns the
/// socket, or -1 after printing the failure to stderr.
int ListenLoopback(uint16_t port, std::ostream& announce);

}  // namespace tkdc::serve

#endif  // TKDC_SERVE_PROTOCOL_H_
