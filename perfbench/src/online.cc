#include "online.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using tkdc::serve::Framing;

/// Captures RunTcp's "listening on 127.0.0.1:<port>" announcement, which
/// it flushes from the server thread once bound.
class AnnounceStream : public std::ostream {
 public:
  AnnounceStream() : std::ostream(&buf_), buf_(this) {}

  /// The announced port, or 0 when none came within `timeout` (RunTcp
  /// returns without announcing when it cannot bind).
  uint16_t AwaitPort(std::chrono::seconds timeout) {
    if (port_future_.wait_for(timeout) != std::future_status::ready) return 0;
    const std::string text = port_future_.get();
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos) return 0;
    return static_cast<uint16_t>(std::atoi(text.c_str() + colon + 1));
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

std::string FormatPoint(std::span<const double> x) {
  std::string out;
  char buffer[32];
  for (size_t j = 0; j < x.size(); ++j) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", x[j]);
    if (j > 0) out.push_back(',');
    out += buffer;
  }
  return out;
}

/// Request bodies (verb + coordinates) the generator draws from, and the
/// label the reference model gives each CLASSIFY point.
struct RequestPools {
  std::vector<std::string> classify;
  std::vector<std::string> insert;
  std::vector<bool> expected_high;
};

/// Traced runs keep the spans of one request in this many, so a trace of
/// the high-rate step stays a few MB.
constexpr uint64_t kRequestSpanEvery = 8;

struct StepPlan {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  double insert_share = 0.0;
  /// Compare every CLASSIFY answer with the reference model.
  bool check_labels = false;
  /// Emit one span per request (fixed-rate steps of traced runs).
  bool request_spans = false;
  uint64_t seed = 0;
};

struct StepResult {
  std::string name;
  double offered_rps = 0.0;  // Requests sent per second of schedule.
  /// INSERTs are a hundred times rarer than CLASSIFYs: a step has too few
  /// for a steady tail percentile, so their latency is read at the median.
  double insert_p50_us = 0.0;
  uint64_t sent = 0;
  uint64_t failed = 0;  // ERR, OVERLOADED, TIMEOUT, missing or wrong label.
  size_t backlog_max = 0;  // Most requests due but not yet sent.
  /// Median over the second half of the step of the requests sent but not
  /// yet answered, sampled every millisecond: a backlog that grows shows in
  /// all the samples, a stall of the host in a few.
  double inflight_median = 0.0;
  size_t overlay_rows_max = 0;
  double classify_p50_us = 0.0, classify_p99_us = 0.0, late_p99_us = 0.0;
  /// Latencies in schedule order; a failed request is +infinity.
  std::vector<double> classify_us, insert_us;
  bool valid = false;        // The generator kept to its schedule.
  bool sustainable = false;  // Valid, p99 and backlog within bounds.
};

/// Open-loop generator: seeded Poisson arrivals spread round-robin over a
/// few loopback connections. One thread spins through the whole step: it
/// sends each request when due, never waiting for answers, and reads the
/// answers that have arrived in between. Latency is measured from each
/// request's scheduled send time. A single spinning thread is never woken,
/// so no wake-up delay of the client lands in the latencies, and it takes
/// one vCPU from the server, not two.
class LoadGenerator {
 public:
  /// `max_requests` is the most requests one step can schedule; see
  /// Presize.
  LoadGenerator(uint16_t port, size_t connections, size_t max_requests,
                const RequestPools& pools, tkdc::serve::Server& server)
      : pools_(pools), server_(server), max_requests_(max_requests) {
    for (size_t c = 0; c < connections; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
        if (fd >= 0) ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // Non-blocking: the one thread must never sleep in a read or write.
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      fds_.push_back(fd);
    }
  }

  ~LoadGenerator() {
    for (const int fd : fds_) ::close(fd);
  }

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool connected() const { return !fds_.empty(); }

  StepResult Run(const StepPlan& plan, double p99_limit_us,
                 double late_limit_us, Trace& trace);

 private:
  size_t OverlayRows() const {
    const auto model = server_.batcher().model();
    return model->overlay != nullptr ? model->overlay->snapshot().size() : 0;
  }

  const RequestPools& pools_;
  tkdc::serve::Server& server_;
  const size_t max_requests_;
  std::vector<int> fds_;
  uint64_t next_id_ = 1;
};

/// Makes `v` hold `count` copies of `fill` after writing `max_count` of
/// them: every step touches the memory of the largest possible step, so
/// peak RSS does not depend on how far a run's ramp climbs.
template <typename T>
void Presize(std::vector<T>& v, size_t max_count, size_t count, T fill) {
  v.assign(std::max(max_count, count), fill);
  v.resize(count);
}

/// Spins until `due_ns`. Sleeping instead lets the CPU go idle, and waking
/// it again can take milliseconds on virtualized hosts, which would show
/// up as lateness of the submitting thread.
void WaitUntil(int64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}

/// CLASSIFY latency and generator lateness percentiles are taken per chunk
/// of this many requests, in schedule order (see ChunkedPercentile); 1000
/// leaves ten samples beyond each chunk's p99.
constexpr size_t kChunk = 1000;

/// Each fixed rate runs as this many pieces, alternating lo and hi.
constexpr size_t kRounds = 4;

/// Median over consecutive chunks of `chunk` samples (in schedule order) of
/// each chunk's percentile `q`, so one stall of the host moves one chunk,
/// not the step. Fewer samples than two chunks give the plain percentile.
double ChunkedPercentile(const std::vector<double>& in_order, size_t chunk,
                         double q) {
  std::vector<double> per_chunk;
  for (size_t begin = 0; begin + chunk <= in_order.size(); begin += chunk) {
    std::vector<double> part(in_order.begin() + static_cast<ptrdiff_t>(begin),
                             in_order.begin() +
                                 static_cast<ptrdiff_t>(begin + chunk));
    per_chunk.push_back(Percentile(part, q));
  }
  if (per_chunk.size() < 2) {
    std::vector<double> all = in_order;
    return Percentile(all, q);
  }
  return Median(per_chunk);
}

StepResult LoadGenerator::Run(const StepPlan& plan, double p99_limit_us,
                              double late_limit_us, Trace& trace) {
  StepResult result;
  result.name = plan.name;
  const int64_t step_span = trace.Begin("step." + plan.name);

  // The seeded schedule: arrival offsets, verbs and pool rows.
  std::mt19937_64 rng(plan.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int64_t> due;
  std::vector<uint8_t> is_insert;
  std::vector<uint32_t> row;
  Presize(due, max_requests_, 0, int64_t{0});
  Presize(is_insert, max_requests_, 0, uint8_t{0});
  Presize(row, max_requests_, 0, uint32_t{0});
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - unit(rng)) / plan.rate;
    if (t >= plan.seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
    is_insert.push_back(unit(rng) < plan.insert_share);
    const size_t pool = is_insert.back() ? pools_.insert.size()
                                         : pools_.classify.size();
    row.push_back(static_cast<uint32_t>(rng() % pool));
  }
  const size_t count = due.size();
  const uint64_t base_id = next_id_;
  next_id_ += count;

  // Per-request outcomes.
  std::vector<int64_t> sent_ns, recv_ns;
  std::vector<uint8_t> code, high;
  Presize(sent_ns, max_requests_, count, int64_t{-1});
  Presize(recv_ns, max_requests_, count, int64_t{-1});
  Presize(code, max_requests_, count, uint8_t{0});
  Presize(high, max_requests_, count, uint8_t{0});
  uint64_t received = 0;
  bool io_failed = false;

  // Bytes queued for each connection (and how many of them went out), and
  // bytes received but not yet parsed.
  std::vector<std::string> out(fds_.size()), in(fds_.size());
  std::vector<size_t> out_done(fds_.size(), 0);
  std::vector<pollfd> pfds(fds_.size());
  std::vector<char> chunk(1 << 16);
  const auto flush = [&](size_t c) {
    while (out_done[c] < out[c].size()) {
      const ssize_t put =
          ::send(fds_[c], out[c].data() + out_done[c],
                 out[c].size() - out_done[c], MSG_NOSIGNAL);
      if (put > 0) {
        out_done[c] += static_cast<size_t>(put);
      } else if (put < 0 && errno == EINTR) {
        continue;
      } else {
        // A full socket buffer is the server not reading yet: retry on
        // the next pass. Anything else ends the step.
        io_failed |= !(put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
        return;
      }
    }
    out[c].clear();
    out_done[c] = 0;
  };
  // Reads and matches every answer that has arrived, without waiting.
  const auto receive = [&] {
    for (size_t c = 0; c < fds_.size(); ++c) pfds[c] = {fds_[c], POLLIN, 0};
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) return;
    for (size_t c = 0; c < fds_.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(fds_[c], chunk.data(), chunk.size(), 0);
      if (got <= 0) {
        io_failed |= got == 0 || (errno != EAGAIN && errno != EINTR);
        continue;
      }
      const int64_t now = NowNs();
      std::string& buffer = in[c];
      buffer.append(chunk.data(), static_cast<size_t>(got));
      size_t offset = 0;
      while (buffer.size() - offset >= 4) {
        uint32_t length = 0;
        std::memcpy(&length, buffer.data() + offset, 4);
        length = ntohl(length);
        if (buffer.size() - offset - 4 < length) break;
        const std::string_view payload(buffer.data() + offset + 4, length);
        offset += 4 + length;
        // "<id> <CODE> [body]"
        uint64_t id = 0;
        std::from_chars(payload.data(), payload.data() + payload.size(), id);
        if (id < base_id || id >= base_id + count) continue;
        const size_t k = id - base_id;
        const size_t space = payload.find(' ');
        const std::string_view rest =
            space == std::string_view::npos ? std::string_view()
                                            : payload.substr(space + 1);
        // A second answer to one id fails it (code 3).
        code[k] = recv_ns[k] >= 0 ? 3 : (rest.substr(0, 3) == "OK " ? 1 : 2);
        recv_ns[k] = now;
        high[k] = rest == "OK HIGH";
        ++received;
      }
      buffer.erase(0, offset);
    }
  };

  const int64_t start_ns = NowNs() + 2'000'000;
  int64_t last_overlay_probe = start_ns;
  const int64_t second_half_ns = static_cast<int64_t>(plan.seconds * 0.5e9);
  int64_t last_inflight_sample = 0;
  std::vector<double> inflight;
  const auto sample_inflight = [&](size_t sent) {
    inflight.push_back(
        static_cast<double>(sent - std::min<uint64_t>(sent, received)));
  };
  size_t next = 0;
  int64_t drain_deadline = 0;  // Set once everything is sent.
  while (!io_failed) {
    const int64_t now = NowNs();
    if (next < count && now - start_ns >= due[next]) {
      // Everything due goes out at once, one write per connection.
      const size_t ready = static_cast<size_t>(
          std::upper_bound(due.begin() + static_cast<ptrdiff_t>(next),
                           due.end(), now - start_ns) -
          due.begin());
      result.backlog_max = std::max(result.backlog_max, ready - next);
      const size_t end = std::min(ready, next + 256);
      for (size_t k = next; k < end; ++k) {
        const std::string& body =
            is_insert[k] ? pools_.insert[row[k]] : pools_.classify[row[k]];
        out[k % fds_.size()] += tkdc::serve::EncodeFrame(
            std::to_string(base_id + k) + " " + body, Framing::kLengthPrefixed);
        sent_ns[k] = now;
      }
      next = end;
    }
    for (size_t c = 0; c < fds_.size(); ++c) {
      if (!out[c].empty()) flush(c);
    }
    receive();
    if (next < count) {
      if (now - start_ns >= second_half_ns &&
          now - last_inflight_sample >= 1'000'000) {
        sample_inflight(next);
        last_inflight_sample = now;
      }
      if (now - last_overlay_probe > 50'000'000) {
        result.overlay_rows_max =
            std::max(result.overlay_rows_max, OverlayRows());
        last_overlay_probe = now;
      }
      continue;
    }
    // Everything is due and queued: wait up to 3 s for the stragglers.
    if (drain_deadline == 0) {
      sample_inflight(next);
      drain_deadline = now + 3'000'000'000;
    }
    bool queued = false;
    for (const std::string& bytes : out) queued |= !bytes.empty();
    if ((received >= count && !queued) || now > drain_deadline) break;
  }
  if (inflight.empty()) sample_inflight(next);
  result.inflight_median = Median(inflight);
  result.overlay_rows_max = std::max(result.overlay_rows_max, OverlayRows());

  result.sent = count;
  result.offered_rps = static_cast<double>(count) / plan.seconds;
  std::vector<double>& classify_us = result.classify_us;
  std::vector<double>& insert_us = result.insert_us;
  std::vector<double> late_us;
  Presize(classify_us, max_requests_, 0, 0.0);
  Presize(late_us, max_requests_, 0, 0.0);
  for (size_t k = 0; k < count; ++k) {
    if (sent_ns[k] >= 0) {
      late_us.push_back(static_cast<double>(sent_ns[k] - start_ns -
                                                   due[k]) / 1e3);
    }
    bool failed = recv_ns[k] < 0 || code[k] != 1;
    if (!failed && plan.check_labels && !is_insert[k] &&
        (high[k] != 0) != pools_.expected_high[row[k]]) {
      failed = true;
    }
    // A failed or refused request counts as missing any latency limit.
    const double latency_us =
        failed ? std::numeric_limits<double>::infinity()
               : static_cast<double>(recv_ns[k] - start_ns - due[k]) / 1e3;
    (is_insert[k] ? insert_us : classify_us).push_back(latency_us);
    if (failed) {
      ++result.failed;
      continue;
    }
    if (plan.request_spans && (base_id + k) % kRequestSpanEvery == 0) {
      const uint64_t id = base_id + k;
      trace.Add("gen.wait", start_ns + due[k], sent_ns[k], step_span, id);
      trace.Add(is_insert[k] ? "serve.insert" : "serve.classify", sent_ns[k],
                recv_ns[k], step_span, id);
    }
  }
  trace.End(step_span);

  result.classify_p99_us = ChunkedPercentile(classify_us, kChunk, 0.99);
  result.classify_p50_us = Median(classify_us);
  result.insert_p50_us = Median(insert_us);
  // Chunked like the CLASSIFY p99: a generator that falls behind for one
  // stall of the host has not fallen behind its schedule.
  result.late_p99_us = ChunkedPercentile(late_us, kChunk, 0.99);
  result.valid = !io_failed && result.late_p99_us <= late_limit_us;
  const double inflight_bound =
      std::max(256.0, plan.rate * p99_limit_us / 1e6);
  // Failures count as missed limits: past 1% of the step, the p99 cannot
  // meet the limit however the chunks fall.
  result.sustainable = result.valid && result.failed * 100 < result.sent &&
                       result.classify_p99_us <= p99_limit_us &&
                       result.inflight_median <= inflight_bound;
  std::printf(
      "step %-10s %s rate %9.0f sent %7llu (%zu INSERT) failed %5llu p50 "
      "%8.1f us p99 %9.1f us insert_p50 %9.1f us late_p99 %7.1f us backlog "
      "%5zu inflight %7.1f\n",
      plan.name.c_str(),
      !result.valid ? "INVALID (generator behind)"
                    : (result.sustainable ? "ok" : "over limit"),
      result.offered_rps, static_cast<unsigned long long>(result.sent),
      insert_us.size(), static_cast<unsigned long long>(result.failed),
      result.classify_p50_us, result.classify_p99_us, result.insert_p50_us,
      result.late_p99_us, result.backlog_max, result.inflight_median);
  return result;
}

/// The batcher's running histograms and drop counters; two reads around a
/// step give that step's share.
struct BatcherCounts {
  tkdc::MetricsRegistry::HistogramSnapshot batch_size, queue_wait;
  uint64_t shed = 0, timed_out = 0;
};

BatcherCounts ReadBatcherCounts(tkdc::serve::Server& server) {
  namespace names = tkdc::serve::metric_names;
  server.batcher().snapshot();  // Folds the pending metrics shard.
  const tkdc::MetricsRegistry& registry = server.registry();
  BatcherCounts counts;
  counts.batch_size = registry.HistogramValue(names::kBatchSize);
  counts.queue_wait = registry.HistogramValue(names::kQueueWaitUs);
  counts.shed = registry.CounterValue(names::kShed);
  counts.timed_out = registry.CounterValue(names::kTimedOut);
  return counts;
}

/// The batcher's histogram and counter deltas, summed over several steps.
struct BatcherDelta {
  std::vector<double> wait_bounds;  // Bucket upper bounds of queue_wait.
  std::vector<uint64_t> wait_buckets;
  uint64_t waits = 0;
  double batch_size_sum = 0.0;
  uint64_t batches = 0;
  uint64_t shed = 0, timed_out = 0;

  void Add(const BatcherCounts& before, const BatcherCounts& after) {
    wait_bounds = after.queue_wait.upper_bounds;
    wait_buckets.resize(after.queue_wait.buckets.size(), 0);
    for (size_t i = 0; i < wait_buckets.size(); ++i) {
      wait_buckets[i] += after.queue_wait.buckets[i] -
                         (i < before.queue_wait.buckets.size()
                              ? before.queue_wait.buckets[i]
                              : 0);
    }
    waits += after.queue_wait.count - before.queue_wait.count;
    batch_size_sum += after.batch_size.sum - before.batch_size.sum;
    batches += after.batch_size.count - before.batch_size.count;
    shed += after.shed - before.shed;
    timed_out += after.timed_out - before.timed_out;
  }
};

/// Percentile of a fixed-bucket histogram (the batcher's), interpolated
/// geometrically inside the bucket that holds the rank. `bounds` are the
/// buckets' upper bounds; the last bucket is open.
double HistogramPercentile(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets,
                           uint64_t total, double q) {
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t below = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (static_cast<double>(below + buckets[i]) < rank) {
      below += buckets[i];
      continue;
    }
    const double lower = i == 0 ? bounds[0] / 10.0 : bounds[i - 1];
    const double upper = i < bounds.size() ? bounds[i] : lower * 10.0;
    const double frac = (rank - static_cast<double>(below)) /
                        static_cast<double>(buckets[i]);
    return lower * std::pow(upper / lower, frac);
  }
  return bounds.back();
}

/// Submit-to-completion latency of an in-process MicroBatcher at `rate`
/// (no socket), over the same model file and batcher settings.
void MeasureInProcessBatcher(const std::string& model_path,
                             const tkdc::serve::BatcherOptions& batcher_options,
                             size_t threads, const tkdc::Dataset& points,
                             double rate,
                             double seconds, uint64_t seed, Report& report,
                             Trace& trace) {
  ScopedSpan span(trace, "batcher.inproc");
  auto loaded = tkdc::api::LoadAny(model_path);
  if (!loaded.ok()) {
    report.Fail("LoadAny: " + loaded.message());
    return;
  }
  auto model = std::make_shared<tkdc::serve::ServingModel>();
  model->classifier = loaded.value().TakeSingle();
  model->classifier->SetNumThreads(threads);
  model->source_path = model_path;
  tkdc::serve::MicroBatcher batcher(batcher_options, model, nullptr);
  batcher.Start();

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int64_t> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - unit(rng)) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  std::vector<int64_t> done_ns(due.size(), -1);
  const int64_t start_ns = NowNs() + 1'000'000;
  for (size_t k = 0; k < due.size(); ++k) {
    WaitUntil(start_ns + due[k]);
    tkdc::serve::Request request;
    request.id = k;
    request.verb = tkdc::serve::RequestVerb::kClassify;
    const auto x = points.Row(rng() % points.size());
    request.point.assign(x.begin(), x.end());
    batcher.Submit(std::move(request),
                   [&done_ns](const tkdc::serve::Response& response) {
                     done_ns[response.id] = NowNs();
                   });
  }
  batcher.Stop();  // Drains and joins the dispatcher.
  std::vector<double> latency_us;
  for (size_t k = 0; k < due.size(); ++k) {
    if (done_ns[k] >= 0) {
      latency_us.push_back(static_cast<double>(done_ns[k] - start_ns - due[k]) /
                           1e3);
    }
  }
  report.Set("batcher.inproc_p50_us", Percentile(latency_us, 0.50), "us");
  report.Set("batcher.inproc_p99_us", Percentile(latency_us, 0.99), "us");
}

/// ns per ParseRequest, and per RenderResponse + EncodeFrame.
void MeasureProtocol(const RequestPools& pools, Report& report, Trace& trace) {
  ScopedSpan span(trace, "protocol.probe");
  std::vector<std::string> payloads;
  for (size_t i = 0; i < pools.classify.size(); ++i) {
    payloads.push_back(std::to_string(i + 1) + " " + pools.classify[i]);
  }
  uint64_t ops = 0, sink = 0;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 0.2) {
    for (const std::string& payload : payloads) {
      auto parsed = tkdc::serve::ParseRequest(payload);
      sink += parsed.ok() ? parsed.value().point.size() : 0;
    }
    ops += payloads.size();
  }
  report.Set("protocol.parse_ns",
             SecondsSince(start) * 1e9 / static_cast<double>(ops), "ns");
  ops = 0;
  start = Clock::now();
  while (SecondsSince(start) < 0.2) {
    for (uint64_t id = 1; id <= 4096; ++id) {
      const tkdc::serve::Response response =
          tkdc::serve::Response::Ok(id, id % 2 ? "HIGH" : "LOW");
      sink += tkdc::serve::EncodeFrame(tkdc::serve::RenderResponse(response),
                                       Framing::kLengthPrefixed)
                  .size();
    }
    ops += 4096;
  }
  report.Set("protocol.render_ns",
             SecondsSince(start) * 1e9 / static_cast<double>(ops), "ns");
  if (sink == 0) std::fprintf(stderr, "protocol probe produced nothing\n");
}

/// The served model's ServerOptions, shared with the set-up probes.
tkdc::serve::ServerOptions MakeServerOptions(const std::string& model_path,
                                             const ServeOptions& options,
                                             std::atomic<bool>* terminate) {
  tkdc::serve::ServerOptions server_options;
  server_options.model_path = model_path;
  server_options.num_threads = options.threads;
  // Rebuild once the overlay holds 2% of the base rows: the 20k-row serve
  // model then retrains after every ~400 of the ~1000 INSERTs a run sends,
  // in the background while reads continue. The larger outlier_* models
  // never reach their trigger (1600 and 16384 rows).
  server_options.rebuild_fraction = 0.02;
  server_options.overlay_capacity = options.overlay_capacity;
  server_options.terminate = terminate;
  return server_options;
}

/// Set-up probe processes started at each of the five sample points.
constexpr size_t kCreateProbesPerPoint = 2;

}  // namespace

int TimeServerCreate(const std::string& model_path,
                     const ServeOptions& options) {
  std::atomic<bool> terminate{false};
  const tkdc::serve::ServerOptions server_options =
      MakeServerOptions(model_path, options, &terminate);
  for (size_t r = 0; r < std::max<size_t>(1, options.create_repeats); ++r) {
    const Clock::time_point start = Clock::now();
    auto created = tkdc::serve::Server::Create(server_options);
    const double seconds = SecondsSince(start);
    if (!created.ok()) {
      std::fprintf(stderr, "Server::Create: %s\n", created.message().c_str());
      return 1;
    }
    std::printf("%.9g\n", seconds);
  }
  return 0;
}

void RunServe(const OfflineModel& model, const OfflineOptions& offline,
              const ServeOptions& options, Report& report, Trace& trace) {
  const std::string& path = options.model_path;
  {
    ScopedSpan span(trace, "model_io.save");
    const tkdc::Status saved = tkdc::api::SaveModel(
        path, *model.classifier, model.data, tkdc::api::SaveOptions());
    if (!saved.ok()) {
      report.Fail("SaveModel: " + saved.message());
      return;
    }
  }
  report.Set("model_io.bytes",
             static_cast<double>(std::filesystem::file_size(path)), "bytes");

  // The reference model: the same file loaded through the public API.
  tkdc::api::ModelHandle reference;
  {
    ScopedSpan span(trace, "model_io.load");
    const Clock::time_point start = Clock::now();
    auto loaded = tkdc::api::LoadAny(path);
    report.Set("model_io.load_s", SecondsSince(start), "s");
    if (!loaded.ok() || loaded.value().single() == nullptr) {
      report.Fail("LoadAny: " + loaded.message());
      return;
    }
    reference = std::move(loaded.value());
  }

  const tkdc::Dataset& queries = model.queries;
  const tkdc::Dataset& inserts = model.inserts;
  RequestPools pools;
  for (size_t i = 0; i < queries.size(); ++i) {
    pools.classify.push_back("CLASSIFY " + FormatPoint(queries.Row(i)));
    pools.expected_high.push_back(
        tkdc::api::Classify(*reference.single(), queries.Row(i)) ==
        tkdc::Classification::kHigh);
  }
  for (size_t i = 0; i < inserts.size(); ++i) {
    pools.insert.push_back("INSERT " + FormatPoint(inserts.Row(i)));
  }

  std::atomic<bool> terminate{false};
  const tkdc::serve::ServerOptions server_options =
      MakeServerOptions(path, options, &terminate);

  // When setup_s is Create time it is timed in fresh processes of this
  // driver (TimeServerCreate), a few at each of five points of the run:
  // before serving and after the warm-up, the two fixed steps and the
  // ramp. On a shared host one process's Create times sit in one of two
  // modes ~35% apart for its whole life, so the calls of a single process
  // would measure its mode.
  std::vector<double> create_medians;  // One per probe process.
  const auto sample_setup = [&] {
    if (!options.setup_is_create) return;
    for (size_t k = 0; k < kCreateProbesPerPoint; ++k) {
      ScopedSpan span(trace, "setup.create_probe");
      std::string error;
      const std::vector<double> times =
          RunProbe({"--time-create", path, "--threads",
                    std::to_string(options.threads), "--setup-repeats",
                    std::to_string(options.create_repeats)},
                   &error);
      if (times.empty()) {
        report.Fail("Server::Create probe: " + error);
        return;
      }
      create_medians.push_back(Median(times));
    }
  };

  sample_setup();
  std::unique_ptr<tkdc::serve::Server> server;
  {
    ScopedSpan span(trace, "serve.Server::Create");
    auto created = tkdc::serve::Server::Create(server_options);
    if (!created.ok()) {
      report.Fail("Server::Create: " + created.message());
      return;
    }
    server = created.take();
  }

  AnnounceStream announce;
  int exit_code = -1;
  std::thread runner([&] { exit_code = server->RunTcp(0, announce); });
  const auto stop_server = [&] {
    terminate.store(true);
    runner.join();
  };
  const uint16_t port = announce.AwaitPort(std::chrono::seconds(10));
  if (port == 0) {
    stop_server();
    report.Fail("RunTcp announced no port (exit " + std::to_string(exit_code) +
                ")");
    return;
  }

  std::vector<StepResult> steps;
  double hi_p50_us = 0.0;
  BatcherDelta hi_batcher;
  {
    const double most_per_step = std::max(
        {options.lo_rps * options.lo_seconds,
         options.hi_rps * options.hi_seconds,
         options.ramp_max_rps * options.ramp_step_seconds});
    LoadGenerator generator(port, options.connections,
                            static_cast<size_t>(1.05 * most_per_step) + 1024,
                            pools, *server);
    if (!generator.connected()) {
      stop_server();
      report.Fail("cannot connect to the server");
      return;
    }
    uint64_t step_seed = offline.seed * 1000;
    const auto run = [&](const std::string& name, double rate, double seconds,
                         double insert_share, bool check) {
      StepPlan plan;
      plan.name = name;
      plan.rate = rate;
      plan.seconds = seconds;
      plan.insert_share = insert_share;
      plan.check_labels = check;
      plan.request_spans = trace.enabled() && name.rfind("ramp", 0) != 0;
      plan.seed = ++step_seed;
      steps.push_back(generator.Run(plan, options.p99_limit_us,
                                    options.late_limit_us, trace));
      return steps.back();
    };
    // A fixed-rate piece whose generator was starved says nothing about the
    // server; it is repeated up to twice (and fails the run if starved
    // every time).
    const auto run_fixed = [&](const std::string& name, double rate,
                               double seconds, double insert_share,
                               bool check) {
      StepResult result = run(name, rate, seconds, insert_share, check);
      for (int retry = 0; retry < 2 && !result.valid; ++retry) {
        steps.back().name += "-starved";
        result = run(name, rate, seconds, insert_share, check);
      }
      return result;
    };
    // Insert-free warm-up: every answer must match the reference model. It
    // also warms the server, so its timing is neither reported nor gated.
    run("warmup", options.lo_rps, options.warmup_seconds, 0.0, true);
    sample_setup();
    // The fixed rates run as alternating lo and hi pieces, and each metric
    // pools its pieces: a slow spell of the host then lands in a few
    // chunks of both rates, which the chunked percentiles discard, instead
    // of in the whole of one step. The p99s are printed, not gated (see
    // README.md).
    std::vector<double> lo_classify, hi_classify, hi_insert;
    for (size_t r = 0; r < kRounds; ++r) {
      const StepResult lo =
          run_fixed("lo" + std::to_string(r), options.lo_rps,
                    options.lo_seconds / kRounds, options.insert_share, false);
      lo_classify.insert(lo_classify.end(), lo.classify_us.begin(),
                         lo.classify_us.end());
      const BatcherCounts before = ReadBatcherCounts(*server);
      const StepResult hi =
          run_fixed("hi" + std::to_string(r), options.hi_rps,
                    options.hi_seconds / kRounds, options.insert_share, false);
      hi_batcher.Add(before, ReadBatcherCounts(*server));
      hi_classify.insert(hi_classify.end(), hi.classify_us.begin(),
                         hi.classify_us.end());
      hi_insert.insert(hi_insert.end(), hi.insert_us.begin(),
                       hi.insert_us.end());
      if (r + 1 == kRounds / 2) sample_setup();
    }
    sample_setup();
    hi_p50_us = Median(hi_classify);
    report.Set("classify_p50_us.lo", Median(lo_classify), "us");
    report.Set("classify_p90_us.lo",
               ChunkedPercentile(lo_classify, kChunk, 0.90), "us");
    report.Set("classify_p99_us.lo",
               ChunkedPercentile(lo_classify, kChunk, 0.99), "us");
    report.Set("classify_p50_us.hi", hi_p50_us, "us");
    report.Set("classify_p90_us.hi",
               ChunkedPercentile(hi_classify, kChunk, 0.90), "us");
    report.Set("classify_p99_us.hi",
               ChunkedPercentile(hi_classify, kChunk, 0.99), "us");
    report.Set("insert_p50_us", Median(hi_insert), "us");

    // Ramp, in two phases. Bracketing: the rate doubles from twice the
    // high rate until a step is not sustainable, then bisects (geometric
    // mean of the best sustainable and the lowest failing rate) until the
    // two lie within 10%. Staircase: from the middle of the bracket the
    // rate goes up after a sustainable step and down after one that is not
    // (by 3%, more while it keeps moving one way), so it hovers around the
    // rate at which half the steps are sustainable; max_rate_rps is the median offered rate of the
    // staircase steps (or of the steps at the ceiling, when the server
    // sustains it). A bisection alone ends on the outcome of its last few
    // steps, so one slow spell of the host decided it. Ramp steps send
    // CLASSIFY only: with inserts the overlay would grow step by step and
    // every rate would be tried against a different model.
    constexpr double kBracket = 1.1, kStair = 1.03;
    double rate = std::min(2.0 * options.hi_rps, options.ramp_max_rps);
    double good = 0.0, bad = 0.0;
    bool stairs = false, last_ok = true;
    double stair = kStair;
    double best = 0.0;
    std::vector<double> settled;
    const Clock::time_point ramp_start = Clock::now();
    for (int step = 0; SecondsSince(ramp_start) + options.ramp_step_seconds <=
                       options.ramp_seconds;
         ++step) {
      const StepResult r = run("ramp" + std::to_string(step), rate,
                               options.ramp_step_seconds, 0.0, false);
      // Only the summary of a ramp step is kept.
      std::vector<double>().swap(steps.back().classify_us);
      std::vector<double>().swap(steps.back().insert_us);
      const bool ok = r.sustainable;
      if (ok) best = std::max(best, r.offered_rps);
      if (stairs) {
        settled.push_back(r.offered_rps);
        // A move the same way as the last one squares the factor (up to
        // 10%) and a reversal resets it, so a staircase that started far
        // from the threshold still reaches it.
        stair = ok == last_ok ? std::min(stair * stair, kBracket) : kStair;
        last_ok = ok;
        rate = ok ? std::min(rate * stair, options.ramp_max_rps) : rate / stair;
        continue;
      }
      last_ok = ok;
      (ok ? good : bad) = rate;
      if (bad == 0.0) {
        if (rate >= options.ramp_max_rps) settled.push_back(r.offered_rps);
        rate = std::min(2.0 * rate, options.ramp_max_rps);
        continue;
      }
      rate = good > 0.0 ? std::sqrt(good * bad) : bad / 2.0;
      stairs = good > 0.0 && bad / good < kBracket;
    }
    if (options.ramp_seconds > 0.0) {
      std::printf("ramp: %zu settled steps\n", settled.size());
      report.Set("max_rate_rps", settled.empty() ? best : Median(settled),
                 "1/s");
    }
    sample_setup();
    if (options.setup_is_create && !create_medians.empty()) {
      // The mean, not the median, of the per-process medians: with two
      // modes a median jumps between them, a mean moves by the share of
      // processes in each.
      double sum = 0.0;
      for (const double m : create_medians) sum += m;
      const double mean = sum / static_cast<double>(create_medians.size());
      report.Set("setup_s", mean, "s");
      std::string line;
      for (const double m : create_medians) {
        line += " " + std::to_string(m * 1e3).substr(0, 5);
      }
      std::printf("setup: Server::Create median per process (ms):%s\n",
                  line.c_str());
    }
  }  // Closes the client connections.

  // Fixed-rate steps count towards ok_frac; ramp steps may fail by design.
  uint64_t attempted = 0, failed = 0;
  double late_p99 = 0.0;
  size_t backlog_max = 0, overlay_max = 0;
  uint64_t sent = 0;
  for (const StepResult& step : steps) {
    sent += step.sent;
    backlog_max = std::max(backlog_max, step.backlog_max);
    overlay_max = std::max(overlay_max, step.overlay_rows_max);
    if (step.name.rfind("ramp", 0) == 0 ||
        step.name.find("-starved") != std::string::npos) {
      continue;
    }
    attempted += step.sent;
    failed += step.failed;
    if (step.name == "warmup") continue;
    late_p99 = std::max(late_p99, step.late_p99_us);
    if (!step.valid) {
      report.Fail("generator fell behind twice on step " + step.name);
    }
  }
  if (failed > 0) {
    report.Fail(std::to_string(failed) + " serve requests failed");
  }
  report.CountAttempts(attempted, failed);
  report.Set("gen.late_p99_us", late_p99, "us");
  report.Set("gen.backlog_max", static_cast<double>(backlog_max), "count");
  report.Set("gen.sent", static_cast<double>(sent), "count");

  // Batcher layer at the high rate: deltas over the hi pieces.
  report.Set("batcher.queue_wait_p99_us",
             HistogramPercentile(hi_batcher.wait_bounds,
                                 hi_batcher.wait_buckets, hi_batcher.waits,
                                 0.99),
             "us");
  report.Set("batcher.batch_size_mean",
             hi_batcher.batches > 0
                 ? hi_batcher.batch_size_sum /
                       static_cast<double>(hi_batcher.batches)
                 : 0.0,
             "count");
  report.Set("batcher.shed", static_cast<double>(hi_batcher.shed), "count");
  report.Set("batcher.timed_out", static_cast<double>(hi_batcher.timed_out),
             "count");
  server->batcher().snapshot();
  const tkdc::MetricsRegistry& registry = server->registry();
  report.Set("stream.rebuilds",
             static_cast<double>(
                 registry.CounterValue(tkdc::serve::metric_names::kRebuilds)),
             "count");
  report.Set("stream.stale_queries",
             static_cast<double>(registry.CounterValue(
                 tkdc::serve::metric_names::kStaleQueries)),
             "count");
  report.Set("stream.overlay_rows_max", static_cast<double>(overlay_max),
             "count");

  if (trace.enabled()) {
    // A synchronous FLUSH-style rebuild: retrain on base + overlay.
    ScopedSpan span(trace, "stream.rebuild");
    const Clock::time_point start = Clock::now();
    const auto rebuilt = server->RebuildNow();
    report.Set("stream.rebuild_s", SecondsSince(start), "s");
    if (!rebuilt.ok()) report.Fail("RebuildNow: " + rebuilt.message());
  }

  stop_server();
  if (exit_code != 0) report.Fail("RunTcp exited with " + std::to_string(exit_code));
  const tkdc::serve::BatcherOptions batcher_options = server_options.batcher;
  server.reset();

  if (trace.enabled()) {
    MeasureProtocol(pools, report, trace);
    MeasureInProcessBatcher(path, batcher_options, options.threads, queries,
                            options.hi_rps, options.hi_seconds / 2,
                            offline.seed + 7, report, trace);
    report.Set("server.transport_p50_us",
               hi_p50_us - report.Get("batcher.inproc_p50_us"), "us");
  }
}

}  // namespace perfbench
