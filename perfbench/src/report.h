#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Shared pieces of the benchmark driver: the metric report printed as the
// last stdout line, order statistics, the span recorder behind --trace 1,
// and the host fingerprint stamped on every output.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

/// Nanoseconds of `t` since a process-wide epoch (the first call), so
/// timestamps from every thread share one origin.
int64_t NowNs();
int64_t ToNs(Clock::time_point t);

/// Percentile `q` in [0, 1] of `values` (sorted in place; nearest rank on
/// the sorted order). 0 for an empty vector.
double Percentile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Runs this driver binary in a fresh process with `args` and returns the
/// numbers it prints on stdout. Some costs sit in one of two modes for a
/// whole process on a shared host, so a metric taken from one process
/// measures its mode; the probes let a run average over several. Waits
/// for the probe to end, killing it after 60 s. Returns an empty vector,
/// with `*error` set, when the probe fails or prints nothing.
std::vector<double> RunProbe(const std::vector<std::string>& args,
                             std::string* error);

/// Named metrics with units plus the correctness tally, printed as the one
/// JSON object that ends stdout.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void CountAttempts(uint64_t attempted, uint64_t failed);
  /// Marks the run incorrect; `why` goes to stderr.
  void Fail(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Value of a metric set earlier (0 when absent).
  double Get(const std::string& name) const;

  /// Prints every metric whose name is in `keep` (all when empty) as one
  /// line of JSON: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson(const std::vector<std::string>& keep) const;
  /// Prints every metric as an aligned "name value unit" line.
  void PrintTable() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder. Spans carry a name, start and end (ns on the
/// NowNs clock), the index of their parent span (-1 for a root) and an
/// optional request id that ties the spans of one serve request together.
/// Disabled recorders drop everything, so untraced runs pay one branch per
/// call site. Only the main thread records; load-generator threads keep
/// raw timestamps that become spans after each step.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its index (or -1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent = -1);
  void End(int64_t span);
  /// Records a finished span with explicit times.
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           int64_t parent, uint64_t request_id = 0);

  /// Writes every span as Chrome trace-event JSON (load it in Perfetto or
  /// chrome://tracing), with `header` (a JSON object) under "metadata".
  bool Write(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t request_id = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const std::string& name, int64_t parent = -1)
      : trace_(trace), span_(trace.Begin(name, parent)) {}
  ~ScopedSpan() { trace_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_; }

 private:
  Trace& trace_;
  int64_t span_;
};

/// Host fingerprint as a JSON object: nproc, SIMD backend, build type,
/// compiler, source revision and seed.
std::string HostFingerprint(const std::string& revision, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
