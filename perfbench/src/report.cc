#include "report.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/simd.h"

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

double Percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::vector<double> RunProbe(const std::vector<std::string>& args,
                             std::string* error) {
  constexpr double kTimeoutS = 60.0;
  char self[4096];
  const ssize_t length = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (length <= 0) {
    *error = "cannot find the driver binary";
    return {};
  }
  self[length] = '\0';
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return {};
  }
  std::vector<std::string> all = {self};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : all) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  if (spawned != 0) {
    ::close(out_pipe[0]);
    *error = std::string("posix_spawn: ") + std::strerror(spawned);
    return {};
  }

  std::string out;
  bool timed_out = false;
  const Clock::time_point start = Clock::now();
  char buffer[4096];
  while (true) {
    const double left_s = kTimeoutS - SecondsSince(start);
    if (left_s <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd pfd{out_pipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_s * 1e3) + 1) <= 0) continue;
    const ssize_t got = ::read(out_pipe[0], buffer, sizeof(buffer));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // EOF: the probe is exiting.
    out.append(buffer, static_cast<size_t>(got));
  }
  ::close(out_pipe[0]);
  if (timed_out) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    *error = "probe ran longer than its timeout";
    return {};
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "probe failed (wait status " + std::to_string(status) + ")";
    return {};
  }
  std::vector<double> values;
  std::istringstream in(out);
  for (double value = 0.0; in >> value;) values.push_back(value);
  if (values.empty()) *error = "probe printed nothing";
  return values;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::CountAttempts(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  correct_ = false;
}

double Report::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

void Report::PrintJson(const std::vector<std::string>& keep) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics_) {
    if (!keep.empty() &&
        std::find(keep.begin(), keep.end(), metric.name) == keep.end()) {
      continue;
    }
    out << (first ? "" : ", ") << "\"" << JsonEscape(metric.name)
        << "\": {\"value\": " << FormatNumber(metric.value)
        << ", \"unit\": \"" << JsonEscape(metric.unit) << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void Report::PrintTable() const {
  for (const Metric& metric : metrics_) {
    std::printf("  %-34s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

int64_t Trace::Begin(const std::string& name, int64_t parent) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  spans_.push_back({name, now, now, parent, 0});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Trace::End(int64_t span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

void Trace::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                int64_t parent, uint64_t request_id) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
}

bool Trace::Write(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"metadata\": " << header << ",\n\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // One track per root span keeps steps readable; request spans share
    // their step's track and carry the request id.
    int64_t root = static_cast<int64_t>(i);
    while (spans_[static_cast<size_t>(root)].parent >= 0) {
      root = spans_[static_cast<size_t>(root)].parent;
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%lld,\"id\":%llu}}",
                  JsonEscape(span.name).c_str(), static_cast<long long>(root),
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                  static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.request_id));
    out << line << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string HostFingerprint(const std::string& revision, uint64_t seed) {
  // nproc semantics: CPUs this process may run on, not CPUs installed.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  std::ostringstream out;
  out << "{\"nproc\": " << nproc
      << ", \"simd\": \""
      << tkdc::SimdBackendName(tkdc::ActiveSimdBackend())
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"revision\": \"" << JsonEscape(revision)
      << "\", \"seed\": " << seed << "}";
  return out.str();
}

}  // namespace perfbench
