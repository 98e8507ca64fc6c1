// Benchmark driver: one workload per process. It generates its inputs from
// --seed, trains a tKDC model, scores the training set offline, serves the
// model over loopback TCP under open-loop load, checks every answer it can,
// and prints each metric by name with its unit. The last stdout line is
// the JSON result; with --trace 1 the per-layer metrics are printed
// instead of the end-to-end ones and the spans are written to --work-dir.
// With --time-create <model file> it is instead a set-up probe: it times
// Server::Create in a fresh process for the run that started it.
//
// run.py builds this binary and passes the workload's parameters from
// workloads.json; see README.md.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "offline.h"
#include "online.h"
#include "report.h"

namespace {

class Flags {
 public:
  bool Parse(int argc, char** argv) {
    for (int i = 1; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
      values_[key.substr(2)] = argv[i + 1];
    }
    return true;
  }
  std::string Str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double Num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (comma > start) out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Flags flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "usage: perfbench_driver --workload W --seed N "
                         "--seconds S --trace 0|1 [--key value ...]\n");
    return 2;
  }
  // Set-up probe: time Server::Create in this fresh process (see RunServe).
  const std::string create_model = flags.Str("time-create", "");
  if (!create_model.empty()) {
    ServeOptions serve;
    serve.threads = static_cast<size_t>(flags.Num("threads", 4));
    serve.create_repeats = static_cast<size_t>(flags.Num("setup-repeats", 1));
    return TimeServerCreate(create_model, serve);
  }
  const std::string workload = flags.Str("workload", "");
  const auto dataset = tkdc::DatasetIdFromName(flags.Str("dataset", ""));
  if (workload.empty() || !dataset.has_value()) {
    std::fprintf(stderr, "perfbench: --workload and --dataset are required\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  const double seconds = flags.Num("seconds", 10);
  const bool traced = flags.Num("trace", 0) != 0;
  const std::string work_dir = flags.Str("work-dir", ".");
  const bool setup_is_create = flags.Str("setup", "train") == "create";

  std::printf("host: %s\n",
              HostFingerprint(flags.Str("revision", "unknown"), seed).c_str());
  std::printf("workload: %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0);

  // Shares of --seconds given to each measured phase (see README.md). Only
  // traced runs search for the highest sustainable rate (the ramp), which
  // they report as a per-layer metric, so they run longer.
  constexpr double kScoreShare = 0.12, kWarmupShare = 0.03, kLoShare = 0.25,
                   kHiShare = 0.45, kRampShare = 0.40;
  const size_t setup_repeats =
      static_cast<size_t>(flags.Num("setup-repeats", 3));

  OfflineOptions offline;
  offline.dataset = *dataset;
  offline.n = static_cast<size_t>(flags.Num("n", 20000));
  offline.dims = static_cast<size_t>(flags.Num("dims", 2));
  offline.seed = seed;
  offline.train_repeats = setup_is_create ? 1 : setup_repeats;
  offline.score_seconds = kScoreShare * seconds;

  ServeOptions serve;
  serve.hi_rps = flags.Num("hi-rps", serve.hi_rps);
  serve.warmup_seconds = kWarmupShare * seconds;
  serve.lo_seconds = kLoShare * seconds;
  serve.hi_seconds = kHiShare * seconds;
  serve.ramp_seconds = traced ? kRampShare * seconds : 0.0;
  serve.threads = offline.threads;
  serve.setup_is_create = setup_is_create;
  serve.create_repeats = setup_is_create ? setup_repeats : 1;
  serve.model_path = work_dir + "/" + workload + "-" + std::to_string(seed) +
                     ".tkdc";

  Report report;
  Trace trace(traced);
  OfflineModel model = TrainModel(offline, report, trace);
  if (model.classifier != nullptr) {
    if (!setup_is_create) report.Set("setup_s", model.train_s, "s");
    ScoreAndCheck(model, offline, report, trace);
    if (traced) MeasureTrainLayers(model, report, trace);
    RunServe(model, offline, serve, report, trace);
  }
  std::remove(serve.model_path.c_str());

  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("ok_frac",
             report.attempted() == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted()),
             "fraction");
  if (report.attempted() == 0) report.Fail("nothing was attempted");

  if (traced) {
    const std::string path = work_dir + "/trace-" + workload + "-" +
                             std::to_string(seed) + ".json";
    if (trace.Write(path, HostFingerprint(flags.Str("revision", "unknown"),
                                          seed))) {
      std::printf("trace: %s\n", path.c_str());
    } else {
      report.Fail("cannot write " + path);
    }
  }
  report.PrintTable();
  report.PrintJson(SplitCommas(flags.Str("metrics", "")));
  return 0;
}
