#include "offline.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <vector>

#include "common/metrics.h"
#include "common/simd.h"
#include "kde/bandwidth.h"
#include "kde/kernel_simd.h"
#include "kde/naive_kde.h"
#include "tkdc/classifier.h"
#include "tkdc/model.h"
#include "tkdc/threshold.h"

namespace perfbench {

namespace {

using tkdc::Classification;

/// Seed of every workload's population (see TrainModel).
constexpr uint64_t kPopulationSeed = 0;
/// Query and insert points drawn for the serve phase, each.
constexpr size_t kServePoints = 4096;

const tkdc::TkdcClassifier& AsTkdc(const tkdc::DensityClassifier& c) {
  return dynamic_cast<const tkdc::TkdcClassifier&>(c);
}

/// Rows whose label differs between two passes.
uint64_t CountMismatches(const std::vector<Classification>& a,
                         const std::vector<Classification>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  uint64_t mismatches = 0;
  for (size_t i = 0; i < a.size(); ++i) mismatches += a[i] != b[i];
  return mismatches;
}

/// One timed ClassifyTrainingBatch over the whole training set.
double TimedPass(tkdc::DensityClassifier& classifier, const tkdc::Dataset& data,
                 std::vector<Classification>* labels) {
  const Clock::time_point start = Clock::now();
  *labels = tkdc::api::ClassifyTrainingBatch(classifier, data);
  return SecondsSince(start);
}

/// Labels a seeded sample of rows must carry under the Problem-1 contract:
/// a label is wrong only when the exact self-corrected density lies
/// outside (1 +- eps) t on the other side. Half the sample is uniform, half
/// is drawn from LOW rows, where the threshold decision actually happens.
uint64_t OracleCheck(const OfflineModel& model,
                     const std::vector<Classification>& labels,
                     size_t check_rows, uint64_t seed) {
  const tkdc::TkdcClassifier& tkdc = AsTkdc(*model.classifier);
  const tkdc::NaiveKde oracle(model.data, tkdc.kernel());
  const double t = tkdc.threshold();
  const double eps = model.options.config.epsilon;
  std::vector<size_t> low_rows;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == Classification::kLow) low_rows.push_back(i);
  }
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  uint64_t wrong = 0;
  for (size_t k = 0; k < check_rows; ++k) {
    const bool from_low = k % 2 == 1 && !low_rows.empty();
    const size_t row = from_low ? low_rows[rng() % low_rows.size()]
                                : static_cast<size_t>(rng() % labels.size());
    const double f = oracle.TrainingDensity(row);
    const bool high = labels[row] == Classification::kHigh;
    if ((high && f < (1.0 - eps) * t) || (!high && f > (1.0 + eps) * t)) {
      std::fprintf(stderr, "row %zu: label %s but exact density %.17g, t %.17g\n",
                   row, high ? "HIGH" : "LOW", f, t);
      ++wrong;
    }
  }
  return wrong;
}

/// ns per point of one SIMD leaf kernel sum over a padded leaf-sized block
/// at the model's dimensionality (src/kde/kernel_simd).
double LeafNsPerPoint(const OfflineModel& model) {
  const tkdc::TkdcClassifier& tkdc = AsTkdc(*model.classifier);
  const tkdc::Kernel& kernel = tkdc.kernel();
  const size_t dims = model.data.dims();
  const size_t count =
      std::min(model.options.config.leaf_size, model.data.size() - 1);
  const size_t padded = tkdc::SimdPaddedCount(count);
  std::vector<double> block(dims * padded,
                            std::numeric_limits<double>::infinity());
  for (size_t k = 0; k < count; ++k) {
    for (size_t j = 0; j < dims; ++j) {
      block[j * padded + k] = model.data.At(k, j);
    }
  }
  const size_t queries = std::min<size_t>(256, model.data.size());
  double sink = 0.0;
  uint64_t points = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 0.2) {
    for (size_t q = 0; q < queries; ++q) {
      sink += tkdc::simd::SoaKernelSum(
          block.data(), padded, count, dims, model.data.Row(q).data(),
          kernel.inverse_bandwidths().data(), kernel.type(), kernel.norm(),
          model.options.config.fast_math_leaf);
    }
    points += queries * count;
  }
  const double elapsed = SecondsSince(start);
  if (sink < 0.0) std::fprintf(stderr, "negative kernel sum\n");
  return elapsed * 1e9 / static_cast<double>(points);
}

}  // namespace

OfflineModel TrainModel(const OfflineOptions& options, Report& report,
                        Trace& trace) {
  OfflineModel model;
  {
    ScopedSpan span(trace, "data.generate");
    const size_t wanted = options.n + 2 * kServePoints;
    const tkdc::Dataset population = tkdc::MakeDataset(
        options.dataset, 2 * wanted, options.dims, kPopulationSeed);
    // Partial Fisher-Yates: the first `wanted` slots are a seeded sample.
    std::vector<size_t> order(population.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(options.seed);
    for (size_t i = 0; i < wanted; ++i) {
      std::swap(order[i], order[i + rng() % (order.size() - i)]);
    }
    model.data = tkdc::Dataset(options.dims);
    model.queries = tkdc::Dataset(options.dims);
    model.inserts = tkdc::Dataset(options.dims);
    model.data.Reserve(options.n);
    for (size_t i = 0; i < wanted; ++i) {
      tkdc::Dataset& into = i < options.n                ? model.data
                            : i < options.n + kServePoints ? model.queries
                                                           : model.inserts;
      into.AppendRow(population.Row(order[i]));
    }
  }
  model.options.config.p = 0.01;
  model.options.config.seed = options.seed;
  model.options.config.num_threads = options.threads;

  std::vector<double> times;
  for (size_t r = 0; r < options.train_repeats; ++r) {
    model.classifier.reset();  // One model alive at a time.
    ScopedSpan span(trace, "api.Train");
    const Clock::time_point start = Clock::now();
    auto trained = tkdc::api::Train(model.data, model.options);
    times.push_back(SecondsSince(start));
    if (!trained.ok()) {
      report.Fail("api::Train: " + trained.message());
      return model;
    }
    model.classifier = trained.take();
  }
  model.train_s = Median(times);
  model.train_kernel_evals = model.classifier->kernel_evaluations();
  return model;
}

void ScoreAndCheck(OfflineModel& model, const OfflineOptions& options,
                   Report& report, Trace& trace) {
  tkdc::DensityClassifier& classifier = *model.classifier;
  const tkdc::Dataset& data = model.data;
  const double rows = static_cast<double>(data.size());
  classifier.SetNumThreads(options.threads);

  // Warm-up pass, also the source of the per-row work counts: the engine
  // is deterministic, so every pass does the same work.
  const tkdc::TraversalStats before = classifier.query_stats();
  const uint64_t grid_before = classifier.grid_prunes();
  std::vector<Classification> reference;
  {
    ScopedSpan span(trace, "score.warmup");
    TimedPass(classifier, data, &reference);
  }
  const tkdc::TraversalStats& after = classifier.query_stats();
  report.Set("grid.hit_frac",
             static_cast<double>(classifier.grid_prunes() - grid_before) / rows,
             "fraction");
  report.Set("traversal.nodes_per_row",
             static_cast<double>(after.nodes_expanded - before.nodes_expanded) /
                 rows,
             "count");
  report.Set("traversal.kernel_evals_per_row",
             static_cast<double>(after.kernel_evaluations -
                                 before.kernel_evaluations) /
                 rows,
             "count");
  report.Set("leaf.points_per_row",
             static_cast<double>(after.leaf_points_evaluated -
                                 before.leaf_points_evaluated) /
                 rows,
             "count");

  // Timed passes. Traced runs alternate passes with the query-metrics
  // registry detached and attached: the attached ones feed the cutoff
  // shares, and the pair gives trace.overhead_frac.
  tkdc::MetricsRegistry registry;
  std::vector<double> detached_s, attached_s;
  uint64_t compared = 0, mismatched = 0;
  // At least five passes, even when one pass outlasts the budget (tmy3).
  const size_t min_passes = trace.enabled() ? 6 : 5;
  const Clock::time_point budget_start = Clock::now();
  for (size_t pass = 0; detached_s.size() + attached_s.size() < min_passes ||
                        SecondsSince(budget_start) < options.score_seconds;
       ++pass) {
    const bool attach = trace.enabled() && pass % 2 == 1;
    // Attaching rebuilds the worker contexts, so untraced runs never do.
    if (trace.enabled()) classifier.AttachMetrics(attach ? &registry : nullptr);
    std::vector<Classification> labels;
    ScopedSpan span(trace, attach ? "score.pass.metrics" : "score.pass");
    const double seconds = TimedPass(classifier, data, &labels);
    (attach ? attached_s : detached_s).push_back(seconds);
    if (attach) classifier.FlushMetrics();
    compared += labels.size();
    mismatched += CountMismatches(labels, reference);
  }
  if (trace.enabled()) classifier.AttachMetrics(nullptr);
  // The fastest pass: a 4-thread pass waits for its slowest worker, and a
  // neighbour's load on one vCPU only ever slows a pass down.
  const double qps_4t =
      rows / *std::min_element(detached_s.begin(), detached_s.end());
  report.Set("score_qps", qps_4t, "rows/s");
  report.Set("batch.qps_4t", qps_4t, "rows/s");
  if (!attached_s.empty()) {
    report.Set("trace.overhead_frac",
               Median(attached_s) / Median(detached_s) - 1.0, "fraction");
    const double scored = rows * static_cast<double>(attached_s.size());
    const auto share = [&](std::initializer_list<const char*> names) {
      uint64_t total = 0;
      for (const char* name : names) total += registry.CounterValue(name);
      return static_cast<double>(total) / scored;
    };
    report.Set("traversal.cutoff_threshold_frac",
               share({"cutoff.lower_above_threshold",
                      "cutoff.upper_below_threshold"}),
               "fraction");
    report.Set("traversal.cutoff_tolerance_frac", share({"cutoff.tolerance"}),
               "fraction");
    report.Set("traversal.cutoff_exact_frac", share({"cutoff.exact_leaf"}),
               "fraction");
  }

  // Determinism gate: the 1-thread pass must label every row identically.
  std::vector<Classification> serial;
  double serial_s = 0.0;
  {
    ScopedSpan span(trace, "score.pass.1t");
    classifier.SetNumThreads(1);
    serial_s = TimedPass(classifier, data, &serial);
  }
  compared += serial.size();
  mismatched += CountMismatches(serial, reference);
  report.Set("batch.qps_1t", rows / serial_s, "rows/s");
  report.Set("batch.speedup_4t", qps_4t / (rows / serial_s), "ratio");
  report.Set("engine.serial_ns_per_row", serial_s * 1e9 / rows, "ns");
  if (trace.enabled()) {
    ScopedSpan span(trace, "score.pass.2t");
    classifier.SetNumThreads(2);
    std::vector<Classification> labels;
    report.Set("batch.qps_2t", rows / TimedPass(classifier, data, &labels),
               "rows/s");
    compared += labels.size();
    mismatched += CountMismatches(labels, reference);
  }
  classifier.SetNumThreads(options.threads);
  if (mismatched > 0) {
    report.Fail(std::to_string(mismatched) +
                " labels differ between passes or thread counts");
  }

  uint64_t wrong = 0;
  {
    ScopedSpan span(trace, "check.oracle");
    wrong = OracleCheck(model, reference, options.check_rows, options.seed);
  }
  if (wrong > 0) {
    report.Fail(std::to_string(wrong) + " labels wrong outside the eps band");
  }
  report.CountAttempts(compared + options.check_rows, mismatched + wrong);

  if (trace.enabled()) {
    ScopedSpan span(trace, "leaf.probe");
    report.Set("leaf.ns_per_point", LeafNsPerPoint(model), "ns");
  }
}

void MeasureTrainLayers(const OfflineModel& model, Report& report,
                        Trace& trace) {
  const tkdc::TkdcConfig& config = model.options.config;
  const int64_t parent = trace.Begin("train.phases");
  Clock::time_point start = Clock::now();
  int64_t span = trace.Begin("train.bandwidth", parent);
  std::vector<double> bandwidths = tkdc::SelectBandwidths(
      config.bandwidth_rule, model.data, config.bandwidth_scale);
  trace.End(span);
  const double bandwidth_s = SecondsSince(start);

  start = Clock::now();
  span = trace.Begin("train.skeleton", parent);
  auto skeleton =
      tkdc::BuildTkdcModelSkeleton(config, model.data, std::move(bandwidths));
  trace.End(span);
  const double skeleton_s = SecondsSince(start);

  start = Clock::now();
  span = trace.Begin("train.bootstrap", parent);
  tkdc::ThresholdEstimator estimator(&skeleton->config);
  const tkdc::ThresholdBootstrapResult bootstrap =
      estimator.Bootstrap(model.data, *skeleton->tree, *skeleton->kernel);
  trace.End(span);
  const double bootstrap_s = SecondsSince(start);
  trace.End(parent);

  report.Set("train.bandwidth_s", bandwidth_s, "s");
  report.Set("train.skeleton_s", skeleton_s, "s");
  report.Set("train.bootstrap_s", bootstrap_s, "s");
  report.Set("train.bootstrap_iterations",
             static_cast<double>(bootstrap.iterations), "count");
  report.Set("train.bootstrap_backoffs",
             static_cast<double>(bootstrap.backoffs), "count");
  report.Set("train.density_pass_s",
             model.train_s - bandwidth_s - skeleton_s - bootstrap_s, "s");
  report.Set("train.kernel_evals",
             static_cast<double>(model.train_kernel_evals), "count");
}

}  // namespace perfbench
