#ifndef PERFBENCH_OFFLINE_H_
#define PERFBENCH_OFFLINE_H_

// The offline path: api::Train, then ClassifyTrainingBatch over the whole
// training set (src/index, src/tkdc, src/kde, src/common/parallel).

#include <cstdint>
#include <memory>

#include "data/datasets.h"
#include "report.h"
#include "tkdc_api.h"

namespace perfbench {

struct OfflineOptions {
  tkdc::DatasetId dataset = tkdc::DatasetId::kGauss;
  size_t n = 0;
  size_t dims = 0;
  uint64_t seed = 1;
  /// Batch-engine threads for training and scoring: fixed, never
  /// "hardware", so results do not depend on the host's core count.
  size_t threads = 4;
  /// api::Train calls; train_s is the median of their wall times.
  size_t train_repeats = 3;
  /// Wall-time budget of the timed scoring passes.
  double score_seconds = 1.0;
  /// Rows checked against the brute-force oracle.
  size_t check_rows = 128;
};

struct OfflineModel {
  tkdc::Dataset data = tkdc::Dataset(1);
  /// Fresh points from the same population for the serve phase: CLASSIFY
  /// queries and INSERT payloads, disjoint from `data` and each other.
  tkdc::Dataset queries = tkdc::Dataset(1);
  tkdc::Dataset inserts = tkdc::Dataset(1);
  tkdc::api::TrainOptions options;
  std::unique_ptr<tkdc::DensityClassifier> classifier;
  /// Median api::Train wall time over the repeats.
  double train_s = 0.0;
  /// Kernel evaluations spent by one Train call.
  uint64_t train_kernel_evals = 0;
};

/// Draws the workload's points from its seed and trains on them
/// `train_repeats` times (keeping the last model).
///
/// The population is fixed per workload (its generator runs with one
/// constant seed, so mixture structure such as tmy3's modes never changes);
/// the run's seed only picks which population rows become the training
/// set, the queries and the inserts.
OfflineModel TrainModel(const OfflineOptions& options, Report& report,
                        Trace& trace);

/// Scores the training set at options.threads after a warm-up pass and
/// sets score_qps; checks the labels against the 1-thread pass and a
/// seeded sample against the exact self-corrected density. With tracing
/// on it also measures the engine layers (traversal, grid, leaf, batch
/// scaling) and trace.overhead_frac.
void ScoreAndCheck(OfflineModel& model, const OfflineOptions& options,
                   Report& report, Trace& trace);

/// Times the training phases one by one (bandwidth selection, skeleton,
/// bootstrap); the density pass is the remainder of train_s. Traced runs
/// only.
void MeasureTrainLayers(const OfflineModel& model, Report& report,
                        Trace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_OFFLINE_H_
