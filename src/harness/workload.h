#ifndef TKDC_HARNESS_WORKLOAD_H_
#define TKDC_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "data/dataset.h"
#include "data/datasets.h"

namespace tkdc {

/// One benchmark workload: a dataset id at a chosen size/dimensionality.
struct Workload {
  DatasetId id = DatasetId::kGauss;
  size_t n = 0;
  size_t dims = 0;  // 0 means the dataset's Table 3 dimensionality.
  uint64_t seed = 42;

  /// Generates the data deterministically.
  Dataset Make() const;

  /// "gauss, n=200k, d=2" style label for bench output.
  std::string Label() const;
};

/// Command-line arguments shared by all figure benches. Every bench binary
/// runs with no arguments at laptop scale and accepts:
///   --scale=<float>     multiply default workload sizes
///   --seed=<int>        RNG seed
///   --budget=<seconds>  per-measurement query time budget
///   --threads=<int>     worker threads for batch-capable algorithms
///                       (0 = hardware concurrency, 1 = serial)
struct BenchArgs {
  double scale = 1.0;
  uint64_t seed = 42;
  double budget_seconds = 1.5;
  size_t threads = 0;

  /// Parses argv; unknown flags abort with a usage message.
  static BenchArgs Parse(int argc, char** argv);
};

/// Human-friendly count like the paper's axis labels: 55.2k, 6.36M, 12.6.
std::string FormatSi(double value);

}  // namespace tkdc

#endif  // TKDC_HARNESS_WORKLOAD_H_
