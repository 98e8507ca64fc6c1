// Design-choice ablations beyond the paper's figures: k-d tree split rule
// x axis rule, leaf size, and kernel family, each measured on the standard
// tmy3 d=4 workload. These back the DESIGN.md choices (trimmed-midpoint
// splits with cycled axes, leaf size 128, Gaussian kernel).

#include <iostream>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "harness/table.h"
#include "harness/workload.h"
#include "tkdc/classifier.h"

namespace {

using namespace tkdc;

RunResult Measure(const Dataset& data, const TkdcConfig& config,
                  double budget) {
  TkdcClassifier algo(config);
  RunOptions options;
  options.budget_seconds = budget;
  options.max_queries = 10'000;
  return RunClassifier(algo, data, options);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  std::cout << "Design ablations (tmy3 d=4, training amortized)\n\n";

  Workload workload;
  workload.id = DatasetId::kTmy3;
  workload.n = static_cast<size_t>(60'000 * args.scale);
  workload.dims = 4;
  workload.seed = args.seed;
  const Dataset data = workload.Make();
  std::cout << "dataset: " << workload.Label() << "\n\n";

  TablePrinter table({"variant", "queries/s", "kernel evals/query"});
  auto add = [&](const std::string& label, const TkdcConfig& config) {
    const RunResult result = Measure(data, config, args.budget_seconds);
    table.AddRow({label, FormatSi(result.amortized_throughput),
                  FormatSi(result.kernel_evals_per_query)});
    std::cout << "." << std::flush;
  };

  TkdcConfig base;
  base.seed = args.seed;
  add("default (trimmed/cycle/leaf" + std::to_string(base.leaf_size) +
          "/gauss)",
      base);

  for (SplitRule rule : {SplitRule::kMedian, SplitRule::kMidpoint}) {
    TkdcConfig config = base;
    config.split_rule = rule;
    add("split=" + SplitRuleName(rule), config);
  }
  {
    TkdcConfig config = base;
    config.axis_rule = SplitAxisRule::kWidestExtent;
    add("axis=widest-extent", config);
  }
  for (size_t leaf : {32u, 512u}) {
    TkdcConfig config = base;
    config.leaf_size = leaf;
    add("leaf_size=" + std::to_string(leaf), config);
  }
  {
    TkdcConfig config = base;
    config.kernel = KernelType::kEpanechnikov;
    add("kernel=epanechnikov", config);
  }
  {
    TkdcConfig config = base;
    config.bandwidth_rule = BandwidthRule::kSilverman;
    add("bandwidth=silverman", config);
  }
  {
    TkdcConfig config = base;
    config.epsilon = 0.1;
    add("epsilon=0.1", config);
  }
  std::cout << "\n\n";
  table.Print(std::cout);
  std::cout << "\nFindings: trimmed-midpoint splits beat median (Section "
               "3.7 confirmed). Compact-support\nkernels (Epanechnikov) "
               "are SLOWER despite easier tree pruning: t(p) is 0 up to\n"
               "round-off here (over 1% of rows have no neighbor inside the "
               "support), so neither\nrule stops a traversal early, and the "
               "grid cache's same-cell bound K(cell diagonal)\nis zero once "
               "the scaled diagonal sqrt(d) exceeds the support radius 1.\n";
  return 0;
}
