// Figure 11: throughput versus dimensionality on hep subsets at fixed n.
// The paper: the naive algorithm is nearly dimension-independent, every
// index-based method slows with d, but tKDC keeps at least an
// order-of-magnitude lead across 1 <= d <= 27.
//
// The nodes/q column is the mean node expansions per tkdc query.

#include <iostream>
#include <vector>

#include "baselines/nocut.h"
#include "baselines/rkde.h"
#include "baselines/simple_kde.h"
#include "harness/runner.h"
#include "harness/table.h"
#include "harness/workload.h"
#include "tkdc/classifier.h"

int main(int argc, char** argv) {
  using namespace tkdc;
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  std::cout << "Figure 11: throughput vs dimension (hep, fixed n, training "
               "amortized)\n\n";

  const size_t n = static_cast<size_t>(10'000 * args.scale);
  const std::vector<size_t> dims{1, 2, 4, 8, 16, 27};
  TablePrinter table({"d", "tkdc q/s", "nodes/q", "nocut q/s",
                      "rkde q/s", "simple q/s", "tkdc/simple"});
  for (size_t d : dims) {
    Workload workload;
    workload.id = DatasetId::kHep;
    workload.n = n;
    workload.dims = d;
    workload.seed = args.seed;
    const Dataset data = workload.Make();

    RunOptions options;
    options.budget_seconds = args.budget_seconds;
    options.max_queries = 10'000;

    TkdcConfig config;
    TkdcClassifier tkdc_algo(config);
    const RunResult tkdc_result = RunClassifier(tkdc_algo, data, options);
    const TraversalStats tkdc_stats = tkdc_algo.query_stats();
    const double nodes_per_query =
        tkdc_stats.queries > 0
            ? static_cast<double>(tkdc_stats.nodes_expanded) /
                  static_cast<double>(tkdc_stats.queries)
            : 0.0;
    NocutClassifier nocut_algo(config);
    const RunResult nocut_result = RunClassifier(nocut_algo, data, options);
    RkdeClassifier rkde_algo;
    const RunResult rkde_result = RunClassifier(rkde_algo, data, options);
    SimpleKdeClassifier simple_algo;
    const RunResult simple_result =
        RunClassifier(simple_algo, data, options);

    table.AddRow({std::to_string(d),
                  FormatSi(tkdc_result.amortized_throughput),
                  FormatSi(nodes_per_query),
                  FormatSi(nocut_result.amortized_throughput),
                  FormatSi(rkde_result.amortized_throughput),
                  FormatSi(simple_result.amortized_throughput),
                  FormatFixed(tkdc_result.amortized_throughput /
                                  simple_result.amortized_throughput,
                              1)});
    std::cout << "." << std::flush;
  }
  std::cout << "\n\n";
  table.Print(std::cout);
  std::cout << "\nPaper (Figure 11): simple is flat in d; tkdc degrades "
               "with d but stays >= 10x ahead of\nevery alternative "
               "through d = 27.\n";
  return 0;
}
