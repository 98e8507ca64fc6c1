// Multi-class benchmark: the cross-class round-robin pruner
// (tkdc/multiclass.h) against the per-class sequential baseline, over a
// K = 2..16 class-count sweep. The baseline refines every class tree
// independently to the same relative tolerance (width <= eps * lower, or
// exact when the traversal drains) and takes argmax of prior * midpoint —
// the natural "K separate KDE runs" a user would script without the
// cross-class cutoff. Both sides answer the same queries on the same
// trained parts, so the nodes/query ratio isolates what the simultaneous
// elimination rule saves: distant classes fall out of the race after a
// handful of root-level expansions instead of being resolved to eps.
//
// Emits BENCH_mc.json for the perf trajectory. Label agreement between
// the two sides is reported as a sanity column (both land on the exact
// argmax outside each query's tolerance band, so it should sit at ~1).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_output.h"

#include "common/rng.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "harness/table.h"
#include "harness/workload.h"
#include "tkdc/density_bounds.h"
#include "tkdc/multiclass.h"

namespace tkdc {
namespace {

struct Record {
  size_t k = 0;
  double mc_nodes = 0.0;   // Nodes expanded / query, round-robin pruner.
  double seq_nodes = 0.0;  // Nodes expanded / query, sequential baseline.
  double ratio = 0.0;      // seq / mc (>1 = pruning wins).
  double agree = 0.0;      // Label agreement fraction.
  double mc_us = 0.0;      // Microseconds / query.
  double seq_us = 0.0;
};

/// `n` points from an isotropic Gaussian centered at `mean`.
Dataset SampleClass(size_t n, const std::vector<double>& mean, Rng& rng) {
  Dataset data(mean.size());
  data.Reserve(n);
  std::vector<double> row(mean.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < mean.size(); ++j) {
      row[j] = mean[j] + rng.NextGaussian();
    }
    data.AppendRow(row);
  }
  return data;
}

/// Sequential baseline for one query: each class's bounds are refined
/// independently until width <= eps * lower (the same relative band the
/// round-robin convergence rule targets) or the traversal drains; the
/// label is argmax of prior * midpoint.
uint32_t ClassifySequential(const std::vector<DensityBoundEvaluator>& parts,
                            const std::vector<double>& priors, double eps,
                            TreeQueryContext& ctx, std::span<const double> x) {
  constexpr int64_t kStep = 16;
  uint32_t best = 0;
  double best_posterior = -1.0;
  for (size_t c = 0; c < parts.size(); ++c) {
    DensityBounds bounds = parts[c].SeedPointRefinement(ctx, x);
    while (true) {
      if (bounds.Width() <= eps * bounds.lower) break;
      bounds = parts[c].RefinePointBounds(ctx, x, bounds, kStep);
      if (ctx.last_cutoff == CutoffReason::kExactLeaf) break;
    }
    const double posterior = priors[c] * bounds.Midpoint();
    if (posterior > best_posterior) {
      best_posterior = posterior;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

}  // namespace
}  // namespace tkdc

int main(int argc, char** argv) {
  using namespace tkdc;
  const BenchArgs args = BenchArgs::Parse(argc, argv);

  const size_t dims = 4;
  const size_t per_class =
      static_cast<size_t>(2000 * std::max(args.scale, 1.0));
  const size_t num_queries =
      static_cast<size_t>(400 * std::max(args.scale, 1.0));
  const double spread = 4.0;  // Class-mean box half-width: overlapping
                              // neighbors, well-separated far pairs.
  const std::vector<size_t> k_sweep{2, 3, 4, 6, 8, 12, 16};

  std::cout << "Multi-class cross-class pruning vs per-class sequential "
               "refinement\n"
            << "(" << per_class << " points/class, " << dims << "-d, "
            << num_queries << " queries)\n\n";

  TablePrinter table({"K", "mc nodes/q", "seq nodes/q", "seq/mc", "agree",
                      "mc us/q", "seq us/q"});
  std::vector<Record> records;
  for (const size_t k : k_sweep) {
    Rng rng(args.seed * 1000003 + k);

    std::vector<Dataset> class_data;
    std::vector<std::string> labels;
    for (size_t c = 0; c < k; ++c) {
      std::vector<double> mean(dims);
      for (double& m : mean) m = rng.Uniform(-spread, spread);
      class_data.push_back(SampleClass(per_class, mean, rng));
      labels.push_back("class" + std::to_string(c));
    }

    TkdcConfig config;
    config.seed = args.seed;
    MultiClassClassifier mc(config);
    if (const Status status =
            mc.TrainParts(class_data, labels);
        !status.ok()) {
      std::cerr << "training failed at K=" << k << ": " << status.message()
                << "\n";
      return 1;
    }

    // Queries drawn from the class mixture itself (round-robin over
    // classes): the workload where the answer is usually decided by a few
    // nearby classes and the rest should be eliminated cheaply.
    Dataset queries(dims);
    queries.Reserve(num_queries);
    std::vector<double> row(dims);
    for (size_t i = 0; i < num_queries; ++i) {
      const Dataset& source = class_data[i % k];
      const std::span<const double> base =
          source.Row(static_cast<size_t>(rng.NextBounded(source.size())));
      for (size_t j = 0; j < dims; ++j) {
        row[j] = base[j] + 0.25 * rng.NextGaussian();
      }
      queries.AppendRow(row);
    }

    Record rec;
    rec.k = k;

    // --- Round-robin pruner.
    {
      const auto ctx = mc.MakeQueryContext();
      std::vector<uint32_t> mc_labels(num_queries);
      WallTimer timer;
      for (size_t i = 0; i < num_queries; ++i) {
        mc_labels[i] = mc.ClassifyInContext(*ctx, queries.Row(i));
      }
      const double seconds = timer.ElapsedSeconds();
      rec.mc_nodes = static_cast<double>(ctx->stats.nodes_expanded) /
                     static_cast<double>(num_queries);
      rec.mc_us = seconds * 1e6 / static_cast<double>(num_queries);

      // --- Sequential baseline on the same trained parts.
      std::vector<DensityBoundEvaluator> parts;
      parts.reserve(k);
      for (size_t c = 0; c < k; ++c) {
        const TkdcClassifier& part = mc.class_part(c);
        parts.emplace_back(&part.tree(), &part.kernel(), &part.config());
      }
      TreeQueryContext seq_ctx;
      size_t agree = 0;
      WallTimer seq_timer;
      for (size_t i = 0; i < num_queries; ++i) {
        const uint32_t label = ClassifySequential(
            parts, mc.priors(), config.epsilon, seq_ctx, queries.Row(i));
        agree += label == mc_labels[i] ? 1 : 0;
      }
      const double seq_seconds = seq_timer.ElapsedSeconds();
      rec.seq_nodes = static_cast<double>(seq_ctx.stats.nodes_expanded) /
                      static_cast<double>(num_queries);
      rec.seq_us = seq_seconds * 1e6 / static_cast<double>(num_queries);
      rec.agree = static_cast<double>(agree) / static_cast<double>(num_queries);
    }
    rec.ratio = rec.mc_nodes > 0.0 ? rec.seq_nodes / rec.mc_nodes : 0.0;

    table.AddRow({std::to_string(rec.k), FormatFixed(rec.mc_nodes, 1),
                  FormatFixed(rec.seq_nodes, 1), FormatFixed(rec.ratio, 2),
                  FormatFixed(rec.agree, 3), FormatFixed(rec.mc_us, 1),
                  FormatFixed(rec.seq_us, 1)});
    records.push_back(rec);
  }
  table.Print(std::cout);
  std::cout << "\nseq/mc > 1 means the cross-class cutoff expanded fewer "
               "nodes than K independent refinements.\n";

  const std::string out_path = bench::OutputPath("BENCH_mc.json");
  std::ofstream out(out_path);
  if (out) {
    out << "{\n";
    out << "  \"bench\": \"micro_mc\",\n";
    out << "  \"dims\": " << dims << ",\n";
    out << "  \"per_class\": " << per_class << ",\n";
    out << "  \"queries\": " << num_queries << ",\n";
    out << "  \"seed\": " << args.seed << ",\n";
    out << "  \"results\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      out << "    {\"k\": " << r.k << ", \"mc_nodes_per_query\": "
          << r.mc_nodes << ", \"seq_nodes_per_query\": " << r.seq_nodes
          << ", \"seq_over_mc\": " << r.ratio << ", \"agreement\": "
          << r.agree << ", \"mc_us_per_query\": " << r.mc_us
          << ", \"seq_us_per_query\": " << r.seq_us << "}"
          << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
