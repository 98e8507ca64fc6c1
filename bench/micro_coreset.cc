// Coreset compression benchmark: epsilon-coreset model compression
// (kde/coreset.h) on the fig07 gaussian workload, across a sweep of
// coreset shares at a fixed total tolerance. For every split the bench
// trains an uncompressed and a compressed model, serializes both, and
// reports the model-size reduction next to what the compression costs in
// classification fidelity: label agreement on held-out queries, and —
// the contract that matters — whether every disagreement sits inside the
// configured epsilon band around the threshold (out_of_band == 0 means
// the compressed model never flips a label the tolerance didn't already
// put in play).
//
// Emits BENCH_coreset.json. The acceptance target is >= 5x file-size
// reduction at some split with zero out-of-band disagreements; at the
// default scale the 0.6 share reaches 8x (three halvings).

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_output.h"

#include "common/rng.h"
#include "common/timer.h"
#include "data/generators.h"
#include "harness/table.h"
#include "harness/workload.h"
#include "tkdc/classifier.h"
#include "tkdc_api.h"

namespace tkdc {
namespace {

struct Record {
  double coreset_epsilon = 0.0;
  size_t points = 0;          // Compressed training-set rows.
  uint32_t halvings = 0;
  double achieved_error = 0.0;
  size_t plain_bytes = 0;
  size_t compressed_bytes = 0;
  double size_ratio = 0.0;    // plain / compressed file bytes.
  double agreement = 0.0;     // Label agreement fraction on the queries.
  size_t disagreements = 0;
  size_t out_of_band = 0;     // Disagreements outside the epsilon band.
  double train_s = 0.0;       // Compressed-model training (incl. builder).
};

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

/// Exact KDE over the full training set — the referee for the band check.
double ExactDensity(const Dataset& data, const Kernel& kernel,
                    std::span<const double> x) {
  double sum = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    sum += kernel.Evaluate(x, data.Row(i));
  }
  return sum / static_cast<double>(data.size());
}

}  // namespace
}  // namespace tkdc

int main(int argc, char** argv) {
  using namespace tkdc;
  const BenchArgs args = BenchArgs::Parse(argc, argv);

  const size_t n = static_cast<size_t>(100000 * std::max(args.scale, 1.0));
  const size_t num_queries =
      static_cast<size_t>(2000 * std::max(args.scale, 1.0));
  const double epsilon = 0.8;
  const std::vector<double> shares{0.2, 0.4, 0.6};

  Rng rng(args.seed * 1000003 + 7);
  const Dataset data = SampleStandardGaussian(n, 2, rng);
  Rng query_rng(args.seed * 1000003 + 555);
  const Dataset queries = SampleStandardGaussian(num_queries, 2, query_rng);

  std::cout << "Epsilon-coreset model compression on the fig07 gaussian "
               "workload\n"
            << "(" << n << " points, 2-d, " << num_queries
            << " queries, epsilon " << epsilon << ")\n\n";

  api::TrainOptions plain_options;
  plain_options.config.epsilon = epsilon;
  plain_options.config.seed = args.seed;
  plain_options.config.num_threads = 1;
  auto plain = api::Train(data, plain_options);
  if (!plain.ok()) {
    std::cerr << "training failed: " << plain.message() << "\n";
    return 1;
  }
  const std::string plain_path =
      bench::OutputPath("micro_coreset_plain.model");
  if (const Status saved = api::SaveModel(plain_path, *plain.value(), data);
      !saved.ok()) {
    std::cerr << "save failed: " << saved.message() << "\n";
    return 1;
  }
  const size_t plain_bytes = FileBytes(plain_path);
  const double t = plain.value()->threshold();

  // Exact densities decide which disagreements the epsilon band already
  // sanctioned: a query whose true density lies within (1 +- epsilon) * t
  // may legitimately land on either side.
  const auto& plain_part = dynamic_cast<const TkdcClassifier&>(*plain.value());
  std::vector<double> exact(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    exact[i] = ExactDensity(data, plain_part.kernel(), queries.Row(i));
  }
  std::vector<Classification> plain_labels(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    plain_labels[i] = plain.value()->Classify(queries.Row(i));
  }

  TablePrinter table({"eps_cs", "points", "halvings", "est err", "bytes",
                      "size x", "agree", "out-of-band", "train s"});
  std::vector<Record> records;
  for (const double share : shares) {
    Record rec;
    rec.coreset_epsilon = share;
    rec.plain_bytes = plain_bytes;

    api::TrainOptions options = plain_options;
    options.config.coreset_epsilon = share;
    WallTimer timer;
    auto compressed = api::Train(data, options);
    rec.train_s = timer.ElapsedSeconds();
    if (!compressed.ok()) {
      std::cerr << "training failed at share " << share << ": "
                << compressed.message() << "\n";
      return 1;
    }
    const auto& part =
        dynamic_cast<const TkdcClassifier&>(*compressed.value());
    rec.points = part.training_size();
    rec.halvings = part.coreset_info().halvings;
    rec.achieved_error = part.coreset_info().achieved_error;

    const std::string path =
        bench::OutputPath("micro_coreset_compressed.model");
    if (const Status saved =
            api::SaveModel(path, *compressed.value(), data);
        !saved.ok()) {
      std::cerr << "save failed at share " << share << ": "
                << saved.message() << "\n";
      return 1;
    }
    rec.compressed_bytes = FileBytes(path);
    rec.size_ratio =
        rec.compressed_bytes > 0
            ? static_cast<double>(plain_bytes) /
                  static_cast<double>(rec.compressed_bytes)
            : 0.0;

    size_t agree = 0;
    for (size_t i = 0; i < num_queries; ++i) {
      const Classification label = compressed.value()->Classify(queries.Row(i));
      if (label == plain_labels[i]) {
        ++agree;
        continue;
      }
      ++rec.disagreements;
      const bool in_band =
          exact[i] >= (1.0 - epsilon) * t && exact[i] <= (1.0 + epsilon) * t;
      if (!in_band) ++rec.out_of_band;
    }
    rec.agreement =
        static_cast<double>(agree) / static_cast<double>(num_queries);

    table.AddRow({FormatFixed(rec.coreset_epsilon, 1),
                  std::to_string(rec.points), std::to_string(rec.halvings),
                  FormatFixed(rec.achieved_error, 3),
                  std::to_string(rec.compressed_bytes),
                  FormatFixed(rec.size_ratio, 2),
                  FormatFixed(rec.agreement, 4),
                  std::to_string(rec.out_of_band),
                  FormatFixed(rec.train_s, 2)});
    records.push_back(rec);
  }
  table.Print(std::cout);
  std::cout << "\nuncompressed model: " << plain_bytes << " bytes, " << n
            << " points, threshold " << t << "\n"
            << "out-of-band = disagreements whose exact density falls "
               "outside (1 +- epsilon) * t; the compression contract keeps "
               "this at 0.\n";

  const std::string out_path = bench::OutputPath("BENCH_coreset.json");
  std::ofstream out(out_path);
  if (out) {
    out << "{\n";
    out << "  \"bench\": \"micro_coreset\",\n";
    out << "  \"n\": " << n << ",\n";
    out << "  \"queries\": " << num_queries << ",\n";
    out << "  \"epsilon\": " << epsilon << ",\n";
    out << "  \"plain_bytes\": " << plain_bytes << ",\n";
    out << "  \"seed\": " << args.seed << ",\n";
    out << "  \"results\": [\n";
    for (size_t i = 0; i < records.size(); ++i) {
      const Record& r = records[i];
      out << "    {\"coreset_epsilon\": " << r.coreset_epsilon
          << ", \"points\": " << r.points << ", \"halvings\": " << r.halvings
          << ", \"achieved_error\": " << r.achieved_error
          << ", \"compressed_bytes\": " << r.compressed_bytes
          << ", \"size_ratio\": " << r.size_ratio << ", \"agreement\": "
          << r.agreement << ", \"disagreements\": " << r.disagreements
          << ", \"out_of_band\": " << r.out_of_band << ", \"train_s\": "
          << r.train_s << "}" << (i + 1 < records.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
