#include "cli/cli.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

// The CLI is a consumer of the stable public surface: everything it does
// (train, persist, load, classify) goes through tkdc_api.h rather than
// per-algorithm internals.
#include "common/timer.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "tkdc_api.h"

namespace tkdc {
namespace {

constexpr const char kUsage[] =
    "usage: tkdc_cli <train|classify|info|generate> [options]\n"
    "  train     --input X.csv --model M.tkdc [--algorithm NAME] [--p F]\n"
    "            [--epsilon F] [--coreset-epsilon F] [--b F] [--k N]\n"
    "            [--kernel gaussian|epanechnikov|uniform|biweight]\n"
    "            [--split trimmed|median|midpoint] [--no-grid]\n"
    "            [--fast-math-leaf] [--seed N] [--threads N] [--header]\n"
    "            [--no-densities]\n"
    "  (--algorithm: tkdc (default), nocut, simple, rkde, binned, knn, or\n"
    "   tkdc-mc; --k applies to knn only;\n"
    "   --fast-math-leaf: vectorized exp approximation in Gaussian leaf\n"
    "   scans — near-exact densities, not bit-identical to the default.\n"
    "   --coreset-epsilon: spend this share of --epsilon on epsilon-coreset\n"
    "   training-set compression (tkdc/nocut/tkdc-mc; must be < epsilon;\n"
    "   0 disables, the default). Smaller model, same accuracy contract.\n"
    "   tkdc-mc trains a multi-class model: the input CSV's LAST column is\n"
    "   the string class label, the preceding columns are features; one\n"
    "   tkdc model is trained per class with empirical priors.)\n"
    "  classify  --model M.tkdc --input Q.csv --output R.csv [--header]\n"
    "            [--training] [--density] [--threads N] [--metrics-out J]\n"
    "  (--input/--output may repeat, pairwise: the model is loaded ONCE and\n"
    "   each query file is classified against it in turn.\n"
    "   Multi-class models write a `label` column of predicted class\n"
    "   labels; --training/--density do not apply to them.\n"
    "   --threads: worker threads for the index build, training densities\n"
    "   and batch classification; 0 = hardware concurrency (default),\n"
    "   1 = serial. Results are identical for any value.\n"
    "   --metrics-out: write query-path metrics (prune-depth, kernel-eval,\n"
    "   and cutoff-reason histograms) as JSON covering all query files.)\n"
    "  info      --model M.tkdc\n"
    "  generate  --dataset NAME --n N --output X.csv [--dims D] [--seed N]\n";

// Parsed command line: --key value pairs plus boolean --flag switches.
// Repeated options accumulate in order; Value() keeps the familiar
// last-one-wins reading for options that should be scalar.
struct ParsedArgs {
  std::map<std::string, std::vector<std::string>> values;
  std::map<std::string, bool> flags;

  std::optional<std::string> Value(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) return std::nullopt;
    return it->second.back();
  }

  std::vector<std::string> Values(const std::string& key) const {
    const auto it = values.find(key);
    return it == values.end() ? std::vector<std::string>() : it->second;
  }

  bool Flag(const std::string& key) const {
    const auto it = flags.find(key);
    return it != flags.end() && it->second;
  }
};

const char* const kBooleanFlags[] = {"--header", "--training",
                                     "--density", "--no-grid",
                                     "--no-densities", "--fast-math-leaf"};

bool IsBooleanFlag(const std::string& arg) {
  for (const char* flag : kBooleanFlags) {
    if (arg == flag) return true;
  }
  return false;
}

// Parses `args` after the subcommand. Returns false on malformed input.
bool ParseArgs(const std::vector<std::string>& args, size_t start,
               ParsedArgs* parsed, std::ostream& err) {
  for (size_t i = start; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      err << "unexpected argument: " << arg << "\n";
      return false;
    }
    if (IsBooleanFlag(arg)) {
      parsed->flags[arg] = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      parsed->values[arg.substr(0, eq)].push_back(arg.substr(eq + 1));
      continue;
    }
    if (i + 1 >= args.size()) {
      err << "missing value for " << arg << "\n";
      return false;
    }
    parsed->values[arg].push_back(args[++i]);
  }
  return true;
}

// Refuses any option the subcommand does not read, so a typo or a removed
// flag fails instead of passing as if it had been honoured.
bool RejectUnknownOptions(const ParsedArgs& parsed,
                          std::initializer_list<std::string_view> known,
                          std::ostream& err) {
  auto check = [&](const std::string& key) {
    if (std::find(known.begin(), known.end(), key) != known.end()) {
      return true;
    }
    err << "unknown option " << key << "\n" << kUsage;
    return false;
  };
  for (const auto& [key, values] : parsed.values) {
    if (!check(key)) return false;
  }
  for (const auto& [key, set] : parsed.flags) {
    if (!check(key)) return false;
  }
  return true;
}

bool RequireValues(const ParsedArgs& parsed,
                   const std::vector<std::string>& keys, std::ostream& err) {
  for (const std::string& key : keys) {
    if (!parsed.Value(key).has_value()) {
      err << "missing required option " << key << "\n";
      return false;
    }
  }
  return true;
}

// `train --algorithm tkdc-mc`: the input CSV's last column is the string
// class label; one tkdc model per class, empirical priors, one tag-7
// container file out.
int CmdTrainMultiClass(const ParsedArgs& parsed, const TkdcConfig& config,
                       std::ostream& out, std::ostream& err) {
  std::string error;
  const auto table =
      ReadLabeledCsv(*parsed.Value("--input"), parsed.Flag("--header"), &error);
  if (!table.has_value()) {
    err << error << "\n";
    return 1;
  }
  out << "training tkdc-mc on " << table->data.size() << " x "
      << table->data.dims() << " labeled points...\n";
  WallTimer timer;
  auto trained = api::TrainMultiClass(table->data, table->labels, config);
  if (!trained.ok()) {
    err << trained.message() << "\n";
    return 1;
  }
  std::unique_ptr<MultiClassClassifier> classifier = trained.take();
  out << "trained " << classifier->num_classes() << " classes in "
      << timer.ElapsedSeconds() << "s:";
  for (size_t c = 0; c < classifier->num_classes(); ++c) {
    out << " " << classifier->class_labels()[c] << " (prior "
        << classifier->priors()[c] << ")";
  }
  out << "\n";
  api::SaveOptions save_options;
  save_options.include_densities = !parsed.Flag("--no-densities");
  const Status saved = api::SaveMultiClassModel(*parsed.Value("--model"),
                                                *classifier, save_options);
  if (!saved.ok()) {
    err << saved.message() << "\n";
    return 1;
  }
  out << "model written to " << *parsed.Value("--model") << "\n";
  return 0;
}

int CmdTrain(const ParsedArgs& parsed, std::ostream& out, std::ostream& err) {
  if (!RejectUnknownOptions(
          parsed,
          {"--input", "--model", "--algorithm", "--p", "--epsilon",
           "--coreset-epsilon", "--b", "--k", "--kernel", "--split",
           "--seed", "--threads", "--header", "--no-grid",
           "--fast-math-leaf", "--no-densities"},
          err)) {
    return 2;
  }
  if (!RequireValues(parsed, {"--input", "--model"}, err)) return 2;
  TkdcConfig config;
  if (const auto p = parsed.Value("--p")) config.p = std::atof(p->c_str());
  if (const auto eps = parsed.Value("--epsilon")) {
    config.epsilon = std::atof(eps->c_str());
  }
  if (const auto coreset_eps = parsed.Value("--coreset-epsilon")) {
    config.coreset_epsilon = std::atof(coreset_eps->c_str());
  }
  if (const auto b = parsed.Value("--b")) {
    config.bandwidth_scale = std::atof(b->c_str());
  }
  if (const auto kernel = parsed.Value("--kernel")) {
    if (*kernel == "gaussian") {
      config.kernel = KernelType::kGaussian;
    } else if (*kernel == "epanechnikov") {
      config.kernel = KernelType::kEpanechnikov;
    } else if (*kernel == "uniform") {
      config.kernel = KernelType::kUniform;
    } else if (*kernel == "biweight") {
      config.kernel = KernelType::kBiweight;
    } else {
      err << "unknown kernel: " << *kernel << "\n";
      return 2;
    }
  }
  if (const auto split = parsed.Value("--split")) {
    const auto rule = SplitRuleFromName(*split);
    if (!rule.has_value()) {
      err << "unknown split rule: " << *split << "\n";
      return 2;
    }
    config.split_rule = *rule;
  }
  if (parsed.Flag("--no-grid")) config.use_grid = false;
  if (parsed.Flag("--fast-math-leaf")) config.fast_math_leaf = true;
  if (const auto seed = parsed.Value("--seed")) {
    config.seed = static_cast<uint64_t>(std::atoll(seed->c_str()));
  }
  if (const auto threads = parsed.Value("--threads")) {
    const long long parsed_threads = std::atoll(threads->c_str());
    if (parsed_threads < 0) {
      err << "--threads must be >= 0\n";
      return 2;
    }
    config.num_threads = static_cast<size_t>(parsed_threads);
  }
  api::TrainOptions options;
  options.config = config;
  if (const auto k_arg = parsed.Value("--k")) {
    const long long parsed_k = std::atoll(k_arg->c_str());
    if (parsed_k < 1) {
      err << "--k must be positive\n";
      return 2;
    }
    options.k = static_cast<size_t>(parsed_k);
  }
  options.algorithm = parsed.Value("--algorithm").value_or("tkdc");
  if (options.algorithm == "tkdc-mc") {
    return CmdTrainMultiClass(parsed, config, out, err);
  }
  // Fail on bad options (unknown algorithm, out-of-range knobs) before
  // reading the training file.
  auto untrained = api::NewClassifier(options);
  if (!untrained.ok()) {
    err << untrained.message() << "\n";
    return 2;
  }

  std::string error;
  const auto table =
      ReadCsv(*parsed.Value("--input"), parsed.Flag("--header"), &error);
  if (!table.has_value()) {
    err << error << "\n";
    return 1;
  }
  out << "training " << options.algorithm << " on " << table->data.size()
      << " x " << table->data.dims() << " points...\n";
  WallTimer timer;
  auto trained = api::Train(table->data, options);
  if (!trained.ok()) {
    err << trained.message() << "\n";
    return 1;
  }
  std::unique_ptr<DensityClassifier> classifier = trained.take();
  out << "trained in " << timer.ElapsedSeconds()
      << "s; threshold t(p=" << config.p << ") = " << classifier->threshold()
      << "\n";
  api::SaveOptions save_options;
  save_options.include_densities = !parsed.Flag("--no-densities");
  const Status saved = api::SaveModel(*parsed.Value("--model"), *classifier,
                                      table->data, save_options);
  if (!saved.ok()) {
    err << saved.message() << "\n";
    return 1;
  }
  out << "model written to " << *parsed.Value("--model") << "\n";
  return 0;
}

// Classification against a tag-7 multi-class container: one `label`
// column of predicted class labels per query file.
int CmdClassifyMultiClass(const ParsedArgs& parsed,
                          const std::vector<std::string>& inputs,
                          const std::vector<std::string>& outputs,
                          std::ostream& out, std::ostream& err) {
  if (parsed.Flag("--training") || parsed.Flag("--density")) {
    err << "--training/--density do not apply to multi-class models\n";
    return 2;
  }
  auto loaded = api::LoadAny(*parsed.Value("--model"));
  if (!loaded.ok()) {
    err << loaded.message() << "\n";
    return 1;
  }
  std::unique_ptr<MultiClassClassifier> classifier =
      loaded.value().TakeMulti();
  MetricsRegistry registry;
  const auto metrics_out = parsed.Value("--metrics-out");
  if (metrics_out.has_value()) classifier->AttachMetrics(&registry);
  if (const auto threads = parsed.Value("--threads")) {
    const long long parsed_threads = std::atoll(threads->c_str());
    if (parsed_threads < 0) {
      err << "--threads must be >= 0\n";
      return 2;
    }
    classifier->SetNumThreads(static_cast<size_t>(parsed_threads));
  }
  std::string error;
  for (size_t file = 0; file < inputs.size(); ++file) {
    const auto table = ReadCsv(inputs[file], parsed.Flag("--header"), &error);
    if (!table.has_value()) {
      err << error << "\n";
      return 1;
    }
    if (table->data.dims() != classifier->dims()) {
      err << inputs[file] << ": query dimensionality " << table->data.dims()
          << " does not match model dimensionality " << classifier->dims()
          << "\n";
      return 1;
    }
    const std::vector<uint32_t> labels = classifier->ClassifyBatch(table->data);
    std::vector<size_t> counts(classifier->num_classes(), 0);
    std::ofstream results(outputs[file]);
    if (!results) {
      err << "cannot open " << outputs[file] << " for writing\n";
      return 1;
    }
    results << "label\n";
    for (const uint32_t label : labels) {
      ++counts[label];
      results << classifier->class_labels()[label] << "\n";
    }
    results.flush();
    if (!results) {
      err << "write to " << outputs[file] << " failed\n";
      return 1;
    }
    out << "classified " << table->data.size() << " points:";
    for (size_t c = 0; c < counts.size(); ++c) {
      out << " " << classifier->class_labels()[c] << "=" << counts[c];
    }
    out << "\nresults written to " << outputs[file] << "\n";
  }
  if (metrics_out.has_value()) {
    classifier->FlushMetrics();
    std::ofstream metrics_stream(*metrics_out);
    if (!metrics_stream) {
      err << "cannot open " << *metrics_out << " for writing\n";
      return 1;
    }
    registry.WriteJson(metrics_stream);
    metrics_stream << "\n";
    if (!metrics_stream.flush()) {
      err << "write to " << *metrics_out << " failed\n";
      return 1;
    }
    out << "metrics written to " << *metrics_out << "\n";
  }
  return 0;
}

int CmdClassify(const ParsedArgs& parsed, std::ostream& out,
                std::ostream& err) {
  if (!RejectUnknownOptions(parsed,
                            {"--model", "--input", "--output", "--threads",
                             "--metrics-out", "--header", "--training",
                             "--density"},
                            err)) {
    return 2;
  }
  if (!RequireValues(parsed, {"--model", "--input", "--output"}, err)) {
    return 2;
  }
  const std::vector<std::string> inputs = parsed.Values("--input");
  const std::vector<std::string> outputs = parsed.Values("--output");
  if (inputs.size() != outputs.size()) {
    err << "--input and --output must be given the same number of times ("
        << inputs.size() << " vs " << outputs.size() << ")\n";
    return 2;
  }
  // Dispatch on the file header: multi-class containers have their own
  // loader and output shape.
  const auto kind = api::ProbeModel(*parsed.Value("--model"));
  if (!kind.ok()) {
    err << kind.message() << "\n";
    return 1;
  }
  if (kind.value() == ModelKind::kMultiClass) {
    return CmdClassifyMultiClass(parsed, inputs, outputs, out, err);
  }
  // One load serves every query file: the model is an immutable artifact,
  // so classifying never retrains or mutates it.
  auto loaded = api::LoadAny(*parsed.Value("--model"));
  if (!loaded.ok()) {
    err << loaded.message() << "\n";
    return 1;
  }
  std::unique_ptr<DensityClassifier> classifier =
      loaded.value().TakeSingle();
  std::string error;
  const bool training = parsed.Flag("--training");
  const bool with_density = parsed.Flag("--density");
  // Observability is opt-in: without --metrics-out the classifier stays
  // detached and the query path records nothing beyond its plain counters.
  MetricsRegistry registry;
  const auto metrics_out = parsed.Value("--metrics-out");
  if (metrics_out.has_value()) classifier->AttachMetrics(&registry);
  if (const auto threads = parsed.Value("--threads")) {
    const long long parsed_threads = std::atoll(threads->c_str());
    if (parsed_threads < 0) {
      err << "--threads must be >= 0\n";
      return 2;
    }
    classifier->SetNumThreads(static_cast<size_t>(parsed_threads));
  }
  for (size_t file = 0; file < inputs.size(); ++file) {
    const auto table = ReadCsv(inputs[file], parsed.Flag("--header"), &error);
    if (!table.has_value()) {
      err << error << "\n";
      return 1;
    }
    if (table->data.dims() != classifier->dims()) {
      err << inputs[file] << ": query dimensionality " << table->data.dims()
          << " does not match model dimensionality " << classifier->dims()
          << "\n";
      return 1;
    }
    // Labels come from the (possibly multi-threaded) batch engine; the
    // optional density column stays a serial pass since EstimateDensity is
    // per-point.
    const std::vector<Classification> labels =
        training ? classifier->ClassifyTrainingBatch(table->data)
                 : classifier->ClassifyBatch(table->data);
    Dataset results(with_density ? 2 : 1);
    results.Reserve(table->data.size());
    size_t high = 0;
    for (size_t i = 0; i < table->data.size(); ++i) {
      if (labels[i] == Classification::kHigh) ++high;
      std::vector<double> result_row{
          labels[i] == Classification::kHigh ? 1.0 : 0.0};
      if (with_density) {
        result_row.push_back(classifier->EstimateDensity(table->data.Row(i)));
      }
      results.AppendRow(result_row);
    }
    std::vector<std::string> header{"high"};
    if (with_density) header.push_back("density");
    if (!WriteCsv(outputs[file], results, header, &error)) {
      err << error << "\n";
      return 1;
    }
    out << "classified " << table->data.size() << " points: " << high
        << " HIGH, " << (table->data.size() - high) << " LOW\n"
        << "results written to " << outputs[file] << "\n";
  }
  if (metrics_out.has_value()) {
    classifier->FlushMetrics();
    std::ofstream metrics_stream(*metrics_out);
    if (!metrics_stream) {
      err << "cannot open " << *metrics_out << " for writing\n";
      return 1;
    }
    registry.WriteJson(metrics_stream);
    metrics_stream << "\n";
    if (!metrics_stream.flush()) {
      err << "write to " << *metrics_out << " failed\n";
      return 1;
    }
    out << "metrics written to " << *metrics_out << "\n";
  }
  return 0;
}

int CmdInfo(const ParsedArgs& parsed, std::ostream& out, std::ostream& err) {
  if (!RejectUnknownOptions(parsed, {"--model"}, err)) return 2;
  if (!RequireValues(parsed, {"--model"}, err)) return 2;
  // One kind-agnostic load: the handle knows its algorithm name and how
  // to describe itself, whichever kind the file holds.
  auto loaded = api::LoadAny(*parsed.Value("--model"));
  if (!loaded.ok()) {
    err << loaded.message() << "\n";
    return 1;
  }
  out << loaded.value().algorithm() << " model: " << *parsed.Value("--model")
      << "\n"
      << loaded.value().Describe();
  return 0;
}

int CmdGenerate(const ParsedArgs& parsed, std::ostream& out,
                std::ostream& err) {
  if (!RejectUnknownOptions(
          parsed, {"--dataset", "--n", "--output", "--dims", "--seed"},
          err)) {
    return 2;
  }
  if (!RequireValues(parsed, {"--dataset", "--n", "--output"}, err)) return 2;
  const auto id = DatasetIdFromName(*parsed.Value("--dataset"));
  if (!id.has_value()) {
    err << "unknown dataset: " << *parsed.Value("--dataset")
        << " (available:";
    for (const DatasetSpec& spec : AllDatasetSpecs()) {
      err << " " << spec.name;
    }
    err << ")\n";
    return 2;
  }
  const long long n = std::atoll(parsed.Value("--n")->c_str());
  if (n < 1) {
    err << "--n must be positive\n";
    return 2;
  }
  uint64_t seed = 42;
  if (const auto s = parsed.Value("--seed")) {
    seed = static_cast<uint64_t>(std::atoll(s->c_str()));
  }
  size_t dims = GetDatasetSpec(*id).dims;
  if (const auto d = parsed.Value("--dims")) {
    const long long parsed_dims = std::atoll(d->c_str());
    if (parsed_dims < 1) {
      err << "--dims must be positive\n";
      return 2;
    }
    dims = static_cast<size_t>(parsed_dims);
  }
  const Dataset data =
      MakeDataset(*id, static_cast<size_t>(n), dims, seed);
  std::string error;
  if (!WriteCsv(*parsed.Value("--output"), data, {}, &error)) {
    err << error << "\n";
    return 1;
  }
  out << "wrote " << data.size() << " x " << data.dims() << " rows to "
      << *parsed.Value("--output") << "\n";
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  ParsedArgs parsed;
  if (!ParseArgs(args, 1, &parsed, err)) {
    err << kUsage;
    return 2;
  }
  const std::string& command = args[0];
  if (command == "train") return CmdTrain(parsed, out, err);
  if (command == "classify") return CmdClassify(parsed, out, err);
  if (command == "info") return CmdInfo(parsed, out, err);
  if (command == "generate") return CmdGenerate(parsed, out, err);
  err << "unknown command: " << command << "\n" << kUsage;
  return 2;
}

}  // namespace tkdc
