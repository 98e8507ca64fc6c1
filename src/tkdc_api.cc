#include "tkdc_api.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "baselines/binned_kde.h"
#include "baselines/knn.h"
#include "baselines/nocut.h"
#include "baselines/rkde.h"
#include "baselines/simple_kde.h"
#include "index/index_backend.h"
#include "tkdc/classifier.h"
#include "tkdc/model_io.h"

namespace tkdc::api {

namespace {

/// A NaN or infinite t(p) turns every label into garbage (all comparisons
/// against it fail), so training refuses the model instead of returning
/// it. At d = 784 the Gaussian normalizer overflows to inf and t(p) comes
/// out NaN.
Status CheckThreshold(double threshold, const std::string& where = "") {
  if (std::isfinite(threshold)) return Status::Ok();
  return Errorf() << "training produced a non-finite threshold t(p)" << where
                  << ": " << threshold
                  << " (the kernel density over- or underflows at this "
                     "dimensionality and bandwidth)";
}

}  // namespace

const std::vector<std::string>& KnownAlgorithms() {
  static const std::vector<std::string> kNames = {"tkdc",  "nocut",  "simple",
                                                  "rkde",  "binned", "knn"};
  return kNames;
}

Result<std::unique_ptr<DensityClassifier>> NewClassifier(
    const TrainOptions& options) {
  const Status config_status = options.config.Validate();
  if (!config_status.ok()) {
    return Errorf() << "invalid config: " << config_status.message();
  }
  if (options.k < 1) return Errorf() << "k must be >= 1";
  const TkdcConfig& config = options.config;
  std::unique_ptr<DensityClassifier> classifier;
  if (options.algorithm == "tkdc") {
    classifier = std::make_unique<TkdcClassifier>(config);
  } else if (options.algorithm == "nocut") {
    classifier = std::make_unique<NocutClassifier>(config);
  } else if (options.algorithm == "rkde") {
    RkdeOptions rkde;
    rkde.base = config;
    classifier = std::make_unique<RkdeClassifier>(rkde);
  } else if (options.algorithm == "simple") {
    SimpleKdeOptions simple;
    simple.p = config.p;
    simple.bandwidth_scale = config.bandwidth_scale;
    simple.kernel = config.kernel;
    simple.bandwidth_rule = config.bandwidth_rule;
    simple.seed = config.seed;
    classifier = std::make_unique<SimpleKdeClassifier>(simple);
  } else if (options.algorithm == "binned") {
    BinnedKdeOptions binned;
    binned.p = config.p;
    binned.bandwidth_scale = config.bandwidth_scale;
    binned.kernel = config.kernel;
    binned.bandwidth_rule = config.bandwidth_rule;
    binned.seed = config.seed;
    classifier = std::make_unique<BinnedKdeClassifier>(binned);
  } else if (options.algorithm == "knn") {
    KnnOptions knn;
    knn.p = config.p;
    knn.k = options.k;
    knn.leaf_size = config.leaf_size;
    knn.index_backend = config.index_backend;
    knn.seed = config.seed;
    classifier = std::make_unique<KnnClassifier>(knn);
  } else {
    Errorf error;
    error << "unknown algorithm: " << options.algorithm << " (available:";
    for (const std::string& name : KnownAlgorithms()) error << " " << name;
    error << ")";
    return error;
  }
  classifier->SetNumThreads(config.num_threads);
  return classifier;
}

Result<std::unique_ptr<DensityClassifier>> Train(const Dataset& data,
                                                 const TrainOptions& options) {
  auto classifier = NewClassifier(options);
  if (!classifier.ok()) return classifier;
  if (data.size() < 2) {
    return Errorf() << "training needs at least 2 rows, got " << data.size();
  }
  classifier.value()->Train(data);
  const Status threshold = CheckThreshold(classifier.value()->threshold());
  if (!threshold.ok()) return threshold;
  return classifier;
}

Status SaveModel(const std::string& path, const DensityClassifier& classifier,
                 const Dataset& training_data, const SaveOptions& options) {
  std::string error;
  if (!tkdc::SaveModel(path, classifier, training_data,
                       options.include_densities, &error)) {
    return Status::Error(error);
  }
  return Status::Ok();
}

Result<std::unique_ptr<MultiClassClassifier>> TrainMultiClass(
    const Dataset& data, const std::vector<std::string>& row_labels,
    const TkdcConfig& config, std::vector<double> priors) {
  const Status config_status = config.Validate();
  if (!config_status.ok()) {
    return Errorf() << "invalid config: " << config_status.message();
  }
  auto classifier = std::make_unique<MultiClassClassifier>(config);
  Status status = classifier->Train(data, row_labels, std::move(priors));
  if (!status.ok()) return status;
  for (size_t c = 0; c < classifier->num_classes(); ++c) {
    status = CheckThreshold(classifier->class_part(c).threshold(),
                            " of class " + classifier->class_labels()[c]);
    if (!status.ok()) return status;
  }
  return classifier;
}

Status SaveMultiClassModel(const std::string& path,
                           const MultiClassClassifier& classifier,
                           const SaveOptions& options) {
  std::string error;
  if (!tkdc::SaveMultiClassModel(path, classifier, options.include_densities,
                                 &error)) {
    return Status::Error(error);
  }
  return Status::Ok();
}

Result<ModelKind> ProbeModel(const std::string& path) {
  std::string error;
  const ModelKind kind = ProbeModelKind(path, &error);
  if (kind == ModelKind::kInvalid) return Status::Error(error);
  return kind;
}

std::string DescribeMultiClass(const MultiClassClassifier& classifier) {
  std::ostringstream out;
  out << "  classes:         " << classifier.num_classes() << "\n"
      << "  dimensions:      " << classifier.dims() << "\n";
  if (const auto backend = classifier.index_backend()) {
    out << "  index backend:   " << IndexBackendName(*backend) << "\n";
  }
  out << "  p:               " << classifier.config().p << "\n"
      << "  epsilon:         " << classifier.config().epsilon << "\n"
      << "  error budget:    "
      << classifier.config().ResolveBudget().Summary() << "\n";
  for (size_t c = 0; c < classifier.num_classes(); ++c) {
    const TkdcClassifier& part = classifier.class_part(c);
    const CoresetInfo& coreset = part.coreset_info();
    out << "  class " << classifier.class_labels()[c] << ": prior "
        << classifier.priors()[c] << ", " << part.training_size()
        << " training points";
    if (coreset.enabled) {
      out << " (coreset of " << coreset.original_size << ")";
    }
    out << "\n";
  }
  return out.str();
}

size_t ModelHandle::dims() const {
  if (single_ != nullptr) return single_->dims();
  if (multi_ != nullptr) return multi_->dims();
  return 0;
}

std::string ModelHandle::algorithm() const {
  if (single_ != nullptr) return single_->name();
  if (multi_ != nullptr) return "tkdc-mc";
  return "";
}

std::string ModelHandle::Describe() const {
  if (single_ != nullptr) return api::Describe(*single_);
  if (multi_ != nullptr) return DescribeMultiClass(*multi_);
  return "";
}

Status ModelHandle::SaveTo(const std::string& path,
                           const SaveOptions& options) const {
  if (multi_ != nullptr) return SaveMultiClassModel(path, *multi_, options);
  if (single_ == nullptr) return Errorf() << "empty model handle";
  Dataset data(single_->dims());
  if (!single_->ExportTrainingData(&data)) {
    return Errorf() << single_->name()
                    << " models cannot re-export training rows; save with "
                       "SaveModel and the original dataset";
  }
  return SaveModel(path, *single_, data, options);
}

void ModelHandle::SetNumThreads(size_t num_threads) {
  if (single_ != nullptr) single_->SetNumThreads(num_threads);
  if (multi_ != nullptr) multi_->SetNumThreads(num_threads);
}

void ModelHandle::AttachMetrics(MetricsRegistry* registry) {
  if (single_ != nullptr) single_->AttachMetrics(registry);
  if (multi_ != nullptr) multi_->AttachMetrics(registry);
}

Result<ModelHandle> LoadAny(const std::string& path) {
  std::string error;
  const ModelKind kind = ProbeModelKind(path, &error);
  if (kind == ModelKind::kInvalid) return Status::Error(error);
  if (kind == ModelKind::kMultiClass) {
    std::unique_ptr<MultiClassClassifier> multi =
        tkdc::LoadMultiClassModel(path, &error);
    if (multi == nullptr) return Status::Error(error);
    return ModelHandle(std::move(multi));
  }
  std::unique_ptr<DensityClassifier> single = LoadAnyModel(path, &error);
  if (single == nullptr) return Status::Error(error);
  return ModelHandle(std::move(single));
}

Result<TrainOptions> RecoverTrainOptions(const DensityClassifier& classifier) {
  TrainOptions options;
  // Nocut derives from TkdcClassifier, so it must be matched first.
  if (const auto* nocut = dynamic_cast<const NocutClassifier*>(&classifier)) {
    options.algorithm = "nocut";
    options.config = nocut->config();
  } else if (const auto* tkdc_classifier =
                 dynamic_cast<const TkdcClassifier*>(&classifier)) {
    options.algorithm = "tkdc";
    options.config = tkdc_classifier->config();
  } else if (const auto* rkde =
                 dynamic_cast<const RkdeClassifier*>(&classifier)) {
    options.algorithm = "rkde";
    options.config = rkde->options().base;
  } else if (const auto* simple =
                 dynamic_cast<const SimpleKdeClassifier*>(&classifier)) {
    options.algorithm = "simple";
    options.config.p = simple->options().p;
    options.config.bandwidth_scale = simple->options().bandwidth_scale;
    options.config.kernel = simple->options().kernel;
    options.config.bandwidth_rule = simple->options().bandwidth_rule;
    options.config.seed = simple->options().seed;
  } else if (const auto* binned =
                 dynamic_cast<const BinnedKdeClassifier*>(&classifier)) {
    options.algorithm = "binned";
    options.config.p = binned->options().p;
    options.config.bandwidth_scale = binned->options().bandwidth_scale;
    options.config.kernel = binned->options().kernel;
    options.config.bandwidth_rule = binned->options().bandwidth_rule;
    options.config.seed = binned->options().seed;
  } else if (const auto* knn = dynamic_cast<const KnnClassifier*>(&classifier)) {
    options.algorithm = "knn";
    options.k = knn->options().k;
    options.config.p = knn->options().p;
    options.config.leaf_size = knn->options().leaf_size;
    options.config.index_backend = knn->options().index_backend;
    options.config.seed = knn->options().seed;
  } else {
    return Errorf() << "cannot recover train options for classifier type "
                    << classifier.name();
  }
  options.config.num_threads = classifier.num_threads();
  return options;
}

std::string Describe(const DensityClassifier& classifier) {
  std::ostringstream out;
  out << "  dimensions:      " << classifier.dims() << "\n"
      << "  threshold t(p):  " << classifier.threshold() << "\n"
      << "  streaming:       "
      << (classifier.supports_overlay() ? "overlay-capable" : "static only")
      << "\n";
  if (const auto backend = classifier.index_backend()) {
    out << "  index backend:   " << IndexBackendName(*backend) << "\n";
  }
  if (const auto* tkdc_classifier =
          dynamic_cast<const TkdcClassifier*>(&classifier)) {
    const TkdcConfig& config = tkdc_classifier->config();
    const CoresetInfo& coreset = tkdc_classifier->coreset_info();
    const size_t points = tkdc_classifier->tree().size();
    out << "  training points: " << points << "\n"
        << "  p:               " << config.p << "\n"
        << "  epsilon:         " << config.epsilon << "\n"
        << "  error budget:    " << tkdc_classifier->error_budget().Summary()
        << "\n";
    if (coreset.enabled) {
      out << "  coreset:         " << points << " of " << coreset.original_size
          << " points (" << coreset.CompressionRatio(points) << "x, "
          << coreset.halvings << " halvings, est err "
          << coreset.achieved_error << ")\n";
    } else {
      out << "  coreset:         disabled (full training set)\n";
    }
    out << "  threshold bound: [" << tkdc_classifier->threshold_lower() << ", "
        << tkdc_classifier->threshold_upper() << "]\n"
        << "  optimizations:   " << config.OptimizationSummary() << "\n"
        << "  cached Dx:       "
        << (tkdc_classifier->training_densities().empty() ? "no" : "yes")
        << "\n";
  }
  return out.str();
}

}  // namespace tkdc::api
