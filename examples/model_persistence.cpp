// Model persistence: train once, save to disk, reload in a fresh process
// (simulated here by scoping), and keep classifying — the deploy-time
// workflow the tkdc_cli tool wraps.
//
// Run: ./build/examples/model_persistence

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "data/generators.h"
#include "tkdc/classifier.h"
#include "tkdc_api.h"

int main() {
  const std::string model_path = "quickstart_model.tkdc";

  // --- Training process ---
  {
    tkdc::Rng rng(21);
    const tkdc::Mixture mixture =
        tkdc::RandomGaussianMixture(3, 4, 4.0, 0.4, 1.2, rng);
    const tkdc::Dataset data = mixture.Sample(30000, rng);
    tkdc::TkdcConfig config;
    config.p = 0.02;
    tkdc::TkdcClassifier classifier(config);
    classifier.Train(data);
    std::printf("trained: threshold t(0.02) = %.6g\n",
                classifier.threshold());
    tkdc::api::SaveOptions options;
    options.include_densities = false;
    const tkdc::Status saved =
        tkdc::api::SaveModel(model_path, classifier, data, options);
    if (!saved.ok()) {
      std::printf("save failed: %s\n", saved.message().c_str());
      return 1;
    }
    std::printf("model saved to %s\n", model_path.c_str());
  }

  // --- Serving process (nothing from training in scope) ---
  auto loaded = tkdc::api::LoadAny(model_path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }
  tkdc::DensityClassifier* classifier = loaded.value().single();
  std::printf("model loaded: %s, %zu points, %zu dims, threshold %.6g\n",
              classifier->name().c_str(), classifier->training_size(),
              classifier->dims(), classifier->threshold());

  tkdc::Rng probe_rng(22);
  size_t high = 0;
  const int kProbes = 1000;
  for (int i = 0; i < kProbes; ++i) {
    std::vector<double> q{probe_rng.Uniform(-6.0, 6.0),
                          probe_rng.Uniform(-6.0, 6.0),
                          probe_rng.Uniform(-6.0, 6.0)};
    if (classifier->Classify(q) == tkdc::Classification::kHigh) ++high;
  }
  std::printf("classified %d fresh probes: %zu HIGH, %zu LOW\n", kProbes,
              high, kProbes - high);
  std::remove(model_path.c_str());
  return 0;
}
