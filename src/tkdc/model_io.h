#ifndef TKDC_TKDC_MODEL_IO_H_
#define TKDC_TKDC_MODEL_IO_H_

#include <memory>
#include <string>

#include "data/dataset.h"
#include "kde/density_classifier.h"
#include "tkdc/classifier.h"
#include "tkdc/multiclass.h"

namespace tkdc {

/// Persists a trained classifier to `path` in the tkdc binary model format
/// (magic "TKDC", format version, algorithm tag, then a per-algorithm
/// section holding the parameters, thresholds, and training data). The
/// training data rides along so derived structures (grid cache, density
/// grid) can be rebuilt deterministically on load. The tree-backed sections
/// (tkdc/nocut, rkde, knn) additionally carry the spatial index itself —
/// backend tag, topology, and per-node geometry (k-d boxes or ball
/// centroids/radii) — so a load adopts the exact trained index instead of
/// re-running the build, and a ball-tree model restores as a ball tree
/// regardless of the loader's configured default backend.
///
/// Works for every DensityClassifier subclass in the repo (tkdc, nocut,
/// simple, rkde, binned, knn). `training_data` must be the dataset the
/// classifier was trained on. `include_densities` applies only to tkdc /
/// nocut models: pass false to drop the cached Dx vector (smaller file;
/// training_densities() will be empty after load). Returns false and fills
/// `*error` on failure.
bool SaveModel(const std::string& path, const DensityClassifier& classifier,
               const Dataset& training_data, bool include_densities,
               std::string* error);

/// Loads a model saved by SaveModel when it is a tkdc (or nocut) model.
/// Returns nullptr and fills `*error` on malformed input or when the file
/// holds a different algorithm — use LoadAnyModel for that.
/// The returned classifier is fully trained: ready to Classify() without
/// touching the bootstrap.
std::unique_ptr<TkdcClassifier> LoadModel(const std::string& path,
                                          std::string* error);

/// Loads a model of any algorithm, dispatching on the stored tag. The
/// result's runtime type matches name():
/// "tkdc", "nocut", "simple", "rkde", "binned", or "knn". Multi-class
/// container files are rejected with an error directing callers to
/// LoadMultiClassModel — the container is not a DensityClassifier.
std::unique_ptr<DensityClassifier> LoadAnyModel(const std::string& path,
                                                std::string* error);

/// Persists a trained multi-class classifier as a single model file:
/// algorithm tag 7 (multi-class container) holding K, the class labels,
/// the prior table, and then K nested tkdc sections — each the exact
/// per-class payload SaveModel would write, so the per-class readers (and
/// their validation) are shared verbatim. `include_densities` applies to
/// every per-class section. Returns false and fills `*error` on failure.
bool SaveMultiClassModel(const std::string& path,
                         const MultiClassClassifier& classifier,
                         bool include_densities, std::string* error);

/// Loads a multi-class container saved by SaveMultiClassModel. Rejects
/// files holding a single-class model (use LoadModel / LoadAnyModel), any
/// structural corruption, and cross-class inconsistencies (mismatched
/// dims or kernel type between sections, bad priors, duplicate labels) —
/// the same invariants MultiClassClassifier::RestoreParts enforces.
std::unique_ptr<MultiClassClassifier> LoadMultiClassModel(
    const std::string& path, std::string* error);

/// What a model file holds, decided from the header alone (magic, format
/// version, algorithm tag) without parsing the payload — callers use this
/// to dispatch between LoadAnyModel and LoadMultiClassModel cheaply.
enum class ModelKind : uint8_t {
  /// Not a readable tkdc model file (error is filled in).
  kInvalid = 0,
  /// A single DensityClassifier of any algorithm.
  kSingleClass,
  /// A multi-class container (tag 7).
  kMultiClass,
};

ModelKind ProbeModelKind(const std::string& path, std::string* error);

/// The model format version SaveModel writes and the only one the loaders
/// (and ProbeModelKind) accept; a file carrying any other version word is
/// rejected with an error naming the version found. In this layout every
/// tree-backed section closes with an SoA leaf-layout descriptor (the SoA
/// mirror itself is derived state, rebuilt on load — the descriptor only
/// cross-checks the rebuild), and every tkdc/nocut section (including
/// those nested in a multi-class container) ends with a trailer holding
/// the resolved error-budget table and the coreset metadata (enabled flag,
/// original training-set size, achieved error, halvings). The serialized
/// training data of a compressed model IS the coreset; the budget table is
/// validated against the config's own resolution, making a checksum-fixed
/// corruption of any share a clean load error.
inline constexpr uint32_t kModelFormatVersion = 6;

}  // namespace tkdc

#endif  // TKDC_TKDC_MODEL_IO_H_
