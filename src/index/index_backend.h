#ifndef TKDC_INDEX_INDEX_BACKEND_H_
#define TKDC_INDEX_INDEX_BACKEND_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace tkdc {

/// Which spatial-index structure backs the tree traversals. Stable on-disk
/// values (model files store them): never renumber, only append.
enum class IndexBackend : uint8_t {
  /// Axis-aligned k-d tree (paper Section 3.2). Tight boxes at low d;
  /// the min/max-corner bounds go slack as dimension grows.
  kKdTree = 0,
  /// Ball tree (centroid + radius metric tree). One centroid distance per
  /// node gives both bounds; radii stay meaningful at higher d where box
  /// diagonals do not.
  kBallTree = 1,
};

/// Human-readable backend name ("kdtree" / "balltree"), as accepted by the
/// CLI's --index flag and the TKDC_INDEX environment variable.
inline std::string IndexBackendName(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kKdTree:
      return "kdtree";
    case IndexBackend::kBallTree:
      return "balltree";
  }
  return "unknown";
}

/// Parses "kdtree" / "balltree" into a backend.
inline std::optional<IndexBackend> IndexBackendFromName(
    const std::string& name) {
  if (name == "kdtree") return IndexBackend::kKdTree;
  if (name == "balltree") return IndexBackend::kBallTree;
  return std::nullopt;
}

/// Resolves a TKDC_INDEX environment value: null (unset) means kdtree; a
/// recognized name selects that backend; anything else is a hard error
/// listing the allowed values — a typo'd TKDC_INDEX used to fall back to
/// kdtree silently, which made the CI ball-tree lane (and any user forcing
/// a backend) trivially easy to misconfigure without noticing.
inline IndexBackend IndexBackendFromEnvValue(const char* value) {
  if (value == nullptr) return IndexBackend::kKdTree;
  const auto parsed = IndexBackendFromName(value);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "unknown TKDC_INDEX value \"%s\" (allowed: kdtree balltree)\n",
                 value);
    std::abort();
  }
  return *parsed;
}

/// The process-wide default backend: kdtree, unless the TKDC_INDEX
/// environment variable names another (the CI ball-tree lane forces
/// "balltree" this way). Read once and cached; an unrecognized value
/// aborts with the allowed names (see IndexBackendFromEnvValue).
inline IndexBackend DefaultIndexBackend() {
  static const IndexBackend backend =
      IndexBackendFromEnvValue(std::getenv("TKDC_INDEX"));
  return backend;
}

}  // namespace tkdc

#endif  // TKDC_INDEX_INDEX_BACKEND_H_
