#include "tkdc/model_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <vector>

#include "baselines/binned_kde.h"
#include "baselines/knn.h"
#include "baselines/nocut.h"
#include "baselines/rkde.h"
#include "baselines/simple_kde.h"
#include "common/macros.h"
#include "index/spatial_index.h"

namespace tkdc {
namespace {

constexpr char kMagic[4] = {'T', 'K', 'D', 'C'};

// Algorithm tags (the first payload word). Stable on-disk values: never
// renumber, only append.
constexpr uint32_t kTagTkdc = 1;
constexpr uint32_t kTagNocut = 2;
constexpr uint32_t kTagSimple = 3;
constexpr uint32_t kTagRkde = 4;
constexpr uint32_t kTagBinned = 5;
constexpr uint32_t kTagKnn = 6;
// Multi-class container: K, labels, priors, then K nested tkdc sections.
constexpr uint32_t kTagMultiClass = 7;

// The config block and the index section each keep a word that once
// selected the spatial index. The k-d tree is the only index, so both are
// written as 0 and every other value is refused on load.
constexpr uint32_t kKdTreeIndexWord = 0;

// Guard absurd sizes before allocating (corrupt headers).
constexpr uint64_t kMaxElements = uint64_t{1} << 34;
constexpr uint64_t kMaxLabelLength = 1 << 16;

// Streaming writer with a running FNV-1a checksum over the payload.
class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      checksum_ ^= bytes[i];
      checksum_ *= 0x100000001b3ULL;
    }
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
  }

  void U8(uint8_t v) { Bytes(&v, sizeof(v)); }
  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void DoubleVec(std::span<const double> v) {
    U64(v.size());
    if (!v.empty()) Bytes(v.data(), v.size() * sizeof(double));
  }
  void Str(const std::string& s) {
    U64(s.size());
    if (!s.empty()) Bytes(s.data(), s.size());
  }

  uint64_t checksum() const { return checksum_; }

 private:
  std::ostream& out_;
  uint64_t checksum_ = 0xcbf29ce484222325ULL;
};

// Streaming reader mirroring Writer; every method returns false on
// truncation so corruption surfaces as a clean error.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  bool Bytes(void* data, size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!in_) return false;
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      checksum_ ^= bytes[i];
      checksum_ *= 0x100000001b3ULL;
    }
    return true;
  }

  bool U8(uint8_t* v) { return Bytes(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Bytes(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Bytes(v, sizeof(*v)); }
  bool F64(double* v) { return Bytes(v, sizeof(*v)); }
  bool DoubleVec(std::vector<double>* v, uint64_t max_size) {
    uint64_t size = 0;
    if (!U64(&size)) return false;
    if (size > max_size) return false;  // Corrupt size field.
    v->resize(size);
    if (size == 0) return true;
    return Bytes(v->data(), size * sizeof(double));
  }
  bool Str(std::string* s, uint64_t max_size) {
    uint64_t size = 0;
    if (!U64(&size)) return false;
    if (size > max_size) return false;  // Corrupt size field.
    s->resize(size);
    if (size == 0) return true;
    return Bytes(s->data(), size);
  }

  uint64_t checksum() const { return checksum_; }

 private:
  std::istream& in_;
  uint64_t checksum_ = 0xcbf29ce484222325ULL;
};

// Config block: every TkdcConfig field that shapes the trained model.
void WriteConfig(Writer& w, const TkdcConfig& config) {
  w.F64(config.p);
  w.F64(config.epsilon);
  w.F64(config.delta);
  w.F64(config.bandwidth_scale);
  w.U32(static_cast<uint32_t>(config.kernel));
  w.U32(static_cast<uint32_t>(config.bandwidth_rule));
  w.U8(config.use_threshold_rule ? 1 : 0);
  w.U8(config.use_tolerance_rule ? 1 : 0);
  w.U8(config.use_grid ? 1 : 0);
  w.U64(config.grid_max_dims);
  w.U32(static_cast<uint32_t>(config.split_rule));
  w.U32(static_cast<uint32_t>(config.axis_rule));
  w.U64(config.leaf_size);
  w.U64(config.r0);
  w.U64(config.s0);
  w.F64(config.h_backoff);
  w.F64(config.h_buffer);
  w.F64(config.h_growth);
  w.U64(config.seed);
  w.U32(kKdTreeIndexWord);
  w.U8(config.fast_math_leaf ? 1 : 0);
  w.F64(config.coreset_epsilon);
}

// Load error for a nonzero index word in `where`.
std::string UnsupportedIndexError(const std::string& where, uint32_t word) {
  return where + " names spatial index " + std::to_string(word) +
         "; only the k-d tree (0) loads (1 was the ball tree, which was "
         "removed)";
}

// Sets `*why` on failure: an unsupported index word, or else a truncated
// or corrupt block.
bool ReadConfig(Reader& r, TkdcConfig* config, std::string* why) {
  *why = "truncated or corrupt config block";
  uint32_t kernel = 0, bandwidth_rule = 0, split_rule = 0, axis_rule = 0;
  uint32_t index_word = 0;
  uint8_t threshold_rule = 0, tolerance_rule = 0, grid = 0, fast_math_leaf = 0;
  uint64_t grid_max_dims = 0, leaf_size = 0, r0 = 0, s0 = 0, seed = 0;
  if (!r.F64(&config->p) || !r.F64(&config->epsilon) ||
      !r.F64(&config->delta) || !r.F64(&config->bandwidth_scale) ||
      !r.U32(&kernel) || !r.U32(&bandwidth_rule) || !r.U8(&threshold_rule) ||
      !r.U8(&tolerance_rule) || !r.U8(&grid) || !r.U64(&grid_max_dims) ||
      !r.U32(&split_rule) || !r.U32(&axis_rule) || !r.U64(&leaf_size) ||
      !r.U64(&r0) || !r.U64(&s0) || !r.F64(&config->h_backoff) ||
      !r.F64(&config->h_buffer) || !r.F64(&config->h_growth) ||
      !r.U64(&seed) || !r.U32(&index_word) || !r.U8(&fast_math_leaf) ||
      !r.F64(&config->coreset_epsilon)) {
    return false;
  }
  if (index_word != kKdTreeIndexWord) {
    *why = UnsupportedIndexError("config block", index_word);
    return false;
  }
  if (kernel > 3 || bandwidth_rule > 1 || split_rule > 2 || axis_rule > 1 ||
      leaf_size == 0) {
    return false;
  }
  config->kernel = static_cast<KernelType>(kernel);
  config->fast_math_leaf = fast_math_leaf != 0;
  config->bandwidth_rule = static_cast<BandwidthRule>(bandwidth_rule);
  config->use_threshold_rule = threshold_rule != 0;
  config->use_tolerance_rule = tolerance_rule != 0;
  config->use_grid = grid != 0;
  config->grid_max_dims = grid_max_dims;
  config->split_rule = static_cast<SplitRule>(split_rule);
  config->axis_rule = static_cast<SplitAxisRule>(axis_rule);
  config->leaf_size = leaf_size;
  config->r0 = r0;
  config->s0 = s0;
  config->seed = seed;
  // Full range validation (rates, growth factors, and the error-budget
  // decomposition — a negative or over-epsilon coreset share must fail the
  // load, not abort in a CHECK downstream). Every legitimately saved model
  // passes: training validated the same config.
  return config->Validate().ok();
}

bool ValidRate(double p) { return p > 0.0 && p < 1.0; }

bool ValidBandwidths(const std::vector<double>& bandwidths) {
  for (double h : bandwidths) {
    if (!(h > 0.0)) return false;
  }
  return true;
}

// Shared trailer of every section: the raw training values. The shape
// (dims, n) is read by the caller beforehand so sizes can be validated.
// Non-finite coordinates are rejected here, before they can reach an index
// build (k-d tree splits on coordinate comparisons, so a NaN would poison
// the partition invariants rather than fail loudly).
bool ReadValues(Reader& r, uint64_t dims, uint64_t n,
                std::vector<double>* values) {
  if (!r.DoubleVec(values, dims * n) || values->size() != dims * n) {
    return false;
  }
  for (double v : *values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

// --- Spatial-index section ----------------------------------------------
//
// Shared trailer of every tree-backed section: the index word (always
// kKdTreeIndexWord), node topology, the reordered-to-original row
// permutation, and the k-d tree's flat box array (node i: min[d] then
// max[d]), written and adopted as is. The raw training values
// already precede this section, so the reordered point storage is
// reconstructed from the permutation rather than stored twice. An SoA
// leaf-layout descriptor (lane width, leaf count, total padded doubles)
// closes the section; the SoA mirror itself is derived from the reordered
// points and is rebuilt on load, so the descriptor is a cross-check, not
// storage.
void WriteIndexSection(Writer& w, const SpatialIndex& index) {
  w.U8(kKdTreeIndexWord);
  w.U64(index.num_nodes());
  for (size_t i = 0; i < index.size(); ++i) {
    w.U64(index.OriginalIndex(i));
  }
  for (size_t i = 0; i < index.num_nodes(); ++i) {
    const IndexNode& node = index.node(i);
    w.U64(node.begin);
    w.U64(node.end);
    w.U32(static_cast<uint32_t>(node.left));
    w.U32(static_cast<uint32_t>(node.right));
    w.U8(node.split_axis);
  }
  w.DoubleVec(index.geometry());
  // SoA descriptor. Lane width is an architectural constant of the
  // format: a file written here must rebuild to exactly this layout.
  w.U64(kSimdBlockWidth);
  w.U64(index.num_soa_leaves());
  w.U64(index.num_soa_doubles());
}

// Validates the serialized topology: node 0 must cover every reordered row,
// children must partition their parent contiguously and sit strictly after
// it (so the arena is in DFS order and acyclic), and every non-root node
// must be referenced by exactly one parent. Anything structurally valid is
// safe to hand to the restore constructors, whose TKDC_CHECKs then only
// guard programmer errors, not file contents.
bool ValidTopology(const std::vector<IndexNode>& nodes, uint64_t n,
                   uint64_t dims) {
  const size_t num_nodes = nodes.size();
  if (num_nodes == 0 || nodes[0].begin != 0 || nodes[0].end != n) return false;
  std::vector<uint8_t> referenced(num_nodes, 0);
  for (size_t i = 0; i < num_nodes; ++i) {
    const IndexNode& node = nodes[i];
    if (node.begin >= node.end || node.end > n) return false;
    if (node.split_axis >= dims) return false;
    const bool has_left = node.left >= 0;
    const bool has_right = node.right >= 0;
    if (has_left != has_right) return false;
    if (!has_left) continue;
    const auto left = static_cast<size_t>(node.left);
    const auto right = static_cast<size_t>(node.right);
    if (left <= i || right <= i || left >= num_nodes || right >= num_nodes ||
        left == right) {
      return false;
    }
    if (referenced[left] != 0 || referenced[right] != 0) return false;
    referenced[left] = referenced[right] = 1;
    if (nodes[left].begin != node.begin || nodes[left].end != nodes[right].begin ||
        nodes[right].end != node.end) {
      return false;
    }
  }
  for (size_t i = 1; i < num_nodes; ++i) {
    if (referenced[i] == 0) return false;
  }
  return true;
}

bool FiniteVec(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Reads and validates an index section over `data`, reconstructing the
// reordered point storage from the stored permutation. `options` supplies
// the build parameters recorded elsewhere in the file (leaf size, split
// rules). Returns nullptr with `*why` set on any structural violation.
std::unique_ptr<const SpatialIndex> ReadIndexSection(Reader& r,
                                                     const Dataset& data,
                                                     IndexOptions options,
                                                     std::string* why) {
  const uint64_t n = data.size();
  const uint64_t dims = data.dims();
  uint8_t index_word = 0;
  uint64_t num_nodes = 0;
  if (!r.U8(&index_word) || !r.U64(&num_nodes)) {
    *why = "truncated index header";
    return nullptr;
  }
  if (index_word != kKdTreeIndexWord) {
    *why = UnsupportedIndexError("index section", index_word);
    return nullptr;
  }
  // A leaf holds >= 1 rows, so a binary arena can never exceed 2n - 1.
  if (num_nodes == 0 || num_nodes > 2 * n) {
    *why = "corrupt index header";
    return nullptr;
  }

  std::vector<size_t> original_index(n);
  std::vector<uint8_t> seen(n, 0);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t row = 0;
    if (!r.U64(&row)) {
      *why = "truncated index permutation";
      return nullptr;
    }
    if (row >= n || seen[row] != 0) {
      *why = "index permutation is not a bijection";
      return nullptr;
    }
    seen[row] = 1;
    original_index[i] = row;
  }

  std::vector<IndexNode> nodes(num_nodes);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    uint64_t begin = 0, end = 0;
    uint32_t left = 0, right = 0;
    uint8_t split_axis = 0;
    if (!r.U64(&begin) || !r.U64(&end) || !r.U32(&left) || !r.U32(&right) ||
        !r.U8(&split_axis)) {
      *why = "truncated index topology";
      return nullptr;
    }
    nodes[i].begin = begin;
    nodes[i].end = end;
    nodes[i].left = static_cast<int32_t>(left);
    nodes[i].right = static_cast<int32_t>(right);
    nodes[i].split_axis = split_axis;
  }
  if (!ValidTopology(nodes, n, dims)) {
    *why = "corrupt index topology";
    return nullptr;
  }

  std::vector<double> reordered(n * dims);
  for (uint64_t i = 0; i < n; ++i) {
    const auto row = data.Row(original_index[i]);
    std::copy(row.begin(), row.end(), reordered.begin() + i * dims);
  }

  std::vector<double> geometry;
  if (!r.DoubleVec(&geometry, 2 * dims * num_nodes) ||
      geometry.size() != 2 * dims * num_nodes || !FiniteVec(geometry)) {
    *why = "truncated or corrupt k-d box geometry";
    return nullptr;
  }
  for (uint64_t i = 0; i < num_nodes; ++i) {
    const double* min = geometry.data() + 2 * dims * i;
    const double* max = min + dims;
    for (uint64_t j = 0; j < dims; ++j) {
      if (min[j] > max[j]) {
        *why = "inverted k-d bounding box";
        return nullptr;
      }
    }
  }
  auto index = std::make_unique<const SpatialIndex>(
      dims, std::move(reordered), std::move(original_index), std::move(nodes),
      std::move(geometry), std::move(options));
  // SoA descriptor: the restore constructor just rebuilt the mirror from
  // the reordered points, so the stored layout must agree exactly — a
  // mismatch means the file was written by an incompatible layout (or
  // corrupted) and leaf scans would disagree with the writer.
  uint64_t lane_width = 0, soa_leaves = 0, soa_doubles = 0;
  if (!r.U64(&lane_width) || !r.U64(&soa_leaves) || !r.U64(&soa_doubles)) {
    *why = "truncated SoA descriptor";
    return nullptr;
  }
  if (lane_width != kSimdBlockWidth ||
      soa_leaves != index->num_soa_leaves() ||
      soa_doubles != index->num_soa_doubles()) {
    *why = "SoA descriptor does not match the rebuilt index layout";
    return nullptr;
  }
  return index;
}

uint32_t TagFor(const DensityClassifier& classifier) {
  const std::string name = classifier.name();
  if (name == "tkdc") return kTagTkdc;
  if (name == "nocut") return kTagNocut;
  if (name == "simple") return kTagSimple;
  if (name == "rkde") return kTagRkde;
  if (name == "binned") return kTagBinned;
  if (name == "knn") return kTagKnn;
  return 0;
}

// The tkdc/nocut section, also nested once per class in the multi-class
// container.
void WriteTkdcSection(Writer& w, const TkdcClassifier& c,
                      const Dataset& training_data, bool include_densities) {
  WriteConfig(w, c.config());
  w.U64(training_data.dims());
  w.U64(training_data.size());
  w.DoubleVec(c.kernel().bandwidths());
  w.F64(c.threshold_lower());
  w.F64(c.threshold_upper());
  w.F64(c.threshold());
  w.U8(include_densities ? 1 : 0);
  if (include_densities) {
    w.DoubleVec(c.training_densities());
  }
  w.DoubleVec(training_data.values());
  WriteIndexSection(w, c.tree());
  // Trailer: the resolved error-budget table and the coreset metadata.
  // The budget is derived state (the reader re-resolves it from the
  // config and demands exact agreement), stored so the breakdown is
  // inspectable without executing any tkdc code.
  const ErrorBudget& budget = c.error_budget();
  w.F64(budget.total);
  w.F64(budget.traversal);
  w.F64(budget.coreset);
  w.F64(budget.fast_math);
  const CoresetInfo& coreset = c.coreset_info();
  w.U8(coreset.enabled ? 1 : 0);
  w.U64(coreset.original_size);
  w.F64(coreset.achieved_error);
  w.U32(coreset.halvings);
}

std::unique_ptr<TkdcClassifier> ReadTkdcSection(Reader& r, bool nocut,
                                                const std::string& path,
                                                std::string* error) {
  TkdcConfig config;
  std::string why;
  if (!ReadConfig(r, &config, &why)) {
    *error = path + ": " + why;
    return nullptr;
  }
  uint64_t dims = 0, n = 0;
  if (!r.U64(&dims) || !r.U64(&n) || dims == 0 || n < 2) {
    *error = path + ": corrupt shape header";
    return nullptr;
  }
  if (dims > kMaxElements || n > kMaxElements || dims * n > kMaxElements) {
    *error = path + ": implausible model dimensions";
    return nullptr;
  }
  std::vector<double> bandwidths;
  double threshold_lower = 0, threshold_upper = 0, threshold = 0;
  uint8_t has_densities = 0;
  std::vector<double> densities;
  std::vector<double> values;
  if (!r.DoubleVec(&bandwidths, dims) || bandwidths.size() != dims ||
      !r.F64(&threshold_lower) || !r.F64(&threshold_upper) ||
      !r.F64(&threshold) || !r.U8(&has_densities)) {
    *error = path + ": truncated model body";
    return nullptr;
  }
  if (has_densities != 0 &&
      (!r.DoubleVec(&densities, n) || densities.size() != n)) {
    *error = path + ": truncated density block";
    return nullptr;
  }
  if (!ReadValues(r, dims, n, &values)) {
    *error = path + ": truncated data block";
    return nullptr;
  }
  if (!ValidBandwidths(bandwidths)) {
    *error = path + ": invalid bandwidths";
    return nullptr;
  }
  Dataset data(dims, std::move(values));
  std::unique_ptr<const SpatialIndex> index =
      ReadIndexSection(r, data, config.MakeIndexOptions(), &why);
  if (index == nullptr) {
    *error = path + ": " + why;
    return nullptr;
  }
  ErrorBudget budget;
  CoresetInfo coreset;
  uint8_t enabled = 0;
  uint32_t halvings = 0;
  if (!r.F64(&budget.total) || !r.F64(&budget.traversal) ||
      !r.F64(&budget.coreset) || !r.F64(&budget.fast_math) ||
      !r.U8(&enabled) || !r.U64(&coreset.original_size) ||
      !r.F64(&coreset.achieved_error) || !r.U32(&halvings)) {
    *error = path + ": truncated budget/coreset trailer";
    return nullptr;
  }
  coreset.enabled = enabled != 0;
  coreset.halvings = halvings;
  // The shares are derived from the config, so the table must agree with
  // the config's own resolution bit-for-bit; any checksum-fixed edit of a
  // share (negative, non-summing, reshuffled) fails here. ReadConfig
  // already validated the config, so ResolveBudget cannot CHECK-fail.
  const ErrorBudget resolved = config.ResolveBudget();
  if (!budget.Validate().ok() || budget.total != resolved.total ||
      budget.traversal != resolved.traversal ||
      budget.coreset != resolved.coreset ||
      budget.fast_math != resolved.fast_math) {
    *error = path + ": error-budget table does not match the config";
    return nullptr;
  }
  if (coreset.enabled) {
    // The serialized training data IS the coreset: a compressed model must
    // claim an original set at least as large, with a finite spent error
    // and at least one halving behind the size reduction.
    if (coreset.original_size < n || !std::isfinite(coreset.achieved_error) ||
        coreset.achieved_error < 0.0 || coreset.halvings == 0) {
      *error = path + ": corrupt coreset metadata";
      return nullptr;
    }
  } else if (coreset.original_size != n || coreset.achieved_error != 0.0 ||
             coreset.halvings != 0) {
    *error = path + ": corrupt coreset metadata";
    return nullptr;
  }
  std::unique_ptr<TkdcClassifier> classifier =
      nocut ? std::make_unique<NocutClassifier>(config)
            : std::make_unique<TkdcClassifier>(config);
  classifier->Restore(data, bandwidths, threshold_lower, threshold_upper,
                      threshold, std::move(densities), std::move(index),
                      coreset);
  return classifier;
}

// The multi-class container: shape (K), the label/prior table, then K
// nested tkdc sections written by the exact single-class writer — the
// per-class payloads are byte-identical to what SaveModel would emit, so
// the section readers (and every validation they perform) are shared.
bool WriteMultiClassSection(Writer& w, const MultiClassClassifier& c,
                            bool include_densities, std::string* error) {
  const size_t k = c.num_classes();
  w.U64(k);
  for (size_t i = 0; i < k; ++i) {
    w.Str(c.class_labels()[i]);
    w.F64(c.priors()[i]);
  }
  for (size_t i = 0; i < k; ++i) {
    const TkdcClassifier& part = c.class_part(i);
    Dataset training_data(part.dims());
    if (!part.ExportTrainingData(&training_data)) {
      *error = "class " + c.class_labels()[i] +
               " cannot export its training data";
      return false;
    }
    WriteTkdcSection(w, part, training_data, include_densities);
  }
  return true;
}

std::unique_ptr<MultiClassClassifier> ReadMultiClassSection(
    Reader& r, const std::string& path, std::string* error) {
  uint64_t k = 0;
  if (!r.U64(&k)) {
    *error = path + ": truncated multi-class header";
    return nullptr;
  }
  if (k < 2 || k > MultiClassClassifier::kMaxClasses) {
    *error = path + ": corrupt multi-class header";
    return nullptr;
  }
  std::vector<std::string> labels(k);
  std::vector<double> priors(k);
  for (uint64_t i = 0; i < k; ++i) {
    if (!r.Str(&labels[i], kMaxLabelLength) || !r.F64(&priors[i])) {
      *error = path + ": truncated multi-class label table";
      return nullptr;
    }
  }
  std::vector<std::unique_ptr<TkdcClassifier>> parts;
  parts.reserve(k);
  for (uint64_t i = 0; i < k; ++i) {
    std::unique_ptr<TkdcClassifier> part =
        ReadTkdcSection(r, /*nocut=*/false, path, error);
    if (part == nullptr) return nullptr;
    parts.push_back(std::move(part));
  }
  // RestoreParts re-validates everything the label/prior table and the
  // sections claim: distinct labels, priors summing to 1, equal dims and
  // kernel type across sections. A checksum-fixed corruption of the prior
  // table therefore still fails cleanly here.
  auto classifier =
      std::make_unique<MultiClassClassifier>(parts[0]->config());
  Status status = classifier->RestoreParts(std::move(parts), std::move(labels),
                                           std::move(priors));
  if (!status.ok()) {
    *error = path + ": " + status.message();
    return nullptr;
  }
  return classifier;
}

void WriteSimpleSection(Writer& w, const SimpleKdeClassifier& c,
                        const Dataset& training_data) {
  w.F64(c.options().p);
  w.U32(static_cast<uint32_t>(c.options().kernel));
  w.U64(training_data.dims());
  w.U64(training_data.size());
  w.DoubleVec(c.kernel().bandwidths());
  w.F64(c.threshold());
  w.DoubleVec(training_data.values());
}

std::unique_ptr<DensityClassifier> ReadSimpleSection(Reader& r,
                                                     const std::string& path,
                                                     std::string* error) {
  SimpleKdeOptions options;
  uint32_t kernel = 0;
  uint64_t dims = 0, n = 0;
  std::vector<double> bandwidths, values;
  double threshold = 0;
  if (!r.F64(&options.p) || !r.U32(&kernel) || !r.U64(&dims) || !r.U64(&n)) {
    *error = path + ": truncated model body";
    return nullptr;
  }
  if (!ValidRate(options.p) || kernel > 3 || dims == 0 || n < 2 ||
      dims > kMaxElements || n > kMaxElements || dims * n > kMaxElements) {
    *error = path + ": corrupt simple-kde section";
    return nullptr;
  }
  options.kernel = static_cast<KernelType>(kernel);
  if (!r.DoubleVec(&bandwidths, dims) || bandwidths.size() != dims ||
      !r.F64(&threshold) || !ReadValues(r, dims, n, &values) ||
      !ValidBandwidths(bandwidths)) {
    *error = path + ": truncated or corrupt simple-kde section";
    return nullptr;
  }
  Dataset data(dims, std::move(values));
  auto classifier = std::make_unique<SimpleKdeClassifier>(options);
  classifier->Restore(data, bandwidths, threshold);
  return classifier;
}

void WriteRkdeSection(Writer& w, const RkdeClassifier& c,
                      const Dataset& training_data) {
  WriteConfig(w, c.options().base);
  w.U64(training_data.dims());
  w.U64(training_data.size());
  w.DoubleVec(c.model().kernel->bandwidths());
  w.F64(c.model().radius_sq);
  w.F64(c.threshold());
  w.DoubleVec(training_data.values());
  WriteIndexSection(w, *c.model().tree);
}

std::unique_ptr<DensityClassifier> ReadRkdeSection(Reader& r,
                                                   const std::string& path,
                                                   std::string* error) {
  RkdeOptions options;
  std::string why;
  if (!ReadConfig(r, &options.base, &why)) {
    *error = path + ": " + why;
    return nullptr;
  }
  uint64_t dims = 0, n = 0;
  std::vector<double> bandwidths, values;
  double radius_sq = 0, threshold = 0;
  if (!r.U64(&dims) || !r.U64(&n) || dims == 0 || n < 2 ||
      dims > kMaxElements || n > kMaxElements || dims * n > kMaxElements) {
    *error = path + ": corrupt shape header";
    return nullptr;
  }
  if (!r.DoubleVec(&bandwidths, dims) || bandwidths.size() != dims ||
      !r.F64(&radius_sq) || !r.F64(&threshold) ||
      !ReadValues(r, dims, n, &values) || !ValidBandwidths(bandwidths) ||
      !(radius_sq > 0.0)) {
    *error = path + ": truncated or corrupt rkde section";
    return nullptr;
  }
  Dataset data(dims, std::move(values));
  std::unique_ptr<const SpatialIndex> index =
      ReadIndexSection(r, data, options.base.MakeIndexOptions(), &why);
  if (index == nullptr) {
    *error = path + ": " + why;
    return nullptr;
  }
  auto classifier = std::make_unique<RkdeClassifier>(options);
  classifier->Restore(data, bandwidths, radius_sq, threshold,
                      std::move(index));
  return classifier;
}

void WriteBinnedSection(Writer& w, const BinnedKdeClassifier& c,
                        const Dataset& training_data) {
  w.F64(c.options().p);
  w.U32(static_cast<uint32_t>(c.options().kernel));
  w.U64(c.options().grid_size_override);
  w.F64(c.options().truncation_radius);
  w.U64(training_data.dims());
  w.U64(training_data.size());
  w.DoubleVec(c.model().kernel->bandwidths());
  w.F64(c.threshold());
  w.DoubleVec(training_data.values());
}

std::unique_ptr<DensityClassifier> ReadBinnedSection(Reader& r,
                                                     const std::string& path,
                                                     std::string* error) {
  BinnedKdeOptions options;
  uint32_t kernel = 0;
  uint64_t grid_size_override = 0;
  uint64_t dims = 0, n = 0;
  std::vector<double> bandwidths, values;
  double threshold = 0;
  if (!r.F64(&options.p) || !r.U32(&kernel) || !r.U64(&grid_size_override) ||
      !r.F64(&options.truncation_radius) || !r.U64(&dims) || !r.U64(&n)) {
    *error = path + ": truncated model body";
    return nullptr;
  }
  if (!ValidRate(options.p) || kernel > 3 ||
      !(options.truncation_radius > 0.0) || dims == 0 || dims > 4 || n < 2 ||
      n > kMaxElements || dims * n > kMaxElements) {
    *error = path + ": corrupt binned-kde section";
    return nullptr;
  }
  options.kernel = static_cast<KernelType>(kernel);
  options.grid_size_override = grid_size_override;
  if (!r.DoubleVec(&bandwidths, dims) || bandwidths.size() != dims ||
      !r.F64(&threshold) || !ReadValues(r, dims, n, &values) ||
      !ValidBandwidths(bandwidths)) {
    *error = path + ": truncated or corrupt binned-kde section";
    return nullptr;
  }
  Dataset data(dims, std::move(values));
  auto classifier = std::make_unique<BinnedKdeClassifier>(options);
  classifier->Restore(data, bandwidths, threshold);
  return classifier;
}

void WriteKnnSection(Writer& w, const KnnClassifier& c,
                     const Dataset& training_data) {
  w.F64(c.options().p);
  w.U64(c.options().k);
  w.U64(c.options().leaf_size);
  w.U64(training_data.dims());
  w.U64(training_data.size());
  w.F64(c.threshold());
  w.DoubleVec(training_data.values());
  WriteIndexSection(w, *c.model().tree);
}

std::unique_ptr<DensityClassifier> ReadKnnSection(Reader& r,
                                                  const std::string& path,
                                                  std::string* error) {
  KnnOptions options;
  uint64_t k = 0, leaf_size = 0;
  uint64_t dims = 0, n = 0;
  std::vector<double> values;
  double threshold = 0;
  if (!r.F64(&options.p) || !r.U64(&k) || !r.U64(&leaf_size) ||
      !r.U64(&dims) || !r.U64(&n) || !r.F64(&threshold)) {
    *error = path + ": truncated model body";
    return nullptr;
  }
  if (!ValidRate(options.p) || k == 0 || leaf_size == 0 || dims == 0 ||
      n < 2 || dims > kMaxElements || n > kMaxElements ||
      dims * n > kMaxElements) {
    *error = path + ": corrupt knn section";
    return nullptr;
  }
  options.k = k;
  options.leaf_size = leaf_size;
  if (!ReadValues(r, dims, n, &values)) {
    *error = path + ": truncated data block";
    return nullptr;
  }
  Dataset data(dims, std::move(values));
  IndexOptions index_options;
  index_options.leaf_size = options.leaf_size;
  std::string why;
  std::unique_ptr<const SpatialIndex> index =
      ReadIndexSection(r, data, std::move(index_options), &why);
  if (index == nullptr) {
    *error = path + ": " + why;
    return nullptr;
  }
  auto classifier = std::make_unique<KnnClassifier>(options);
  classifier->Restore(data, threshold, std::move(index));
  return classifier;
}

// The loaders read exactly kModelFormatVersion; any other version word is
// rejected with the version found and the one supported.
bool SupportedVersion(const std::string& path, uint32_t version,
                      std::string* error) {
  if (version == kModelFormatVersion) return true;
  *error = path + ": unsupported model format version " +
           std::to_string(version) + " (this build reads version " +
           std::to_string(kModelFormatVersion) + " only)";
  return false;
}

// Shared front half of every load path: slurps the file, validates magic
// and version, and verifies the checksum over the whole payload BEFORE a
// single field is parsed — a flipped byte must never reach the model
// builders (where, say, a corrupted coordinate would fail an index-build
// invariant instead of producing a clean load error). On success fills the
// payload bytes and the stored checksum (which the section parsers
// re-derive as their consumed-everything witness).
bool LoadVerifiedPayload(const std::string& path, std::string* payload,
                         uint64_t* stored_checksum, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string buffer((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

  constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint32_t);
  constexpr size_t kTrailerSize = sizeof(uint64_t);
  if (buffer.size() < kHeaderSize + kTrailerSize) {
    *error = path + ": truncated model file";
    return false;
  }
  if (std::memcmp(buffer.data(), kMagic, sizeof(kMagic)) != 0) {
    *error = path + ": not a tkdc model file";
    return false;
  }
  uint32_t version = 0;
  std::memcpy(&version, buffer.data() + sizeof(kMagic), sizeof(version));
  if (!SupportedVersion(path, version, error)) return false;

  const size_t payload_size = buffer.size() - kHeaderSize - kTrailerSize;
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(buffer.data()) + kHeaderSize;
  uint64_t computed = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < payload_size; ++i) {
    computed ^= bytes[i];
    computed *= 0x100000001b3ULL;
  }
  std::memcpy(stored_checksum, buffer.data() + buffer.size() - kTrailerSize,
              sizeof(*stored_checksum));
  if (computed != *stored_checksum) {
    *error = path + ": checksum mismatch (file corrupted)";
    return false;
  }
  *payload = buffer.substr(kHeaderSize, payload_size);
  return true;
}

std::unique_ptr<DensityClassifier> LoadImpl(const std::string& path,
                                            std::string* error) {
  TKDC_CHECK(error != nullptr);
  std::string payload;
  uint64_t stored_checksum = 0;
  if (!LoadVerifiedPayload(path, &payload, &stored_checksum, error)) {
    return nullptr;
  }

  std::istringstream payload_in(std::move(payload));
  Reader r(payload_in);
  uint32_t tag = 0;
  if (!r.U32(&tag)) {
    *error = path + ": truncated algorithm tag";
    return nullptr;
  }
  std::unique_ptr<DensityClassifier> classifier;
  switch (tag) {
    case kTagTkdc:
      classifier = ReadTkdcSection(r, /*nocut=*/false, path, error);
      break;
    case kTagNocut:
      classifier = ReadTkdcSection(r, /*nocut=*/true, path, error);
      break;
    case kTagSimple:
      classifier = ReadSimpleSection(r, path, error);
      break;
    case kTagRkde:
      classifier = ReadRkdeSection(r, path, error);
      break;
    case kTagBinned:
      classifier = ReadBinnedSection(r, path, error);
      break;
    case kTagKnn:
      classifier = ReadKnnSection(r, path, error);
      break;
    case kTagMultiClass:
      *error = path +
               ": holds a multi-class model (use LoadMultiClassModel)";
      return nullptr;
    default:
      *error = path + ": unknown algorithm tag";
      return nullptr;
  }
  if (classifier == nullptr) return nullptr;

  // The section parser must consume the payload exactly; the streaming
  // checksum doubles as the consumed-everything witness (it only matches
  // the stored value if every payload byte passed through the Reader).
  if (r.checksum() != stored_checksum) {
    *error = path + ": malformed model payload (trailing bytes)";
    return nullptr;
  }
  return classifier;
}

}  // namespace

bool SaveModel(const std::string& path, const DensityClassifier& classifier,
               const Dataset& training_data, bool include_densities,
               std::string* error) {
  TKDC_CHECK(error != nullptr);
  if (!classifier.trained()) {
    *error = "classifier is not trained";
    return false;
  }
  const uint32_t tag = TagFor(classifier);
  if (tag == 0) {
    *error = "unsupported algorithm: " + classifier.name();
    return false;
  }
  if (classifier.dims() != training_data.dims()) {
    *error = "training_data does not match the classifier's model";
    return false;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = kModelFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));

  Writer w(out);
  w.U32(tag);
  switch (tag) {
    case kTagTkdc:
    case kTagNocut: {
      const auto& c = dynamic_cast<const TkdcClassifier&>(classifier);
      // A compressed model serializes its coreset, not the original rows
      // the caller trained with: the index, grid, and SoA rebuild all
      // derive from the coreset, and the original set is gone by design.
      Dataset coreset(training_data.dims());
      const Dataset* rows = &training_data;
      if (c.coreset_info().enabled && training_data.size() != c.tree().size()) {
        TKDC_CHECK(c.ExportTrainingData(&coreset));
        rows = &coreset;
      }
      if (c.tree().size() != rows->size()) {
        *error = "training_data does not match the classifier's index";
        return false;
      }
      WriteTkdcSection(w, c, *rows, include_densities);
      break;
    }
    case kTagSimple: {
      const auto& c = dynamic_cast<const SimpleKdeClassifier&>(classifier);
      if (c.training_data().size() != training_data.size()) {
        *error = "training_data does not match the classifier's model";
        return false;
      }
      WriteSimpleSection(w, c, training_data);
      break;
    }
    case kTagRkde: {
      const auto& c = dynamic_cast<const RkdeClassifier&>(classifier);
      if (c.model().tree->size() != training_data.size()) {
        *error = "training_data does not match the classifier's index";
        return false;
      }
      WriteRkdeSection(w, c, training_data);
      break;
    }
    case kTagBinned: {
      WriteBinnedSection(w, dynamic_cast<const BinnedKdeClassifier&>(classifier),
                         training_data);
      break;
    }
    case kTagKnn: {
      const auto& c = dynamic_cast<const KnnClassifier&>(classifier);
      if (c.model().tree->size() != training_data.size()) {
        *error = "training_data does not match the classifier's index";
        return false;
      }
      WriteKnnSection(w, c, training_data);
      break;
    }
    default:
      *error = "unsupported algorithm: " + classifier.name();
      return false;
  }
  const uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  if (!out) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::unique_ptr<TkdcClassifier> LoadModel(const std::string& path,
                                          std::string* error) {
  std::unique_ptr<DensityClassifier> classifier = LoadImpl(path, error);
  if (classifier == nullptr) return nullptr;
  auto* tkdc = dynamic_cast<TkdcClassifier*>(classifier.get());
  if (tkdc == nullptr) {
    *error = path + ": holds a " + classifier->name() +
             " model, not tkdc (use LoadAnyModel)";
    return nullptr;
  }
  classifier.release();
  return std::unique_ptr<TkdcClassifier>(tkdc);
}

std::unique_ptr<DensityClassifier> LoadAnyModel(const std::string& path,
                                                std::string* error) {
  return LoadImpl(path, error);
}

bool SaveMultiClassModel(const std::string& path,
                         const MultiClassClassifier& classifier,
                         bool include_densities, std::string* error) {
  TKDC_CHECK(error != nullptr);
  if (!classifier.trained()) {
    *error = "classifier is not trained";
    return false;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = kModelFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));

  Writer w(out);
  w.U32(kTagMultiClass);
  if (!WriteMultiClassSection(w, classifier, include_densities, error)) {
    return false;
  }
  const uint64_t checksum = w.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.flush();
  if (!out) {
    *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::unique_ptr<MultiClassClassifier> LoadMultiClassModel(
    const std::string& path, std::string* error) {
  TKDC_CHECK(error != nullptr);
  std::string payload;
  uint64_t stored_checksum = 0;
  if (!LoadVerifiedPayload(path, &payload, &stored_checksum, error)) {
    return nullptr;
  }

  std::istringstream payload_in(std::move(payload));
  Reader r(payload_in);
  uint32_t tag = 0;
  if (!r.U32(&tag)) {
    *error = path + ": truncated algorithm tag";
    return nullptr;
  }
  if (tag != kTagMultiClass) {
    *error = path + ": holds a single-class model (use LoadAnyModel)";
    return nullptr;
  }
  std::unique_ptr<MultiClassClassifier> classifier =
      ReadMultiClassSection(r, path, error);
  if (classifier == nullptr) return nullptr;

  // Same consumed-everything witness as LoadImpl: the streaming checksum
  // only matches the stored value if every payload byte passed through
  // the Reader.
  if (r.checksum() != stored_checksum) {
    *error = path + ": malformed model payload (trailing bytes)";
    return nullptr;
  }
  return classifier;
}

ModelKind ProbeModelKind(const std::string& path, std::string* error) {
  TKDC_CHECK(error != nullptr);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return ModelKind::kInvalid;
  }
  // Magic, version, and the leading algorithm tag of the payload — enough
  // to dispatch without reading the body.
  char magic[sizeof(kMagic)] = {};
  uint32_t version = 0;
  uint32_t tag = 0;
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    *error = path + ": not a tkdc model file";
    return ModelKind::kInvalid;
  }
  if (!in.read(reinterpret_cast<char*>(&version), sizeof(version))) {
    *error = path + ": truncated model file";
    return ModelKind::kInvalid;
  }
  if (!SupportedVersion(path, version, error)) return ModelKind::kInvalid;
  if (!in.read(reinterpret_cast<char*>(&tag), sizeof(tag))) {
    *error = path + ": truncated model file";
    return ModelKind::kInvalid;
  }
  return tag == kTagMultiClass ? ModelKind::kMultiClass
                               : ModelKind::kSingleClass;
}

}  // namespace tkdc
