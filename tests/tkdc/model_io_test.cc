#include "tkdc/model_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/binned_kde.h"
#include "baselines/knn.h"
#include "baselines/nocut.h"
#include "baselines/rkde.h"
#include "baselines/simple_kde.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/spatial_index.h"

namespace tkdc {
namespace {

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 0x100000001b3ULL;
  }
  return checksum;
}

class ModelIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  Dataset TrainSet(uint64_t seed = 1, size_t n = 2000) {
    Rng rng(seed);
    return SampleStandardGaussian(n, 2, rng);
  }
};

TEST_F(ModelIoTest, RoundTripPreservesThresholdAndClassifications) {
  const Dataset data = TrainSet();
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("model.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, /*include_densities=*/true,
                        &error))
      << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;

  EXPECT_DOUBLE_EQ(loaded->threshold(), original.threshold());
  EXPECT_DOUBLE_EQ(loaded->threshold_lower(), original.threshold_lower());
  EXPECT_DOUBLE_EQ(loaded->threshold_upper(), original.threshold_upper());
  EXPECT_EQ(loaded->training_densities(), original.training_densities());
  EXPECT_EQ(loaded->kernel().bandwidths(), original.kernel().bandwidths());

  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
  for (size_t i = 0; i < data.size(); i += 37) {
    EXPECT_EQ(loaded->ClassifyTraining(data.Row(i)),
              original.ClassifyTraining(data.Row(i)));
  }
}

TEST_F(ModelIoTest, RoundTripPreservesConfig) {
  TkdcConfig config;
  config.p = 0.07;
  config.epsilon = 0.02;
  config.kernel = KernelType::kEpanechnikov;
  config.split_rule = SplitRule::kMedian;
  config.leaf_size = 17;
  const Dataset data = TrainSet(2);
  TkdcClassifier original(config);
  original.Train(data);
  const std::string path = TempPath("config.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, true, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_DOUBLE_EQ(loaded->config().p, 0.07);
  EXPECT_DOUBLE_EQ(loaded->config().epsilon, 0.02);
  EXPECT_EQ(loaded->config().kernel, KernelType::kEpanechnikov);
  EXPECT_EQ(loaded->config().split_rule, SplitRule::kMedian);
  EXPECT_EQ(loaded->config().leaf_size, 17u);
}

TEST_F(ModelIoTest, DensitiesCanBeOmitted) {
  const Dataset data = TrainSet(3);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("slim.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, /*include_densities=*/false,
                        &error))
      << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->training_densities().empty());
  EXPECT_DOUBLE_EQ(loaded->threshold(), original.threshold());
}

TEST_F(ModelIoTest, SaveRejectsUntrainedClassifier) {
  TkdcClassifier untrained;
  std::string error;
  EXPECT_FALSE(SaveModel(TempPath("bad.tkdc"), untrained, Dataset(2),
                         true, &error));
  EXPECT_NE(error.find("not trained"), std::string::npos);
}

TEST_F(ModelIoTest, SaveRejectsMismatchedData) {
  const Dataset data = TrainSet(4);
  TkdcClassifier classifier;
  classifier.Train(data);
  const Dataset other = TrainSet(5, 100);
  std::string error;
  EXPECT_FALSE(SaveModel(TempPath("mismatch.tkdc"), classifier, other, true,
                         &error));
  EXPECT_NE(error.find("does not match"), std::string::npos);
}

TEST_F(ModelIoTest, LoadRejectsMissingFile) {
  std::string error;
  EXPECT_EQ(LoadModel(TempPath("nope.tkdc"), &error), nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(ModelIoTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("magic.tkdc");
  std::ofstream(path) << "this is not a model";
  std::string error;
  EXPECT_EQ(LoadModel(path, &error), nullptr);
  EXPECT_NE(error.find("not a tkdc model"), std::string::npos);
}

TEST_F(ModelIoTest, LoadRejectsTruncatedFile) {
  const Dataset data = TrainSet(6);
  TkdcClassifier classifier;
  classifier.Train(data);
  const std::string path = TempPath("trunc.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, classifier, data, true, &error)) << error;
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_EQ(LoadModel(path, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST_F(ModelIoTest, LoadRejectsBitFlip) {
  const Dataset data = TrainSet(7);
  TkdcClassifier classifier;
  classifier.Train(data);
  const std::string path = TempPath("flip.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, classifier, data, true, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents[contents.size() / 2] ^= 0x40;  // Flip a payload bit.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  out.close();
  EXPECT_EQ(LoadModel(path, &error), nullptr)
      << "bit flip must be detected";
}

// Model files carry an algorithm tag; every classifier in the lineup must
// round trip through LoadAnyModel with its labels intact.
class AnyModelRoundTripTest
    : public ModelIoTest,
      public ::testing::WithParamInterface<const char*> {
 protected:
  std::unique_ptr<DensityClassifier> MakeClassifier() {
    const std::string name = GetParam();
    if (name == "tkdc") return std::make_unique<TkdcClassifier>();
    if (name == "nocut") return std::make_unique<NocutClassifier>();
    if (name == "simple") return std::make_unique<SimpleKdeClassifier>();
    if (name == "rkde") return std::make_unique<RkdeClassifier>();
    if (name == "binned") return std::make_unique<BinnedKdeClassifier>();
    KnnOptions options;
    options.threshold_sample = 500;
    return std::make_unique<KnnClassifier>(options);
  }
};

TEST_P(AnyModelRoundTripTest, RoundTripPreservesLabelsAndThreshold) {
  const Dataset data = TrainSet(21, 1200);
  auto original = MakeClassifier();
  original->Train(data);
  const std::string path = TempPath(std::string(GetParam()) + ".tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, *original, data, /*include_densities=*/false,
                        &error))
      << error;
  auto loaded = LoadAnyModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->name(), GetParam());
  EXPECT_TRUE(loaded->trained());
  EXPECT_EQ(loaded->dims(), original->dims());
  EXPECT_DOUBLE_EQ(loaded->threshold(), original->threshold());
  Rng rng(22);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original->Classify(q)) << "trial " << i;
  }
  for (size_t i = 0; i < data.size(); i += 31) {
    EXPECT_EQ(loaded->ClassifyTraining(data.Row(i)),
              original->ClassifyTraining(data.Row(i)))
        << "row " << i;
  }
}

TEST_P(AnyModelRoundTripTest, LoadModelAcceptsOnlyTkdcFamilies) {
  const Dataset data = TrainSet(23, 600);
  auto original = MakeClassifier();
  original->Train(data);
  const std::string path = TempPath(std::string(GetParam()) + "_narrow.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, *original, data, false, &error)) << error;
  auto loaded = LoadModel(path, &error);
  const std::string name = GetParam();
  if (name == "tkdc" || name == "nocut") {
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(loaded->name(), name);
  } else {
    EXPECT_EQ(loaded, nullptr);
    EXPECT_NE(error.find("use LoadAnyModel"), std::string::npos) << error;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AnyModelRoundTripTest,
                         ::testing::Values("tkdc", "nocut", "simple", "rkde",
                                           "binned", "knn"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST_F(ModelIoTest, GridCacheModelRoundTrips) {
  TkdcConfig config;
  config.use_grid = true;
  config.grid_max_dims = 2;
  const Dataset data = TrainSet(24);
  TkdcClassifier original(config);
  original.Train(data);
  ASSERT_NE(original.model().grid, nullptr)
      << "fixture must exercise the grid cache";
  const std::string path = TempPath("grid.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, true, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  // Restore rebuilds the grid deterministically from the restored
  // thresholds, so the loaded engine prunes exactly like the original.
  ASSERT_NE(loaded->model().grid, nullptr);
  const uint64_t before = loaded->grid_prunes();
  Rng rng(25);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> q{rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
  EXPECT_GT(loaded->grid_prunes(), before)
      << "restored grid cache never pruned a query";
}

TEST_F(ModelIoTest, BallTreeBackedModelsRoundTrip) {
  // Every tree-backed algorithm must round trip its ball-tree flavor: the
  // index section stores the backend tag, and the loader must come back
  // with a ball tree (not silently rebuild a k-d tree) and identical
  // labels.
  const Dataset data = TrainSet(30, 1200);
  std::vector<std::unique_ptr<DensityClassifier>> originals;
  {
    TkdcConfig config;
    config.index_backend = IndexBackend::kBallTree;
    originals.push_back(std::make_unique<TkdcClassifier>(config));
  }
  {
    RkdeOptions options;
    options.base.index_backend = IndexBackend::kBallTree;
    options.threshold_sample = 500;
    originals.push_back(std::make_unique<RkdeClassifier>(options));
  }
  {
    KnnOptions options;
    options.index_backend = IndexBackend::kBallTree;
    options.threshold_sample = 500;
    originals.push_back(std::make_unique<KnnClassifier>(options));
  }
  for (auto& original : originals) {
    original->Train(data);
    ASSERT_EQ(original->index_backend(),
              std::optional(IndexBackend::kBallTree))
        << original->name();
    const std::string path = TempPath(original->name() + "_ball.tkdc");
    std::string error;
    ASSERT_TRUE(SaveModel(path, *original, data, false, &error))
        << original->name() << ": " << error;
    auto loaded = LoadAnyModel(path, &error);
    ASSERT_NE(loaded, nullptr) << original->name() << ": " << error;
    EXPECT_EQ(loaded->index_backend(), std::optional(IndexBackend::kBallTree))
        << loaded->name();
    Rng rng(31);
    for (int i = 0; i < 150; ++i) {
      std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
      EXPECT_EQ(loaded->Classify(q), original->Classify(q))
          << original->name() << " trial " << i;
    }
  }
}

TEST_F(ModelIoTest, RejectsEveryOtherFormatVersion) {
  // The loaders read kModelFormatVersion only. The checksum covers the
  // payload alone, so rewriting the version word leaves a file that is
  // wrong in its version and nothing else; every entry point must refuse
  // it with an error naming the version found and the one supported.
  const Dataset data = TrainSet(48, 500);
  TkdcClassifier single;
  single.Train(data);
  Rng rng(49);
  std::vector<Dataset> class_data;
  class_data.push_back(SampleStandardGaussian(80, 2, rng));
  class_data.push_back(SampleStandardGaussian(60, 2, rng));
  MultiClassClassifier multi;
  ASSERT_TRUE(multi.TrainParts(class_data, {"a", "b"}).ok());

  std::string error;
  const std::string single_path = TempPath("version_single.tkdc");
  const std::string multi_path = TempPath("version_multi.tkdc");
  ASSERT_TRUE(SaveModel(single_path, single, data, false, &error)) << error;
  ASSERT_TRUE(SaveMultiClassModel(multi_path, multi, false, &error)) << error;
  const std::string supported =
      "reads version " + std::to_string(kModelFormatVersion) + " only";
  for (const std::string& path : {single_path, multi_path}) {
    ASSERT_NE(ProbeModelKind(path, &error), ModelKind::kInvalid) << error;
    std::ifstream in(path, std::ios::binary);
    const std::string pristine((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    for (const uint32_t version :
         {1u, 2u, 3u, 4u, 5u, kModelFormatVersion + 1}) {
      std::string contents = pristine;
      std::memcpy(contents.data() + 4, &version, sizeof(version));
      const std::string bad_path = TempPath("version_rewritten.tkdc");
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(contents.data(),
                static_cast<std::streamsize>(contents.size()));
      out.close();
      const std::string found =
          "unsupported model format version " + std::to_string(version);
      const std::string where = path + " as version " + std::to_string(version);

      error.clear();
      EXPECT_EQ(LoadAnyModel(bad_path, &error), nullptr) << where;
      EXPECT_NE(error.find(found), std::string::npos) << where << ": " << error;
      EXPECT_NE(error.find(supported), std::string::npos) << where;
      error.clear();
      EXPECT_EQ(LoadMultiClassModel(bad_path, &error), nullptr) << where;
      EXPECT_NE(error.find(found), std::string::npos) << where << ": " << error;
      EXPECT_NE(error.find(supported), std::string::npos) << where;
      error.clear();
      EXPECT_EQ(ProbeModelKind(bad_path, &error), ModelKind::kInvalid)
          << where;
      EXPECT_NE(error.find(found), std::string::npos) << where << ": " << error;
      EXPECT_NE(error.find(supported), std::string::npos) << where;
    }
  }
}

TEST_F(ModelIoTest, SoaMirrorRebuiltOnLoadMatchesWriter) {
  // The SoA leaf mirror is derived state: never serialized, rebuilt by the
  // restore constructors, and cross-checked against the stored layout
  // descriptor. The rebuilt layout must match the writer's exactly — same
  // leaf count, same padded extent, and bit-identical block contents —
  // so leaf scans on a loaded model reproduce the original's sums.
  const Dataset data = TrainSet(41);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("soa.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;

  const SpatialIndex& before = original.tree();
  const SpatialIndex& after = loaded->tree();
  ASSERT_EQ(before.num_nodes(), after.num_nodes());
  EXPECT_EQ(before.num_soa_leaves(), after.num_soa_leaves());
  EXPECT_EQ(before.num_soa_doubles(), after.num_soa_doubles());
  for (size_t i = 0; i < before.num_nodes(); ++i) {
    if (!before.node(i).is_leaf()) continue;
    const SpatialIndex::SoaLeaf a = before.LeafSoa(i);
    const SpatialIndex::SoaLeaf b = after.LeafSoa(i);
    ASSERT_EQ(a.count, b.count) << "node " << i;
    ASSERT_EQ(a.padded, b.padded) << "node " << i;
    for (size_t v = 0; v < before.dims() * a.padded; ++v) {
      // EXPECT_EQ would fail on the +inf padding; compare bit patterns.
      uint64_t bits_a = 0, bits_b = 0;
      std::memcpy(&bits_a, &a.block[v], sizeof(bits_a));
      std::memcpy(&bits_b, &b.block[v], sizeof(bits_b));
      ASSERT_EQ(bits_a, bits_b) << "node " << i << " slot " << v;
    }
  }
}

TEST_F(ModelIoTest, FastMathLeafFlagRoundTrips) {
  const Dataset data = TrainSet(43);
  TkdcConfig config;
  config.fast_math_leaf = true;
  TkdcClassifier original(config);
  original.Train(data);
  const std::string path = TempPath("fastmath.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_TRUE(loaded->config().fast_math_leaf);
  Rng rng(45);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> q{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
    EXPECT_EQ(loaded->Classify(q), original.Classify(q)) << "trial " << i;
  }
}

TEST_F(ModelIoTest, LoadRejectsCorruptSoaDescriptor) {
  // Flip the descriptor's lane-width field (first of the three trailing
  // uint64s of the index section) and fix up the checksum: the loader
  // must reject the file on the descriptor check, not deserialize a
  // layout the binary cannot reproduce.
  const Dataset data = TrainSet(47, 500);
  TkdcClassifier original;
  original.Train(data);
  const std::string path = TempPath("soa_corrupt.tkdc");
  std::string error;
  ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  // The tkdc section ends with the index section (whose last 24 bytes are
  // the SoA descriptor) followed by the budget/coreset trailer
  // (4 doubles + u8 + u64 + double + u32 = 53 bytes), then the 8-byte
  // checksum.
  constexpr size_t kBudgetTrailerBytes =
      4 * sizeof(double) + 1 + sizeof(uint64_t) + sizeof(double) +
      sizeof(uint32_t);
  ASSERT_GT(contents.size(), 32u + kBudgetTrailerBytes);
  const size_t lane_width_offset =
      contents.size() - 8 - kBudgetTrailerBytes - 24;
  uint64_t lane_width = 0;
  std::memcpy(&lane_width, contents.data() + lane_width_offset,
              sizeof(lane_width));
  ASSERT_EQ(lane_width, 4u);  // kSimdBlockWidth — layout sanity check.
  lane_width = 8;
  std::memcpy(contents.data() + lane_width_offset, &lane_width,
              sizeof(lane_width));
  const uint64_t checksum =
      Fnv1a(contents.substr(8, contents.size() - 8 - sizeof(uint64_t)));
  std::memcpy(contents.data() + contents.size() - sizeof(uint64_t), &checksum,
              sizeof(checksum));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  EXPECT_EQ(LoadModel(path, &error), nullptr);
  EXPECT_NE(error.find("SoA"), std::string::npos) << error;
}

TEST_F(ModelIoTest, LoadedModelKeepsWorkingAfterOriginalDies) {
  const std::string path = TempPath("lifetime.tkdc");
  {
    const Dataset data = TrainSet(8);
    TkdcClassifier original;
    original.Train(data);
    std::string error;
    ASSERT_TRUE(SaveModel(path, original, data, false, &error)) << error;
  }
  std::string error;
  auto loaded = LoadModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->Classify(std::vector<double>{0.0, 0.0}),
            Classification::kHigh);
  EXPECT_EQ(loaded->Classify(std::vector<double>{7.0, 7.0}),
            Classification::kLow);
}

}  // namespace
}  // namespace tkdc
