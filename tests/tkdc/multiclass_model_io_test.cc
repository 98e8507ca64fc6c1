// Multi-class model container (tag 7): round-trip fidelity,
// loader dispatch (ProbeModelKind, cross-kind rejection), and targeted
// corruption with the checksum recomputed — the semantic re-validation in
// RestoreParts must reject what the FNV-1a trailer can no longer catch.

#include "tkdc/model_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "tkdc/classifier.h"
#include "tkdc/multiclass.h"

namespace tkdc {
namespace {

Dataset Blob(size_t n, double cx, double cy, Rng& rng) {
  Dataset data(2);
  data.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double row[2] = {cx + rng.NextGaussian(), cy + rng.NextGaussian()};
    data.AppendRow(row);
  }
  return data;
}

class McModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(41);
    class_data_.push_back(Blob(60, 0.0, 0.0, rng));
    class_data_.push_back(Blob(80, 4.0, 0.0, rng));
    class_data_.push_back(Blob(40, 0.0, 4.0, rng));
    TkdcConfig config;
    config.seed = 13;
    mc_ = std::make_unique<MultiClassClassifier>(config);
    ASSERT_TRUE(mc_->TrainParts(class_data_, {"a", "b", "c"}).ok());
  }

  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/mc_io_" + name;
  }

  std::string SaveTo(const std::string& path) {
    std::string error;
    EXPECT_TRUE(SaveMultiClassModel(path, *mc_, /*include_densities=*/true,
                                    &error))
        << error;
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Recomputes the FNV-1a trailer over the payload, so corruption tests
  /// exercise the semantic validation layer instead of the checksum.
  void FixChecksum(std::string* bytes) {
    uint64_t checksum = 0xcbf29ce484222325ULL;
    for (size_t i = 8; i < bytes->size() - 8; ++i) {
      checksum ^= static_cast<unsigned char>((*bytes)[i]);
      checksum *= 0x100000001b3ULL;
    }
    std::memcpy(bytes->data() + bytes->size() - 8, &checksum,
                sizeof(checksum));
  }

  std::vector<Dataset> class_data_;
  std::unique_ptr<MultiClassClassifier> mc_;
};

TEST_F(McModelIoTest, RoundTripPreservesClassesPriorsAndLabels) {
  const std::string path = TempPath("roundtrip.tkdc");
  SaveTo(path);

  std::string error;
  std::unique_ptr<MultiClassClassifier> loaded =
      LoadMultiClassModel(path, &error);
  ASSERT_NE(loaded, nullptr) << error;
  EXPECT_EQ(loaded->num_classes(), 3u);
  EXPECT_EQ(loaded->dims(), 2u);
  EXPECT_EQ(loaded->class_labels(),
            (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(loaded->priors().size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(loaded->priors()[c], mc_->priors()[c]) << c;
    EXPECT_EQ(loaded->class_part(c).training_size(),
              mc_->class_part(c).training_size())
        << c;
  }

  // The loaded model classifies identically to the in-memory original.
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> q{rng.Uniform(-2.0, 6.0),
                                rng.Uniform(-2.0, 6.0)};
    EXPECT_EQ(loaded->Classify(q), mc_->Classify(q)) << "query " << i;
  }
}

TEST_F(McModelIoTest, ProbeDistinguishesModelKinds) {
  const std::string mc_path = TempPath("probe_mc.tkdc");
  SaveTo(mc_path);
  std::string error;
  EXPECT_EQ(ProbeModelKind(mc_path, &error), ModelKind::kMultiClass) << error;

  const std::string sc_path = TempPath("probe_sc.tkdc");
  TkdcClassifier single;
  single.Train(class_data_[0]);
  ASSERT_TRUE(SaveModel(sc_path, single, class_data_[0],
                        /*include_densities=*/true, &error))
      << error;
  EXPECT_EQ(ProbeModelKind(sc_path, &error), ModelKind::kSingleClass)
      << error;

  const std::string garbage_path = TempPath("probe_garbage.tkdc");
  WriteBytes(garbage_path, "this is not a model file at all.....");
  EXPECT_EQ(ProbeModelKind(garbage_path, &error), ModelKind::kInvalid);
  EXPECT_FALSE(error.empty());
}

TEST_F(McModelIoTest, CrossKindLoadsAreRejectedWithGuidance) {
  const std::string mc_path = TempPath("cross_mc.tkdc");
  SaveTo(mc_path);
  std::string error;
  EXPECT_EQ(LoadAnyModel(mc_path, &error), nullptr);
  EXPECT_NE(error.find("multi-class"), std::string::npos) << error;

  const std::string sc_path = TempPath("cross_sc.tkdc");
  TkdcClassifier single;
  single.Train(class_data_[0]);
  ASSERT_TRUE(SaveModel(sc_path, single, class_data_[0],
                        /*include_densities=*/true, &error))
      << error;
  error.clear();
  EXPECT_EQ(LoadMultiClassModel(sc_path, &error), nullptr);
  EXPECT_NE(error.find("single-class"), std::string::npos) << error;
}

// Layout of the container head: magic(4) version(4) tag(4) K(8), then
// per class U64 label length + label bytes + F64 prior. With the 1-byte
// labels "a","b","c" the first prior's bytes start at offset 29.
constexpr size_t kFirstPriorOffset = 4 + 4 + 4 + 8 + 8 + 1;

TEST_F(McModelIoTest, ChecksumFixedPriorCorruptionIsRejected) {
  const std::string path = TempPath("prior.tkdc");
  std::string bytes = SaveTo(path);
  double prior = 0.0;
  std::memcpy(&prior, bytes.data() + kFirstPriorOffset, sizeof(prior));
  ASSERT_NEAR(prior, 60.0 / 180.0, 1e-12);  // Layout sanity: empirical.

  // The priors no longer sum to 1; RestoreParts must catch it even though
  // the checksum is valid again.
  prior += 0.25;
  std::memcpy(bytes.data() + kFirstPriorOffset, &prior, sizeof(prior));
  FixChecksum(&bytes);
  const std::string bad_path = TempPath("prior_bad.tkdc");
  WriteBytes(bad_path, bytes);
  std::string error;
  EXPECT_EQ(LoadMultiClassModel(bad_path, &error), nullptr);
  EXPECT_NE(error.find("sum to 1"), std::string::npos) << error;
}

TEST_F(McModelIoTest, ChecksumFixedDuplicateLabelIsRejected) {
  const std::string path = TempPath("label.tkdc");
  std::string bytes = SaveTo(path);
  // Overwrite label "b" (offset: head + class-a entry of 8+1+8 bytes,
  // then the U64 length) with "a": duplicate labels.
  const size_t label_b_offset = 4 + 4 + 4 + 8 + (8 + 1 + 8) + 8;
  ASSERT_EQ(bytes[label_b_offset], 'b');
  bytes[label_b_offset] = 'a';
  FixChecksum(&bytes);
  const std::string bad_path = TempPath("label_bad.tkdc");
  WriteBytes(bad_path, bytes);
  std::string error;
  EXPECT_EQ(LoadMultiClassModel(bad_path, &error), nullptr);
  EXPECT_NE(error.find("duplicate class label"), std::string::npos) << error;
}

TEST_F(McModelIoTest, ChecksumFixedClassCountCorruptionIsRejected) {
  const std::string path = TempPath("kcount.tkdc");
  const std::string pristine = SaveTo(path);
  const std::string bad_path = TempPath("kcount_bad.tkdc");
  for (const uint64_t bogus_k : {uint64_t{0}, uint64_t{1}, uint64_t{5000},
                                 uint64_t{1} << 40}) {
    std::string bytes = pristine;
    std::memcpy(bytes.data() + 12, &bogus_k, sizeof(bogus_k));
    FixChecksum(&bytes);
    WriteBytes(bad_path, bytes);
    std::string error;
    EXPECT_EQ(LoadMultiClassModel(bad_path, &error), nullptr)
        << "K=" << bogus_k << " accepted";
    EXPECT_FALSE(error.empty()) << "K=" << bogus_k;
  }
}

TEST_F(McModelIoTest, BlindByteFlipsAreCaughtByTheChecksum) {
  const std::string path = TempPath("flip.tkdc");
  const std::string pristine = SaveTo(path);
  const std::string bad_path = TempPath("flip_bad.tkdc");
  Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t offset =
        8 + static_cast<size_t>(rng.NextBounded(pristine.size() - 8));
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    WriteBytes(bad_path, bytes);
    std::string error;
    EXPECT_EQ(LoadMultiClassModel(bad_path, &error), nullptr)
        << "flip at " << offset << " accepted";
  }
}

TEST_F(McModelIoTest, RestorePartsRejectsCrossPartMismatches) {
  // Mismatched dims across parts: the loader-facing validation layer.
  Rng rng(55);
  auto part2d = std::make_unique<TkdcClassifier>();
  part2d->Train(Blob(40, 0.0, 0.0, rng));
  Dataset data3d(3);
  data3d.Reserve(40);
  for (int i = 0; i < 40; ++i) {
    const double row[3] = {rng.NextGaussian(), rng.NextGaussian(),
                           rng.NextGaussian()};
    data3d.AppendRow(row);
  }
  auto part3d = std::make_unique<TkdcClassifier>();
  part3d->Train(data3d);

  std::vector<std::unique_ptr<TkdcClassifier>> parts;
  parts.push_back(std::move(part2d));
  parts.push_back(std::move(part3d));
  MultiClassClassifier mc;
  const Status status =
      mc.RestoreParts(std::move(parts), {"a", "b"}, {0.5, 0.5});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("dims"), std::string::npos)
      << status.message();
}

TEST_F(McModelIoTest, SavingAnUntrainedMultiClassModelFails) {
  MultiClassClassifier untrained;
  std::string error;
  EXPECT_FALSE(SaveMultiClassModel(TempPath("untrained.tkdc"), untrained,
                                   /*include_densities=*/true, &error));
  EXPECT_NE(error.find("not trained"), std::string::npos) << error;
}

}  // namespace
}  // namespace tkdc
