#include "tkdc/config.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "data/generators.h"
#include "tkdc/classifier.h"

namespace tkdc {
namespace {

TEST(TkdcConfigTest, DefaultsMatchPaperTable1) {
  const TkdcConfig config;
  EXPECT_DOUBLE_EQ(config.p, 0.01);
  EXPECT_DOUBLE_EQ(config.epsilon, 0.01);
  EXPECT_DOUBLE_EQ(config.delta, 0.01);
  EXPECT_DOUBLE_EQ(config.bandwidth_scale, 1.0);
  EXPECT_EQ(config.kernel, KernelType::kGaussian);
  EXPECT_EQ(config.bandwidth_rule, BandwidthRule::kScott);
  EXPECT_TRUE(config.use_threshold_rule);
  EXPECT_TRUE(config.use_tolerance_rule);
  EXPECT_TRUE(config.use_grid);
  EXPECT_EQ(config.grid_max_dims, 4u);
  EXPECT_EQ(config.split_rule, SplitRule::kTrimmedMidpoint);
  EXPECT_EQ(config.axis_rule, SplitAxisRule::kCycle);
  // Algorithm 3 constants from Section 3.5.
  EXPECT_EQ(config.r0, 200u);
  EXPECT_EQ(config.s0, 20000u);
  EXPECT_DOUBLE_EQ(config.h_backoff, 4.0);
  EXPECT_DOUBLE_EQ(config.h_buffer, 1.5);
  EXPECT_DOUBLE_EQ(config.h_growth, 4.0);
}

TEST(TkdcConfigTest, ValidateAcceptsDefaults) {
  TkdcConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.CheckValid();  // Must not abort.
}

TEST(TkdcConfigTest, OptimizationSummaryReflectsSwitches) {
  // The simd token reports the runtime dispatch decision, so the expected
  // string is host-dependent (scalar on machines without AVX2/NEON).
  const std::string simd =
      std::string(" simd=") + SimdBackendName(ActiveSimdBackend());
  TkdcConfig config;
  EXPECT_EQ(config.OptimizationSummary(),
            "+threshold +tolerance +grid split=trimmed" + simd);
  config.use_threshold_rule = false;
  config.use_grid = false;
  config.split_rule = SplitRule::kMedian;
  EXPECT_EQ(config.OptimizationSummary(),
            "-threshold +tolerance -grid split=median" + simd);
  config.fast_math_leaf = true;
  EXPECT_EQ(config.OptimizationSummary(),
            "-threshold +tolerance -grid split=median" + simd +
                " +fast-math-leaf");
}

// Config fields are user input (CLI flags, serve requests), so out-of-range
// values report through Status instead of aborting — these were death tests
// before the Status migration.
TEST(TkdcConfigTest, RejectsOutOfRangeP) {
  TkdcConfig config;
  config.p = 0.0;
  Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("p must be"), std::string::npos);
  config.p = 1.0;
  status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("p must be"), std::string::npos);
}

TEST(TkdcConfigTest, RejectsNonPositiveEpsilon) {
  TkdcConfig config;
  config.epsilon = 0.0;
  const Status status = config.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("epsilon"), std::string::npos);
}

TEST(TkdcConfigTest, RejectsBadBootstrapKnobs) {
  TkdcConfig config;
  config.h_growth = 1.0;
  EXPECT_NE(config.Validate().message().find("h_growth"), std::string::npos);
  config = TkdcConfig();
  config.h_backoff = 0.5;
  EXPECT_NE(config.Validate().message().find("h_backoff"), std::string::npos);
  config = TkdcConfig();
  config.r0 = 1;
  EXPECT_NE(config.Validate().message().find("r0"), std::string::npos);
}

// CheckValid keeps the abort behavior for internal constructors (a bad
// config reaching them means the caller skipped Validate — programmer
// error, not user error).
TEST(TkdcConfigDeathTest, CheckValidAbortsOnInvalidConfig) {
  TkdcConfig config;
  config.p = 0.0;
  EXPECT_DEATH(config.CheckValid(), "p must be");
}

TEST(TkdcClassifierDeathTest, ApiMisuseAborts) {
  TkdcClassifier untrained;
  EXPECT_DEATH(untrained.Classify(std::vector<double>{0.0, 0.0}),
               "Classify called before Train");
  EXPECT_DEATH(untrained.threshold(), "threshold read before Train");
  EXPECT_DEATH(
      untrained.ClassifyTraining(std::vector<double>{0.0, 0.0}),
      "ClassifyTraining called before Train");
}

TEST(TkdcClassifierDeathTest, TrainRejectsTinyDataset) {
  TkdcClassifier classifier;
  Dataset one(2, {1.0, 2.0});
  EXPECT_DEATH(classifier.Train(one), "at least 2 points");
}

}  // namespace
}  // namespace tkdc
