#include "cli/cli.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"

namespace tkdc {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  int Run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string Out() const { return out_.str(); }
  std::string Err() const { return err_.str(); }

  // Generates a 2-d gaussian CSV via the generate command and returns its
  // path.
  std::string MakeDataCsv(const std::string& name, int n) {
    const std::string path = TempPath(name);
    EXPECT_EQ(Run({"generate", "--dataset", "gauss", "--n",
                   std::to_string(n), "--output", path}),
              0)
        << Err();
    return path;
  }

 private:
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  EXPECT_EQ(Run({}), 2);
  EXPECT_NE(Err().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandRejected) {
  EXPECT_EQ(Run({"frobnicate"}), 2);
  EXPECT_NE(Err().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesCsv) {
  const std::string path = MakeDataCsv("gen.csv", 500);
  std::string error;
  const auto table = ReadCsv(path, false, &error);
  ASSERT_TRUE(table.has_value()) << error;
  EXPECT_EQ(table->data.size(), 500u);
  EXPECT_EQ(table->data.dims(), 2u);
}

TEST_F(CliTest, GenerateRejectsUnknownDataset) {
  EXPECT_EQ(Run({"generate", "--dataset", "nope", "--n", "10", "--output",
                 TempPath("x.csv")}),
            2);
  EXPECT_NE(Err().find("unknown dataset"), std::string::npos);
}

TEST_F(CliTest, GenerateHonorsDimsOverride) {
  const std::string path = TempPath("dims.csv");
  ASSERT_EQ(Run({"generate", "--dataset", "hep", "--n", "50", "--dims", "3",
                 "--output", path}),
            0)
      << Err();
  std::string error;
  const auto table = ReadCsv(path, false, &error);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->data.dims(), 3u);
}

TEST_F(CliTest, TrainClassifyInfoPipeline) {
  const std::string data_csv = MakeDataCsv("train.csv", 3000);
  const std::string model = TempPath("model.tkdc");
  ASSERT_EQ(Run({"train", "--input", data_csv, "--model", model, "--p",
                 "0.05"}),
            0)
      << Err();
  EXPECT_NE(Out().find("threshold"), std::string::npos);

  // info
  ASSERT_EQ(Run({"info", "--model", model}), 0) << Err();
  EXPECT_NE(Out().find("training points: 3000"), std::string::npos);
  EXPECT_NE(Out().find("p:               0.05"), std::string::npos);

  // classify the training file itself with --training
  const std::string results_csv = TempPath("results.csv");
  ASSERT_EQ(Run({"classify", "--model", model, "--input", data_csv,
                 "--output", results_csv, "--training"}),
            0)
      << Err();
  std::string error;
  const auto results = ReadCsv(results_csv, /*has_header=*/true, &error);
  ASSERT_TRUE(results.has_value()) << error;
  ASSERT_EQ(results->data.size(), 3000u);
  size_t low = 0;
  for (size_t i = 0; i < results->data.size(); ++i) {
    const double label = results->data.At(i, 0);
    EXPECT_TRUE(label == 0.0 || label == 1.0);
    if (label == 0.0) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / 3000.0, 0.05, 0.04);
}

TEST_F(CliTest, ClassifyWritesMetricsJson) {
  const std::string data_csv = MakeDataCsv("metrics.csv", 800);
  const std::string model = TempPath("metrics.tkdc");
  ASSERT_EQ(Run({"train", "--input", data_csv, "--model", model}), 0)
      << Err();
  const std::string results_csv = TempPath("metrics_results.csv");
  const std::string metrics_json = TempPath("metrics.json");
  ASSERT_EQ(Run({"classify", "--model", model, "--input", data_csv,
                 "--output", results_csv, "--metrics-out", metrics_json}),
            0)
      << Err();
  EXPECT_NE(Out().find("metrics written to"), std::string::npos);

  std::ifstream in(metrics_json);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  // The standard query schema with one entry per classified point.
  EXPECT_NE(json.find("\"query.queries\": 800"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query.prune_depth\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"query.bound_gap_rel\""), std::string::npos) << json;
  EXPECT_NE(json.find("cutoff."), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
}

TEST_F(CliTest, ClassifyWithDensityColumn) {
  const std::string data_csv = MakeDataCsv("dens.csv", 1000);
  const std::string model = TempPath("dens.tkdc");
  ASSERT_EQ(Run({"train", "--input", data_csv, "--model", model}), 0)
      << Err();
  const std::string results_csv = TempPath("dens_results.csv");
  ASSERT_EQ(Run({"classify", "--model", model, "--input", data_csv,
                 "--output", results_csv, "--density"}),
            0)
      << Err();
  std::string error;
  const auto results = ReadCsv(results_csv, true, &error);
  ASSERT_TRUE(results.has_value()) << error;
  EXPECT_EQ(results->data.dims(), 2u);
  ASSERT_EQ(results->column_names.size(), 2u);
  EXPECT_EQ(results->column_names[1], "density");
  // Densities are positive for on-distribution points.
  EXPECT_GT(results->data.At(0, 1), 0.0);
}

TEST_F(CliTest, TrainRejectsMissingInput) {
  EXPECT_EQ(Run({"train", "--input", TempPath("absent.csv"), "--model",
                 TempPath("m.tkdc")}),
            1);
  EXPECT_NE(Err().find("cannot open"), std::string::npos);
}

TEST_F(CliTest, TrainRejectsMissingRequiredOption) {
  EXPECT_EQ(Run({"train", "--model", TempPath("m.tkdc")}), 2);
  EXPECT_NE(Err().find("--input"), std::string::npos);
}

TEST_F(CliTest, ClassifyRejectsDimensionMismatch) {
  const std::string data_csv = MakeDataCsv("match.csv", 500);
  const std::string model = TempPath("match.tkdc");
  ASSERT_EQ(Run({"train", "--input", data_csv, "--model", model}), 0);
  // 3-d queries against a 2-d model.
  const std::string bad_csv = TempPath("bad_dims.csv");
  std::ofstream(bad_csv) << "1,2,3\n4,5,6\n";
  EXPECT_EQ(Run({"classify", "--model", model, "--input", bad_csv,
                 "--output", TempPath("r.csv")}),
            1);
  EXPECT_NE(Err().find("does not match"), std::string::npos);
}

TEST_F(CliTest, EqualsSyntaxAccepted) {
  const std::string path = TempPath("eq.csv");
  ASSERT_EQ(Run({"generate", "--dataset=gauss", "--n=100", "--output=" +
                                                                path}),
            0)
      << Err();
  std::string error;
  EXPECT_TRUE(ReadCsv(path, false, &error).has_value());
}

TEST_F(CliTest, EpanechnikovKernelOption) {
  const std::string data_csv = MakeDataCsv("epan.csv", 800);
  const std::string model = TempPath("epan.tkdc");
  ASSERT_EQ(Run({"train", "--input", data_csv, "--model", model, "--kernel",
                 "epanechnikov"}),
            0)
      << Err();
  ASSERT_EQ(Run({"info", "--model", model}), 0);
}

TEST_F(CliTest, TrainRefusesNonFiniteThreshold) {
  // At mnist's d = 784 the Gaussian normalizer overflows and t(p) comes
  // out NaN; train must fail instead of writing a model that labels every
  // query by a comparison against NaN.
  const std::string data_csv = TempPath("mnist.csv");
  ASSERT_EQ(Run({"generate", "--dataset", "mnist", "--n", "300", "--output",
                 data_csv}),
            0)
      << Err();
  const std::string model = TempPath("mnist.tkdc");
  std::remove(model.c_str());
  EXPECT_EQ(Run({"train", "--input", data_csv, "--model", model}), 1);
  EXPECT_NE(Err().find("non-finite threshold"), std::string::npos) << Err();
  EXPECT_FALSE(std::ifstream(model).good());
}

TEST_F(CliTest, UnknownKernelRejected) {
  const std::string data_csv = MakeDataCsv("badk.csv", 100);
  EXPECT_EQ(Run({"train", "--input", data_csv, "--model",
                 TempPath("badk.tkdc"), "--kernel", "box"}),
            2);
  EXPECT_NE(Err().find("unknown kernel"), std::string::npos);
}

}  // namespace
}  // namespace tkdc
