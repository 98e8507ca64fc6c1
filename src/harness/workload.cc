#include "harness/workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/macros.h"

namespace tkdc {

Dataset Workload::Make() const {
  TKDC_CHECK(n >= 1);
  const DatasetSpec& spec = GetDatasetSpec(id);
  const size_t d = dims == 0 ? spec.dims : dims;
  return MakeDataset(id, n, d, seed);
}

std::string Workload::Label() const {
  const DatasetSpec& spec = GetDatasetSpec(id);
  const size_t d = dims == 0 ? spec.dims : dims;
  std::ostringstream out;
  out << spec.name << ", n=" << FormatSi(static_cast<double>(n))
      << ", d=" << d;
  return out.str();
}

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale = std::atof(arg + 8);
      TKDC_CHECK_MSG(args.scale > 0.0, "--scale must be positive");
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--budget=", 9) == 0) {
      args.budget_seconds = std::atof(arg + 9);
      TKDC_CHECK_MSG(args.budget_seconds > 0.0, "--budget must be positive");
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      args.threads = static_cast<size_t>(std::atoll(arg + 10));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale=F] [--seed=N] [--budget=SECONDS] "
                   "[--threads=N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return args;
}

std::string FormatSi(double value) {
  char buffer[32];
  const double magnitude = value < 0.0 ? -value : value;
  if (magnitude >= 1e9) {
    std::snprintf(buffer, sizeof(buffer), "%.3gB", value / 1e9);
  } else if (magnitude >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.3gM", value / 1e6);
  } else if (magnitude >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.3gk", value / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  }
  return buffer;
}

}  // namespace tkdc
