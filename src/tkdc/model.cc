#include "tkdc/model.h"

#include <utility>

#include "common/macros.h"
#include "common/parallel.h"

namespace tkdc {

std::shared_ptr<TkdcModel> BuildTkdcModelSkeleton(
    const TkdcConfig& config, const Dataset& data,
    std::vector<double> bandwidths,
    std::unique_ptr<const SpatialIndex> prebuilt_index) {
  TKDC_CHECK_MSG(data.size() >= 2, "training set needs at least 2 points");
  TKDC_CHECK(bandwidths.size() == data.dims());
  auto model = std::make_shared<TkdcModel>();
  model->config = config;
  model->budget = config.ResolveBudget();
  model->coreset.original_size = data.size();
  model->kernel =
      std::make_unique<const Kernel>(config.kernel, std::move(bandwidths));
  if (prebuilt_index != nullptr) {
    TKDC_CHECK(prebuilt_index->size() == data.size() &&
               prebuilt_index->dims() == data.dims());
    model->tree = std::move(prebuilt_index);
  } else {
    // The tree levels fan out over the training threads, as the bootstrap
    // does; the built tree is the same for every thread count.
    const size_t num_threads = config.ResolvedNumThreads();
    std::unique_ptr<ThreadPool> pool;
    if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
    model->tree = std::make_unique<const SpatialIndex>(
        data, config.MakeIndexOptions(), pool.get());
  }
  model->self_contribution =
      model->kernel->MaxValue() / static_cast<double>(data.size());
  if (config.use_grid && data.dims() <= config.grid_max_dims &&
      data.dims() <= GridCache::kMaxDims) {
    model->grid = std::make_unique<const GridCache>(data, *model->kernel);
  }
  return model;
}

}  // namespace tkdc
