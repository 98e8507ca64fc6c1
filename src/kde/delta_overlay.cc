#include "kde/delta_overlay.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/simd.h"
#include "kde/kernel_simd.h"

namespace tkdc {

static_assert(DeltaOverlay::kBlockPoints % kSimdBlockWidth == 0,
              "overlay blocks must be SIMD-width aligned");

DeltaOverlay::DeltaOverlay(size_t dims, size_t capacity)
    : dims_(dims), capacity_(capacity) {
  TKDC_CHECK_MSG(dims > 0, "DeltaOverlay needs at least one dimension");
  TKDC_CHECK_MSG(capacity > 0, "DeltaOverlay needs a positive capacity");
  const size_t blocks = (capacity + kBlockPoints - 1) / kBlockPoints;
  const size_t doubles = blocks * kBlockPoints * dims;
  inserted_.storage.assign(doubles, std::numeric_limits<double>::infinity());
  tombstones_.storage.assign(doubles, std::numeric_limits<double>::infinity());
}

bool DeltaOverlay::Append(Buffer& buf, std::span<const double> x) {
  TKDC_CHECK_MSG(x.size() == dims_, "overlay row has the wrong dimensionality");
  // Relaxed is enough here: this thread is the only writer.
  const size_t slot = buf.count.load(std::memory_order_relaxed);
  if (slot >= capacity_) return false;
  const size_t block = slot / kBlockPoints;
  const size_t lane = slot % kBlockPoints;
  double* base = buf.storage.data() + block * kBlockPoints * dims_;
  for (size_t j = 0; j < dims_; ++j) base[j * kBlockPoints + lane] = x[j];
  // Publish: the release pairs with acquire loads in the count accessors,
  // making the row visible before any reader can index it.
  buf.count.store(slot + 1, std::memory_order_release);
  return true;
}

bool DeltaOverlay::Insert(std::span<const double> x) {
  return Append(inserted_, x);
}

bool DeltaOverlay::AddTombstone(std::span<const double> x) {
  return Append(tombstones_, x);
}

void DeltaOverlay::CopyRow(const Buffer& buf, size_t i,
                           std::span<double> out) const {
  TKDC_CHECK_MSG(i < buf.count.load(std::memory_order_acquire),
                 "overlay row index past the published count");
  TKDC_CHECK_MSG(out.size() == dims_, "overlay row copy needs dims() doubles");
  const double* base =
      buf.storage.data() + (i / kBlockPoints) * kBlockPoints * dims_;
  const size_t lane = i % kBlockPoints;
  for (size_t j = 0; j < dims_; ++j) out[j] = base[j * kBlockPoints + lane];
}

double DeltaOverlay::Sum(const Buffer& buf, const double* x,
                         const double* inv_bw, KernelType type, double norm,
                         bool fast_math) const {
  const size_t count = buf.count.load(std::memory_order_acquire);
  double sum = 0.0;
  for (size_t begin = 0; begin < count; begin += kBlockPoints) {
    const size_t in_block = std::min(kBlockPoints, count - begin);
    // The full padded block is scanned; lanes past `in_block` still hold
    // +infinity (mutation quiescence) and contribute exactly +0.0.
    sum += simd::SoaKernelSum(
        buf.storage.data() + (begin / kBlockPoints) * kBlockPoints * dims_,
        kBlockPoints, in_block, dims_, x, inv_bw, type, norm, fast_math);
  }
  return sum;
}

double DeltaOverlay::SignedKernelSum(const double* x, const double* inv_bw,
                                     KernelType type, double norm,
                                     bool fast_math) const {
  return Sum(inserted_, x, inv_bw, type, norm, fast_math) -
         Sum(tombstones_, x, inv_bw, type, norm, fast_math);
}

OverlayContribution ComputeOverlayContribution(const DeltaOverlay& overlay,
                                               size_t base_n,
                                               const Kernel& kernel,
                                               std::span<const double> x,
                                               bool fast_math) {
  const size_t ins = overlay.inserted_count();
  const size_t tomb = overlay.tombstone_count();
  const double n_b = static_cast<double>(base_n);
  const double n_eff =
      n_b + static_cast<double>(ins) - static_cast<double>(tomb);
  TKDC_CHECK_MSG(n_eff > 0.0, "overlay tombstones every training point");
  OverlayContribution fold;
  fold.evaluations = ins + tomb;
  fold.scale = n_b / n_eff;
  if (fold.evaluations > 0) {
    fold.offset = overlay.SignedKernelSum(
                      x.data(), kernel.inverse_bandwidths().data(),
                      kernel.type(), kernel.norm(), fast_math) /
                  n_eff;
  }
  return fold;
}

double MergeOverlay(const DeltaOverlay* overlay, size_t base_n,
                    const Kernel& kernel, std::span<const double> x,
                    double base_density, QueryContext& ctx,
                    double* self_contribution) {
  if (overlay == nullptr) return base_density;
  const OverlayContribution fold = ComputeOverlayContribution(
      *overlay, base_n, kernel, x, /*fast_math=*/false);
  ctx.stats.kernel_evaluations += fold.evaluations;
  if (self_contribution != nullptr) *self_contribution *= fold.scale;
  return fold.Merge(base_density);
}

}  // namespace tkdc
