#ifndef TKDC_KDE_DELTA_OVERLAY_H_
#define TKDC_KDE_DELTA_OVERLAY_H_

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "kde/kernel.h"
#include "kde/query_context.h"

namespace tkdc {

/// Bounded append-only side buffer staging streamed mutations on top of an
/// immutable base model. Arrivals (INSERT) land in one SoA point buffer,
/// deletions (DELETE) in a second "tombstone" buffer holding the exact
/// coordinates of the removed point; neither buffer ever rewrites a slot,
/// so a published row is immutable for the overlay's lifetime. The overlay
/// contributes an exact signed kernel sum
///
///     Delta(x) = sum_{inserted} K_H(x - y) - sum_{tombstoned} K_H(x - y)
///
/// which the engines fold into the base density: with n_b base points and
/// n_eff = n_b + inserted - tombstones, the merged density is
/// f'(x) = (n_b * f_base(x) + Delta(x)) / n_eff — exact because a point's
/// kernel contribution depends only on its coordinates, so a tombstone
/// carrying the deleted point's coordinates cancels it precisely.
///
/// Layout reuses the SIMD SoA contract (common/simd.h): points are grouped
/// into fixed blocks of kBlockPoints, every dimension contiguous within a
/// block, unwritten lanes pre-filled with +infinity so they contribute
/// exactly +0.0 to any kernel sum. Block boundaries depend only on slot
/// index, so the summation schedule — and therefore the bits of the sum —
/// is a function of the published count alone.
///
/// Thread contract (single-writer, quiescent-reader):
///   - All mutations (Insert / AddTombstone) must come from one thread at a
///     time — in the serving stack that is the batcher dispatch thread.
///   - snapshot() / counts / CopyRow are safe from any thread: a row
///     published by a release store of the count is immutable, and readers
///     acquire the count before touching rows below it.
///   - SignedKernelSum additionally requires *mutation quiescence*: it
///     scans whole padded blocks, so lanes past the published count must
///     still hold +infinity. The dispatcher guarantees this by applying all
///     of a batch's mutations before fanning out its queries and blocking
///     in the fork/join barrier while workers read.
class DeltaOverlay {
 public:
  /// Block granularity in points; a multiple of simd::kSimdBlockWidth.
  /// Smaller than SoaMatrix's 1024 because the overlay is usually a few
  /// percent of n, and a partial tail block costs a full-block scan.
  static constexpr size_t kBlockPoints = 64;

  /// Consistent view of the published counts. tombstones is loaded before
  /// inserted, so any insert that precedes an included tombstone in the
  /// writer's program order is also included — a rebuild consuming this
  /// snapshot can always find the row each tombstone cancels.
  struct Snapshot {
    size_t inserted = 0;
    size_t tombstones = 0;
    size_t size() const { return inserted + tombstones; }
    bool empty() const { return inserted == 0 && tombstones == 0; }
  };

  /// An overlay for `dims`-dimensional points holding at most `capacity`
  /// rows in each buffer. Storage is fully allocated (and +inf-filled)
  /// up front so appends never reallocate under concurrent readers.
  DeltaOverlay(size_t dims, size_t capacity);

  size_t dims() const { return dims_; }
  size_t capacity() const { return capacity_; }

  /// Appends an inserted point. Returns false (and changes nothing) when
  /// the insert buffer is full. Writer thread only.
  bool Insert(std::span<const double> x);

  /// Appends a deletion marker carrying the deleted point's coordinates.
  /// Returns false when the tombstone buffer is full. Writer thread only.
  bool AddTombstone(std::span<const double> x);

  size_t inserted_count() const {
    return inserted_.count.load(std::memory_order_acquire);
  }
  size_t tombstone_count() const {
    return tombstones_.count.load(std::memory_order_acquire);
  }
  Snapshot snapshot() const {
    Snapshot snap;
    snap.tombstones = tombstone_count();  // before inserted; see Snapshot
    snap.inserted = inserted_count();
    return snap;
  }

  /// Copies published row `i` (i < the corresponding count at some
  /// snapshot) into `out`, which must hold dims() doubles.
  void CopyInsertedRow(size_t i, std::span<double> out) const {
    CopyRow(inserted_, i, out);
  }
  void CopyTombstoneRow(size_t i, std::span<double> out) const {
    CopyRow(tombstones_, i, out);
  }

  /// Exact Delta(x): inserted kernel sum minus tombstone kernel sum over
  /// every published row, un-normalized (no 1/n factor). `x` and `inv_bw`
  /// hold dims() doubles. Requires mutation quiescence (see class
  /// comment); costs one SIMD block scan per kBlockPoints rows.
  double SignedKernelSum(const double* x, const double* inv_bw,
                         KernelType type, double norm, bool fast_math) const;

 private:
  struct Buffer {
    std::atomic<size_t> count{0};
    std::vector<double> storage;  // +inf-prefilled blocks of kBlockPoints.
  };

  bool Append(Buffer& buf, std::span<const double> x);
  double Sum(const Buffer& buf, const double* x, const double* inv_bw,
             KernelType type, double norm, bool fast_math) const;
  void CopyRow(const Buffer& buf, size_t i, std::span<double> out) const;

  size_t dims_ = 0;
  size_t capacity_ = 0;
  Buffer inserted_;
  Buffer tombstones_;
};

/// The affine coefficients an engine folds a quiescent overlay into its
/// base density with: f'(x) = scale * f_base(x) + offset, where
/// scale = n_b / n_eff and offset = Delta(x) / n_eff. `evaluations` is the
/// kernel-evaluation count of computing Delta (inserted + tombstones), for
/// the caller's work accounting.
struct OverlayContribution {
  double scale = 1.0;
  double offset = 0.0;
  size_t evaluations = 0;

  /// The merged density given the base engine's answer (clamped at zero:
  /// a tombstone-heavy offset can push a truncated base estimate below it).
  double Merge(double base_density) const {
    const double merged = scale * base_density + offset;
    return merged > 0.0 ? merged : 0.0;
  }
};

/// Evaluates the overlay's fold at `x` against a base model of `base_n`
/// points using `kernel`. Requires mutation quiescence (SignedKernelSum)
/// and base_n + inserted > tombstones, which the serving layer's DELETE
/// validation guarantees.
OverlayContribution ComputeOverlayContribution(const DeltaOverlay& overlay,
                                               size_t base_n,
                                               const Kernel& kernel,
                                               std::span<const double> x,
                                               bool fast_math);

/// A kernel-sum engine's answer at `x` with an optional overlay folded in.
/// A null overlay passes `base_density` through untouched; otherwise the
/// result is the fold's Merge(base_density) against a base model of
/// `base_n` points, and the overlay scan's kernel evaluations are booked
/// into `ctx`. When `self_contribution` is given it is rescaled from the
/// base model's K(0)/n_b to the merged model's K(0)/n_eff, the self-term a
/// training point discounts. The overlay half is an exact scan (no
/// fast-math).
double MergeOverlay(const DeltaOverlay* overlay, size_t base_n,
                    const Kernel& kernel, std::span<const double> x,
                    double base_density, QueryContext& ctx,
                    double* self_contribution = nullptr);

}  // namespace tkdc

#endif  // TKDC_KDE_DELTA_OVERLAY_H_
