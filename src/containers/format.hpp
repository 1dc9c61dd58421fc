// Polymorphic storage-format policy for the container layer
// (DESIGN.md §15).
//
// Every data block is immutable (COW), so format decisions happen at
// exactly one place: publish time, the snapshot boundary where a
// deferred closure hands its result to the owning handle.  The cost
// model below picks kCsr / kHyper / kBitmap / kDense from the block's
// nnz density (and, when the SpGEMM engine has one, the cached symbolic
// flop count of the op that produced it); `GRB_FORMAT` and the
// per-object GxB option pin override it.  Generic kernels never see a
// non-canonical block — format_csr_view / format_sparse_view expand one
// lazily (and cache the expansion on the block), while format-aware
// fast paths read the native block via snapshot_native().
//
// Invalidation: none needed.  Views are cached on the immutable block
// they describe and become unreachable together with it when a new
// block is published.
#pragma once

#include "containers/matrix.hpp"
#include "containers/vector.hpp"

namespace grb {

// Global format policy (GRB_FORMAT=csr|hyper|bitmap|dense|auto; default
// auto).  Resolved lazily on first use; set_format_policy overrides
// at run time (tests, the CI ablation leg, benchmarks).
enum class FormatPolicy : int {
  kAuto = -1,
  kCsr = 0,
  kHyper = 1,
  kBitmap = 2,
  kDense = 3,
};
FormatPolicy format_policy();
void set_format_policy(FormatPolicy p);

// Transpose-view cache toggle (GRB_TRANSPOSE_CACHE=0 disables; default
// on).  The off switch exists for the bench ablation: every descriptor
// transpose then recomputes the counting sort, the pre-§15 behavior.
bool transpose_cache_enabled();
void set_transpose_cache_enabled(bool on);

// Symbolic-work hint for the cost model, set (thread-locally) by the
// SpGEMM engine before the consuming publish: the cached row-cost total
// of the op that produced the block.  Consumed (and cleared) by the
// next format_adapt_* call on this thread.
void format_hint_flops(uint64_t flops);
uint64_t format_take_flops_hint();

// Cost model: the format the policy would store `m` in.  `flops_hint`
// amortizes conversion cost against the work that produced the block.
MatFormat choose_matrix_format(const MatrixData& m, uint64_t flops_hint);
VecFormat choose_vector_format(const VectorData& v);

// Pure conversions (exact: value bytes are copied verbatim, so every
// format round-trips bitwise-identically through CSR).  A conversion to
// the block's own format returns the input.
std::shared_ptr<const MatrixData> format_convert_matrix(
    const std::shared_ptr<const MatrixData>& m, MatFormat to);
std::shared_ptr<const VectorData> format_convert_vector(
    const std::shared_ptr<const VectorData>& v, VecFormat to);

// Publish-time adaptation: applies the per-object pin when `override_fmt`
// is a MatFormat/VecFormat value (>= 0), else the GRB_FORMAT policy /
// cost model.  Counts format.switches when the stored format changes.
std::shared_ptr<const MatrixData> format_adapt_matrix(
    std::shared_ptr<const MatrixData> m, int override_fmt);
std::shared_ptr<const VectorData> format_adapt_vector(
    std::shared_ptr<const VectorData> v, int override_fmt);

}  // namespace grb
