/**
 * @file
 * The column-mask rule of a DynamicsRequest batch, in one place.
 *
 * A request's `seed_cols` is its whole mask: empty means dense, a
 * non-empty seed means exactly those Jacobian columns. Only the ∆
 * functions (∆ID/∆FD/∆iFD) read it; every other function ignores
 * it. The server and every backend validate, sign and price a
 * batch's masks through these helpers, so the layers cannot drift
 * apart on what a mask means.
 */

#ifndef DADU_RUNTIME_MASK_H
#define DADU_RUNTIME_MASK_H

#include <cstddef>
#include <cstdint>

#include "algorithms/col_gating.h"
#include "runtime/request.h"

namespace dadu::runtime {

/** True for the ∆ functions whose output columns a seed set gates. */
bool gatesColumns(FunctionType fn);

/**
 * Submit-time mask validation over a whole batch: false when any
 * request of a ∆ function carries an out-of-range (against @p nv) or
 * duplicate seed index. Seeds on other functions are ignored. The
 * server rejects such a job deterministically; backends return
 * SubmitStatus::InvalidRequest before any point executes.
 */
bool masksValid(FunctionType fn, const DynamicsRequest *requests,
                std::size_t count, int nv);

/** Batch mask signature of a heterogeneously-masked batch. */
inline constexpr std::uint64_t kMaskMixed = ~std::uint64_t{0};

/**
 * Mask signature of a batch, what the coalescer compares: 0 when
 * every request is dense (or @p fn is not a ∆ function), an FNV-1a
 * hash of the shared seed when every request carries the same one,
 * kMaskMixed otherwise. Merging only equal signatures keeps a merged
 * batch mask-uniform, so the backend's SoA fast path still applies.
 */
std::uint64_t maskSignature(FunctionType fn, const DynamicsRequest *requests,
                            std::size_t count);

/**
 * The plan the timing models price a ∆ batch with: the union of the
 * batch's live columns, resolved into @p plan. Returns nullptr (price
 * dense) when @p fn is not a ∆ function, the batch is empty, any
 * request is dense or carries an invalid seed, or the union covers
 * every column; otherwise &plan.
 */
const algo::ColumnPlan *unionPlan(FunctionType fn,
                                  const DynamicsRequest *requests,
                                  std::size_t count, int nv,
                                  algo::ColumnPlan &plan);

} // namespace dadu::runtime

#endif // DADU_RUNTIME_MASK_H
