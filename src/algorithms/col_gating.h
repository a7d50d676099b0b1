/**
 * @file
 * Column-sparsity gating for the derivative pipeline.
 *
 * ∆FD/∆ID/∆iFD Jacobian columns are arithmetically independent (each
 * tangent-space column has its own fused ∆RNEA chain), so a client
 * that knows which coordinates moved since its last linearization can
 * request only those columns. The seed set is the whole mask: an
 * empty seed means dense, a non-empty seed means exactly those
 * columns. A `ColumnPlan` is its resolved form: the sorted
 * live-column list every gated sweep iterates, plus the liveness
 * bitmap the per-column loops test.
 *
 * Contract: live columns of a gated sweep are bitwise identical to
 * the dense sweep (scalar and SoA); dead columns are exactly 0.0.
 */

#ifndef DADU_ALGORITHMS_COL_GATING_H
#define DADU_ALGORITHMS_COL_GATING_H

#include <vector>

namespace dadu::algo {

/**
 * Submit-time seed-set validation: every index in [0, nv), no
 * duplicates. Allocation-free (O(k²), k = seed size — small by
 * construction since gating only pays off for sparse seeds). An
 * empty seed is valid and means dense.
 */
bool seedValid(const std::vector<int> &seed, int nv);

/**
 * Live-column count of the resolved plan without building one —
 * what the scheduler/admission layers price. Allocation-free.
 * Assumes a valid seed; an empty seed prices dense (nv).
 */
int gatedLiveCount(const std::vector<int> &seed, int nv);

/**
 * Resolved column plan: the liveness bitmap and sorted live-column
 * list a gated derivative sweep iterates. Grow-only internals — one
 * plan re-resolved per batch allocates nothing in the steady state.
 */
class ColumnPlan
{
  public:
    /**
     * Resolve a seed set against a tangent dimension. Returns false
     * (and leaves the plan dense) on an invalid seed: out-of-range
     * or duplicate indices. The seed need not be sorted; an empty
     * seed, or one covering every column, resolves dense.
     */
    bool resolve(const std::vector<int> &seed, int nv);

    /** True when every column is live (no gating). */
    bool dense() const { return dense_; }

    /** Tangent dimension the plan was resolved against. */
    int nv() const { return nv_; }

    /** Number of live columns (== nv() when dense). */
    int liveCount() const
    {
        return dense_ ? nv_ : static_cast<int>(cols_.size());
    }

    /**
     * Sorted live columns. Only meaningful when !dense(); gated
     * sweeps iterate this instead of [0, nv).
     */
    const std::vector<int> &cols() const { return cols_; }

    /** Liveness test for one column. */
    bool isLive(int col) const
    {
        return dense_ || live_[static_cast<std::size_t>(col)] != 0;
    }

  private:
    int nv_ = 0;
    bool dense_ = true;
    std::vector<int> cols_;          ///< sorted live columns
    std::vector<unsigned char> live_; ///< per-column liveness bytes
};

} // namespace dadu::algo

#endif // DADU_ALGORITHMS_COL_GATING_H
