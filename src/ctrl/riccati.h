/**
 * @file
 * One knot of the iLQR Riccati backward sweep, tiled around the known
 * structure of the explicit-Euler linearization.
 *
 * In tangent coordinates x = [δq; δq̇] the step x⁺ = A·x + B·δu has
 *
 *   A = [ I + P_q    h·I + P_v ]     B = [ 0      ]
 *       [ h·fq       I + h·fqd ]         [ h·M⁻¹ ]
 *
 * where P_q/P_v are the exact manifold patches of spherical and
 * floating joints (E_hᵀ, h·Jr and the floating-base dp/dφ blocks).
 * The top rows of A are therefore known per column: one entry (1 or
 * h), or the contiguous rows of one joint's patch block. That column
 * pattern is fixed by the joint types and computed once. B's top half
 * is zero, so Vxx·B and Quu need only the bottom n x n blocks.
 *
 * The remaining dense products run through linalg's register-tiled
 * kernels (gemm.h) and the gain solve through the row-interleaved
 * Ldlt::solveInPlace. Every result is bitwise equal to the dense
 * MatrixX formulation on finite inputs: each output element still
 * accumulates from +0 in ascending inner index, and only terms that
 * are exactly zero are left out.
 */

#ifndef DADU_CTRL_RICCATI_H
#define DADU_CTRL_RICCATI_H

#include <vector>

#include "linalg/factorize.h"
#include "linalg/matrixx.h"
#include "model/robot_model.h"

namespace dadu::ctrl {

using linalg::MatrixX;
using linalg::VectorX;

/** One knot's linearization and cost expansion (borrowed). */
struct RiccatiKnot
{
    const MatrixX &fq;   ///< ∂q̈/∂q (nv x nv)
    const MatrixX &fqd;  ///< ∂q̈/∂q̇ (nv x nv)
    const MatrixX &minv; ///< ∂q̈/∂τ = M⁻¹ (nv x nv)
    const VectorX &qd;   ///< knot velocity: sets the manifold patches
    const VectorX &lx;   ///< ∂ℓ/∂x (2nv)
    const VectorX &lu;   ///< ∂ℓ/∂u (nv)
    double wq;           ///< ∂²ℓ/∂δq² diagonal
    double wqd;          ///< ∂²ℓ/∂δq̇² diagonal
    double quu_diag;     ///< ∂²ℓ/∂u² diagonal plus regularization
};

/** Scalars one step hands back besides the gains. */
struct RiccatiTerms
{
    double qu_max = 0.0;      ///< ‖Qu‖∞ (set even when the step fails)
    double kff_qu = 0.0;      ///< kffᵀ·Qu
    double kff_quu_kff = 0.0; ///< kffᵀ·Quu·kff
};

/** Backward-sweep state (value function) and per-knot workspaces. */
class RiccatiSweep
{
  public:
    /** Size every workspace and fix A's top-row pattern for @p robot
     *  at step length @p h. */
    RiccatiSweep(const model::RobotModel &robot, double h);

    /** Value gradient / Hessian: the next knot's V' before step(),
     *  this knot's V after a successful one. */
    VectorX &vx() { return vx_; }
    MatrixX &vxx() { return vxx_; }

    /**
     * One knot: Q-expansion, gains Quu·[kff | K] = −[Qu | Qux], value
     * update. @return false when Quu is not positive definite; the
     * gains and the value function are then partial.
     */
    bool step(const RiccatiKnot &knot, VectorX &kff, MatrixX &K,
              RiccatiTerms &terms);

  private:
    /** Fill A's bottom rows, its manifold patches and B's bottom. */
    void assemble(const RiccatiKnot &knot);

    /** Spherical or floating joint: its tangent block gets a patch. */
    struct Patch
    {
        int vi;
        bool floating;
    };

    int n_;
    double h_;
    std::vector<Patch> patches_;
    /** Rows [top_lo_[c], top_hi_[c]) hold column c's possibly
     *  nonzero entries in A's top half. */
    std::vector<int> top_lo_, top_hi_;
    /** Columns of A whose top half holds more than the single 1 or h
     *  (the patch blocks' columns). */
    std::vector<int> patch_cols_;

    MatrixX a_;  ///< 2n x 2n: top half fixed except the patches
    MatrixX bb_; ///< n x n: B's bottom block h·M⁻¹
    VectorX vx_, qx_, qu_, tmpu_, tmpx_;
    MatrixX vxx_, va_, qxx_, qux_, vbb_, quu_, quuk_, kqux_;
    MatrixX rhs_; ///< n x (1 + 2n): [-Qu | -Qux], then [kff | K]
    linalg::Ldlt quu_ldlt_;       ///< nu > 6 factorization
    linalg::SmallLdlt quu_small_; ///< nu ≤ 6 fast path
};

} // namespace dadu::ctrl

#endif // DADU_CTRL_RICCATI_H
