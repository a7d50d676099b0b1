/**
 * @file
 * Optimal-control problem definition of the trajectory-optimization
 * subsystem.
 *
 * One OcpProblem is a quadratic tracking objective over an N-knot
 * horizon of the whole-body dynamics: configuration errors are
 * measured in the tangent space (RobotModel::difference, quaternion
 * log map on floating bases), so the cost, its gradients and the
 * Riccati value function all live in the same nv-dimensional
 * coordinates as velocities and the analytical ∆FD derivatives.
 *
 *   J = Σ_k ½·wq‖q_k ⊖ q_ref_k‖² + ½·wqd‖q̇_k − q̇_ref_k‖²
 *           + ½·wu‖u_k − u_ref_k‖²
 *     + ½·wq_term‖q_N ⊖ q_ref_N‖² + ½·wqd_term‖q̇_N − q̇_ref_N‖²
 *
 * The discrete dynamics are explicit Euler on the manifold:
 * q_{k+1} = q_k ⊕ dt·q̇_k,  q̇_{k+1} = q̇_k + dt·q̈(q_k, q̇_k, u_k),
 * whose tangent-space linearization is assembled from one batched
 * ∆FD evaluation per knot (∂q̈/∂q, ∂q̈/∂q̇, and ∂q̈/∂τ = M⁻¹).
 */

#ifndef DADU_CTRL_PROBLEM_H
#define DADU_CTRL_PROBLEM_H

#include <vector>

#include "linalg/vec.h"
#include "linalg/matrixx.h"

namespace dadu::ctrl {

using linalg::VectorX;

/** Quadratic tracking objective over an N-knot horizon. */
struct OcpProblem
{
    int knots = 20;   ///< N: control intervals (N+1 states)
    double dt = 0.02; ///< integration step between knots

    double wq = 1.0;        ///< running configuration-error weight
    double wqd = 0.1;       ///< running velocity-error weight
    double wu = 1e-3;       ///< control effort weight
    double wq_term = 10.0;  ///< terminal configuration-error weight
    double wqd_term = 1.0;  ///< terminal velocity-error weight

    /**
     * References per knot: q_ref/qd_ref have knots+1 entries
     * (running + terminal), u_ref has knots entries or is empty
     * (zero torque reference).
     */
    std::vector<VectorX> q_ref, qd_ref, u_ref;

    /**
     * Receding-horizon reference advance: true rotates the reference
     * trajectory (periodic pattern, e.g. a gait cycle) one knot per
     * shift, false slides it forward repeating the terminal entry.
     * Constant references behave identically either way.
     */
    bool periodic_ref = false;
};

/** iLQR/DDP solver knobs. */
struct IlqrOptions
{
    int max_iterations = 30;

    /** Converged when the accepted relative cost decrease falls
     *  below this. */
    double tol_cost = 1e-7;

    /** Converged when max_k ‖∂H/∂u_k‖∞ (the Qu stationarity
     *  residual) falls below this. */
    double tol_grad = 1e-5;

    double reg_init = 1e-6; ///< initial Quu Levenberg regularization
    double reg_min = 1e-9;  ///< regularization floor after successes
    double reg_max = 1e8;   ///< give up (stalled) beyond this

    int max_line_search = 10; ///< backtracking halvings per iteration
    double armijo = 1e-4;     ///< accept: decrease ≥ armijo·expected

    // ---- column-sparsity gating of the ∆FD linearization ----

    /**
     * Request only the Jacobian columns whose coordinates drifted
     * since their last linearization (false = dense, today's
     * behavior). Columns left dead reuse the solver's cached values
     * from the linearization they were last computed at — an
     * approximation bounded by gating_tol and repaired by the
     * periodic dense refresh; the line search still guards every
     * accepted step against the true cost.
     */
    bool gating = false;

    /**
     * A tangent coordinate's column goes live when its accumulated
     * state drift (tangent-space |δq_j| + |δq̇_j|, max over knots,
     * summed since the column was last computed) reaches this.
     * 0 keeps every column always live: the gated solve is then
     * bitwise identical to the dense one.
     */
    double gating_tol = 1e-4;

    /** Every K-th linearization is dense regardless of drift (cold
     *  starts are always dense). 0 disables the periodic refresh. */
    int dense_refresh_every = 8;
};

} // namespace dadu::ctrl

#endif // DADU_CTRL_PROBLEM_H
