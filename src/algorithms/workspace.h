/**
 * @file
 * DynamicsWorkspace: a reusable per-thread arena for the reference
 * rigid-body algorithms.
 *
 * The seed implementations heap-allocated a dozen std::vector /
 * MatrixX temporaries on every call into aba(), rnea(), crba(),
 * mminvGen() and rneaDerivatives(). At MPC rates (~100 horizon
 * points x 4 RK4 stages per iteration, Fig. 2/13 of the paper) the
 * CPU baseline was dominated by allocator traffic rather than FLOPs.
 *
 * A DynamicsWorkspace owns every per-link temporary those algorithms
 * need — transforms, link states, articulated inertias, the
 * per-joint U/D⁻¹/u blocks, the ∆RNEA column-Jacobian arenas, the
 * MMinvGen force workspaces, and joint-space scratch vectors — sized
 * once from a RobotModel by ensure() and reused across calls. The
 * workspace-taking overloads declared in each algorithm header write
 * into caller-provided outputs and perform zero heap allocations in
 * the steady state (after the first call at a given model size).
 *
 * Workspaces are not thread-safe: use one workspace per thread (the
 * BatchedDynamics engine owns one per worker chunk).
 */

#ifndef DADU_ALGORITHMS_WORKSPACE_H
#define DADU_ALGORITHMS_WORKSPACE_H

#include <array>
#include <memory>
#include <vector>

#include "algorithms/rnea.h"
#include "algorithms/rnea_derivatives.h"
#include "linalg/aligned.h"
#include "linalg/factorize.h"
#include "linalg/mat.h"
#include "linalg/matrixx.h"
#include "linalg/vec.h"
#include "model/robot_model.h"
#include "spatial/inertia.h"
#include "spatial/transform.h"

namespace dadu::algo {

using linalg::MatrixX;
using linalg::Vec6;
using linalg::VectorX;
using model::RobotModel;

/**
 * Type-erased base of the lane-pack arenas in src/algorithms/soa/.
 * DynamicsWorkspace carries one slot per supported lane width so the
 * SoA kernels reuse grow-once pack storage alongside the scalar
 * arenas; ensure() drops the slots whenever the topology changes, so
 * a live arena always matches the workspace's model.
 */
struct SoaArenaBase
{
    virtual ~SoaArenaBase() = default;
    /** Which lane-kernel build and width made the arena. */
    const void *kind = nullptr;
};

/** Reusable arena for all per-call dynamics temporaries. */
struct DynamicsWorkspace
{
    DynamicsWorkspace() = default;

    explicit DynamicsWorkspace(const RobotModel &robot) { ensure(robot); }

    /**
     * Size the arena for @p robot. A no-op (and allocation-free) when
     * the workspace is already sized for a model with identical
     * topology; otherwise every buffer is (re)allocated and the
     * topology caches are rebuilt.
     */
    void ensure(const RobotModel &robot);

    /**
     * Fill xup with the link transforms iXλ(q). Composite routines
     * (∆FD) call this once and pass reuse_transforms = true to the
     * individual sweeps, which share the same transforms instead of
     * re-evaluating the joint trigonometry three times per point.
     */
    void computeTransforms(const RobotModel &robot, const VectorX &q);

    /** Dimensions the arena is currently sized for. */
    int nb = 0;
    int nq = 0;
    int nv = 0;

    // ----- per-link sweep state (ABA / RNEA / CRBA / MMinvGen) -----
    // All POD per-link arenas use the 64-byte (cache line) aligned
    // allocator: required by the SoA lane kernels' pack layout and
    // harmless for the scalar sweeps. ensure() asserts the alignment
    // in debug builds.
    linalg::aligned_vector<spatial::SpatialTransform> xup; ///< iXλ per link.
    linalg::aligned_vector<Vec6> v;                        ///< velocities.
    linalg::aligned_vector<Vec6> c;                        ///< bias terms.
    linalg::aligned_vector<Vec6> a;                        ///< accelerations.
    linalg::aligned_vector<Vec6> pa;                       ///< bias forces.
    linalg::aligned_vector<Vec6> f;                        ///< forces.
    linalg::aligned_vector<linalg::Mat66> ia;              ///< I^A per link.
    linalg::aligned_vector<spatial::ArticulatedInertia> ic; ///< I^C (CRBA).

    // ----- per-joint small blocks, flat with fixed strides -----
    /** U columns: entry [i*6 + k] is I^A_i S_i e_k, k < nv(i). */
    linalg::aligned_vector<Vec6> ucols;
    /** D⁻¹ blocks: rows [i*36 ..] hold the ni x ni inverse, stride ni. */
    linalg::aligned_vector<double> dinv;
    /** u vectors: entry [i*6 + k]. */
    linalg::aligned_vector<double> uvec;
    /** Fixed-capacity LDLT used for every joint-space D_i factor. */
    linalg::SmallLdlt small_ldlt;

    // ----- MMinvGen force / propagation workspaces -----
    // Stored transposed (nv x 6) so each spatial column F[:, j] is
    // six contiguous doubles — the sweeps only ever touch whole
    // columns.
    std::vector<MatrixX> fmat; ///< F_i^T, nv x 6 per link.
    std::vector<MatrixX> pmat; ///< P_i^T, nv x 6 per link (Minv sweep).

    // ----- topology caches (depend only on the model) -----
    /** DOF columns spanned by each subtree, increasing order. */
    std::vector<std::vector<int>> tree_cols;
    /** Root-path DOF columns of each link (∆RNEA active columns). */
    std::vector<std::vector<int>> active_cols;
    /**
     * Related DOF columns of each link: ancestors + self +
     * descendants (active_cols ∪ tree_cols), increasing order. The
     * only columns of ∂f_i/∂x that can be nonzero — the ∆RNEA
     * backward sweep iterates these instead of all nv (the
     * branch-induced sparsity of Fig. 5 / Section V-C4).
     */
    std::vector<std::vector<int>> rel_cols;

    /**
     * One ∆RNEA column-Jacobian cell (Fig. 7b): column `col` of
     * link i's six incremental Jacobians, interleaved so the
     * forward and backward sweeps touch one contiguous block per
     * (link, column) instead of six scattered arenas.
     */
    struct DerivCell
    {
        Vec6 dv_dq, dv_dqd;
        Vec6 da_dq, da_dqd;
        Vec6 df_dq, df_dqd;
    };

    /** ∆RNEA cells, nb * nv entries, cell (i, col) at [i*nv + col]. */
    linalg::aligned_vector<DerivCell> dcells;

    /**
     * Lane-pack arenas, one slot per supported SoA width (4/8/16),
     * created lazily by the soa:: kernels on first use at that width
     * and reused (grow-once) afterwards. Reset by ensure() on any
     * topology change. Owning a unique_ptr makes the workspace
     * move-only, which every existing user already satisfies.
     */
    std::array<std::unique_ptr<SoaArenaBase>, 3> soa_arenas;

    // ----- joint-space scratch -----
    VectorX zero_nv;    ///< Constant zero vector of size nv.
    VectorX bias;       ///< C(q, q̇) in composite routines.
    VectorX tmp_nv;     ///< τ - C and similar.
    VectorX tangent;    ///< Finite-difference tangent step.
    VectorX q_plus, q_minus;     ///< Perturbed configurations.
    VectorX vel_plus, vel_minus; ///< Perturbed velocities.
    VectorX qdd_plus, qdd_minus; ///< Finite-difference accelerations.
    MatrixX minv_tmp;   ///< M⁻¹ scratch for forwardDynamics.
    RneaResult rnea_res, rnea_plus, rnea_minus; ///< RNEA outputs.
    RneaDerivatives did; ///< ∆RNEA scratch (∆FD steps ④⑤).

  private:
    /** Topology signature: (parent, vIndex, nv) per link + dims. */
    std::vector<int> sig_;
    std::vector<int> sig_scratch_;

    static void topologySignature(const RobotModel &robot,
                                  std::vector<int> &out);
};

/**
 * The calling thread's shared workspace, used by every legacy
 * (allocating-signature) wrapper so a thread keeps exactly one
 * arena no matter how many entry points it touches. ensure() adapts
 * it when the model changes.
 */
DynamicsWorkspace &threadLocalWorkspace();

} // namespace dadu::algo

#endif // DADU_ALGORITHMS_WORKSPACE_H
