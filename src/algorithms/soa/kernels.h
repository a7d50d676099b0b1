/**
 * @file
 * Lane-parallel (SoA) dynamics kernels.
 *
 * Each pack* entry point evaluates one lane pack: up to kMaxLaneWidth
 * independent sample points whose fields are interleaved per lane
 * (structure of arrays) so the link-by-link sweeps vectorize across
 * the batch dimension. The kernels mirror the scalar workspace
 * algorithms expression by expression (see soa/pack.h for the
 * bitwise contract): lane l's outputs are bitwise identical to the
 * scalar kernel run on point l, for any supported width.
 *
 * Two builds: soa/kernels.cc is compiled once for the default target
 * and once for x86-64-v4 (AVX-512) when the compiler accepts it, each
 * build in its own namespace (soa::base, soa::v4). The pack* entry
 * points run the v4 build on CPUs that support it and the default
 * build elsewhere, chosen once per process by the probe the dense
 * products share (linalg/isa.h), so the lane kernels and the Riccati
 * sweep's GEMMs always run the same build. IEEE arithmetic without
 * contraction is exact in either, so both builds give the same bits.
 *
 * The batched engine runs a ragged remainder as one masked pack at
 * the narrowest width that holds it (batched.h), so masked lanes are
 * on the hot path of every batch whose size is not a multiple of W.
 *
 * Masking: `LaneBatch::mask` marks the active lanes. Inactive lanes
 * are padded internally by replicating the first active lane's
 * inputs (safe arithmetic, no NaN/div-by-zero traps) and their
 * outputs are never written — the machinery the per-column sparsity
 * gating reuses.
 *
 * Allocation: each kernel draws its pack storage from a per-width
 * arena slot inside the caller's DynamicsWorkspace, created on first
 * use and reused afterwards — steady-state calls are allocation-free,
 * like the scalar workspace kernels.
 */

#ifndef DADU_ALGORITHMS_SOA_KERNELS_H
#define DADU_ALGORITHMS_SOA_KERNELS_H

#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "linalg/matrixx.h"
#include "model/robot_model.h"

namespace dadu::algo::soa {

using linalg::MatrixX;
using linalg::VectorX;
using model::RobotModel;

/** Widest supported lane pack (not inline; see linalg::kArenaAlign). */
constexpr int kMaxLaneWidth = 16;

/** True for the widths the kernels are instantiated at: 4, 8, 16. */
bool laneWidthSupported(int w);

/**
 * Engine default lane width: DADU_LANE_WIDTH if set to 1 (scalar
 * path), 4, 8 or 16; otherwise 8 — wide enough to fill an AVX2 or
 * AVX-512 register file, narrow enough that the per-link pack state
 * of a humanoid still fits in L1/L2.
 */
int defaultLaneWidth();

/**
 * One lane pack of inputs: per-lane pointers into caller storage
 * plus the active mask (bit l set = lane l holds a sample point).
 * Pointers of inactive lanes may be null, and so may a whole field a
 * kernel does not read (e.g. qd for M⁻¹).
 */
struct LaneBatch
{
    const VectorX *q[kMaxLaneWidth] = {};
    const VectorX *qd[kMaxLaneWidth] = {};
    /** τ (FD, ABA, ∆FD) or q̈ (RNEA, ∆ID, ∆iFD), as in a request. */
    const VectorX *u[kMaxLaneWidth] = {};
    const MatrixX *minv[kMaxLaneWidth] = {}; ///< ∆iFD only
    unsigned mask = 0;

    /** Mask with the low @p w lanes active. */
    static unsigned
    fullMask(int w)
    {
        return w >= 32 ? ~0u : (1u << w) - 1u;
    }
};

/**
 * Per-lane output slots. A kernel writes each field it produces on
 * the active lanes whose slot is non-null and leaves every other slot
 * untouched, so callers point the slots straight at their own result
 * storage and skip the fields they do not need.
 */
struct LaneResults
{
    VectorX *tau[kMaxLaneWidth] = {};  ///< RNEA, ∆ID
    VectorX *qdd[kMaxLaneWidth] = {};  ///< FD, ABA, ∆FD; ∆iFD copies q̈
    MatrixX *m[kMaxLaneWidth] = {};    ///< CRBA
    MatrixX *minv[kMaxLaneWidth] = {}; ///< M⁻¹, ∆FD; ∆iFD copies M⁻¹
    MatrixX *d_dq[kMaxLaneWidth] = {}; ///< ∂τ/∂q (∆ID) or ∂q̈/∂q
    MatrixX *d_dqd[kMaxLaneWidth] = {}; ///< ∂τ/∂q̇ (∆ID) or ∂q̈/∂q̇
};

/**
 * One lane-pack kernel. @p plan gates the derivative columns of ∆FD,
 * ∆iFD and ∆ID (shared by every lane of the pack; null = dense) and
 * is ignored by the other kernels.
 */
using PackKernel = void (*)(const RobotModel &robot, DynamicsWorkspace &ws,
                            int width, const LaneBatch &in,
                            const LaneResults &out, const ColumnPlan *plan);

/** One build of the lane kernels. */
struct KernelSet
{
    PackKernel forwardDynamics, fdDerivatives, fdGivenAccel, minv, aba,
        rnea, crba, rneaDerivatives;
};

/**
 * The x86-64-v4 (AVX-512) build, or null when the compiler could not
 * build it or this CPU cannot run it; @p why (if given) then names
 * the reason.
 */
const KernelSet *v4Kernels(const char **why = nullptr);

/** The build the pack* entry points run: v4 where it can, else base. */
const KernelSet &activeKernels();

/**
 * Forward dynamics q̈ = FD(q, q̇, τ) for one lane pack, on the same
 * MMinvGen route as the scalar forwardDynamics (steps ①②③).
 * Writes `qdd`.
 */
void packForwardDynamics(const RobotModel &robot, DynamicsWorkspace &ws,
                         int width, const LaneBatch &in,
                         const LaneResults &out);

/**
 * ∆FD (q̈, ∂q̈/∂q, ∂q̈/∂q̇, M⁻¹) for one lane pack. Writes `qdd`,
 * `minv`, `d_dq` and `d_dqd`.
 *
 * @param plan optional column gating (shared by every lane of the
 *             pack — the batched engine only routes mask-uniform
 *             batches here): the per-column fused ∆RNEA chains and
 *             the final M⁻¹ product run only for live columns, which
 *             stay bitwise identical to the dense pack (and to the
 *             gated scalar kernel, lane by lane); dead columns of
 *             ∂q̈/∂u are exactly 0.0. q̈ and M⁻¹ are always dense.
 */
void packFdDerivatives(const RobotModel &robot, DynamicsWorkspace &ws,
                       int width, const LaneBatch &in,
                       const LaneResults &out,
                       const ColumnPlan *plan = nullptr);

/**
 * ∆iFD — steps ④⑤⑥ of ∆FD with q̈ (LaneBatch::u) and M⁻¹ supplied
 * as inputs, mirroring the scalar fdDerivativesGivenAccel: the dense
 * ①②③ prefix is skipped entirely, so a gated ∆iFD pack's cost
 * scales with the live-column count alone. Writes `d_dq` and `d_dqd`
 * (gated like packFdDerivatives); `qdd` and `minv` receive copies of
 * the inputs, as in the scalar kernel.
 */
void packFdGivenAccel(const RobotModel &robot, DynamicsWorkspace &ws,
                      int width, const LaneBatch &in,
                      const LaneResults &out,
                      const ColumnPlan *plan = nullptr);

/** M⁻¹(q) for one lane pack. Writes `minv`. */
void packMinv(const RobotModel &robot, DynamicsWorkspace &ws, int width,
              const LaneBatch &in, const LaneResults &out);

/**
 * Articulated-body forward dynamics for one lane pack (the direct
 * ABA route; the batched engine's FD stays on the MMinvGen route to
 * match the scalar reference bitwise, but the ABA sweep is
 * lane-parallel too). Writes `qdd`.
 */
void packAba(const RobotModel &robot, DynamicsWorkspace &ws, int width,
             const LaneBatch &in, const LaneResults &out);

/** Inverse dynamics τ = RNEA(q, q̇, q̈) for one lane pack. Writes `tau`. */
void packRnea(const RobotModel &robot, DynamicsWorkspace &ws, int width,
              const LaneBatch &in, const LaneResults &out);

/** Joint-space mass matrix M(q) (CRBA sweep). Writes `m`. */
void packCrba(const RobotModel &robot, DynamicsWorkspace &ws, int width,
              const LaneBatch &in, const LaneResults &out);

/**
 * ∆ID for one lane pack: τ = RNEA(q, q̇, q̈) and its derivatives
 * ∂τ/∂q, ∂τ/∂q̇, as the scalar rnea + rneaDerivatives pair computes
 * them. Writes `tau`, `d_dq` and `d_dqd`; @p plan gates the
 * derivative columns like packFdDerivatives (τ is always dense).
 */
void packRneaDerivatives(const RobotModel &robot, DynamicsWorkspace &ws,
                         int width, const LaneBatch &in,
                         const LaneResults &out,
                         const ColumnPlan *plan = nullptr);

// The per-build kernel tables, defined by each compilation of
// soa/kernels.cc: base for the compiler's default target, v4 only
// where it was built (reach it through v4Kernels()).
namespace base {
const KernelSet &kernels();
}
namespace v4 {
const KernelSet &kernels();
}

} // namespace dadu::algo::soa

#endif // DADU_ALGORITHMS_SOA_KERNELS_H
