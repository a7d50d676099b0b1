/**
 * @file
 * BatchedDynamics: multi-point dynamics evaluation across a thread
 * pool with one DynamicsWorkspace per worker chunk.
 *
 * The MPC application layer (Fig. 2/13 of the paper) evaluates
 * forward dynamics, its derivatives and the mass-matrix inverse at
 * ~100 independent horizon points per iteration — the
 * parallelizable dark-blue share of Fig. 2c. This engine is the CPU
 * analogue of the accelerator's batch pipelines, and like RBDCore it
 * serves every Table I function on one datapath: N independent sample
 * points of ID, FD, M, M⁻¹, ∆ID, ∆FD or ∆iFD are fanned out over
 * app::ThreadPool in contiguous chunks, each chunk evaluated through
 * its own reusable workspace. Inputs are read and outputs written in
 * the caller's storage through strided views, so the steady-state hot
 * loop performs zero heap allocations (dispatch included: the pool's
 * runIndexed path has no std::function or queue-node allocation).
 *
 * Within a chunk, points are packed into SIMD lane packs of width W
 * (4, 8 or 16; see src/algorithms/soa/) and evaluated by the
 * lane-parallel SoA kernels. A ragged remainder of r ≥ 2 points runs
 * as one masked pack at the narrowest supported width that holds it
 * (r = 5 at W = 8 is a W = 8 pack with 3 idle lanes; r = 3 a W = 4
 * pack), so the 20-knot ∆FD batch of an MPC tick packs 16 + 4 and no
 * point of it runs scalar; only a lone last point (and the W = 1
 * path) takes the scalar workspace kernels. The SoA kernels mirror
 * the scalar algorithms expression by expression and never write an
 * idle lane, so results stay bitwise identical to the single-point
 * reference regardless of lane width, remainder, thread count or
 * which build of the lane kernels the CPU runs: chunking and packing
 * only change which thread and which register lane (not in which
 * order, per point) the arithmetic runs.
 */

#ifndef DADU_ALGORITHMS_BATCHED_H
#define DADU_ALGORITHMS_BATCHED_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "app/thread_pool.h"
#include "linalg/matrixx.h"
#include "model/robot_model.h"

namespace dadu::algo {

/**
 * Element i of a strided array: the object at byte offset i * stride
 * from the base. Views a plain array, or one field of every element
 * of an array of structs (each request's q, each result's q̈), so the
 * engine reads and writes the caller's storage in place. A
 * default-constructed view is null: the field is absent.
 */
template <typename T>
class Strided
{
  public:
    Strided() = default;

    /** The plain array @p a. */
    Strided(T *a) : base_(a) {}

    /** Field @p m of every element of the array @p a. */
    template <typename S, typename C>
    Strided(S *a, std::remove_const_t<T> C::*m)
        : base_(a ? &(a->*m) : nullptr), stride_(sizeof(S))
    {
        static_assert(std::is_same_v<std::remove_const_t<S>, C>);
    }

    T &
    operator[](int i) const
    {
        using Byte =
            std::conditional_t<std::is_const_v<T>, const char, char>;
        return *reinterpret_cast<T *>(reinterpret_cast<Byte *>(base_) +
                                      static_cast<std::size_t>(i) * stride_);
    }

    explicit operator bool() const { return base_ != nullptr; }

  private:
    T *base_ = nullptr;
    std::size_t stride_ = sizeof(T);
};

/**
 * Batched evaluation of independent dynamics sample points.
 *
 * Not thread-safe: one batch call at a time per engine (the batch
 * methods stage the inputs in engine state and the pool's indexed
 * dispatch is non-reentrant). Use one engine per producer thread,
 * or serialize calls externally.
 */
class BatchedDynamics
{
  public:
    /**
     * @param robot   model every batch entry is evaluated against.
     * @param threads total parallelism (>= 1), clamped to the
     *                hardware thread count (oversubscribing a
     *                CPU-bound batch never helps). The engine spawns
     *                threads - 1 pool workers; the calling thread
     *                participates in every batch, so exactly
     *                threadCount() chunks run concurrently, each
     *                with its own workspace.
     */
    BatchedDynamics(const RobotModel &robot, int threads);

    /**
     * Share an existing worker pool instead of owning one: several
     * engines over one host (e.g. CpuBatchedBackend clones serving
     * DynamicsServer lanes) then fan out over ONE set of workers —
     * concurrent dispatches serialize on the pool's bulk gate rather
     * than oversubscribing the cores with per-engine worker sets.
     * Each engine still owns its workspaces, so sharing the pool
     * never shares mutable numeric state.
     */
    BatchedDynamics(const RobotModel &robot,
                    std::shared_ptr<app::ThreadPool> pool);

    /** The worker pool (shared across engines cloned for one host). */
    const std::shared_ptr<app::ThreadPool> &pool() const { return pool_; }

    /** Total parallelism (pool workers + the calling thread). */
    int threadCount() const { return pool_->threadCount() + 1; }

    /** Number of per-chunk workspaces (== threadCount()). */
    int workspaceCount() const
    {
        return static_cast<int>(workspaces_.size());
    }

    /** The Table I functions the engine evaluates. */
    enum class Function
    {
        Id,
        Fd,
        M,
        Minv,
        DeltaId,
        DeltaFd,
        DeltaiFd,
    };

    /** One batch's inputs, point i at index i of each view. */
    struct Inputs
    {
        Strided<const VectorX> q;
        Strided<const VectorX> qd; ///< not read by M, M⁻¹
        /** τ (FD, ∆FD) or q̈ (ID, ∆ID, ∆iFD); not read by M, M⁻¹. */
        Strided<const VectorX> u;
        Strided<const linalg::MatrixX> minv; ///< ∆iFD only
    };

    /**
     * One batch's output slots, as soa::LaneResults: a function writes
     * each field it produces into its non-null view and touches no
     * other storage.
     *  - ID: tau.  FD: qdd.  M: m.  M⁻¹: minv.
     *  - ∆ID: tau, d_dq = ∂τ/∂q, d_dqd = ∂τ/∂q̇.
     *  - ∆FD: qdd, minv, d_dq = ∂q̈/∂q, d_dqd = ∂q̈/∂q̇.
     *  - ∆iFD: d_dq, d_dqd, and copies of its q̈ and M⁻¹ inputs.
     */
    struct Outputs
    {
        Strided<VectorX> tau, qdd;
        Strided<linalg::MatrixX> m, minv, d_dq, d_dqd;
    };

    /**
     * Evaluate @p fn at @p n sample points. Views must cover n points
     * and stay valid for the call; outputs must not alias inputs.
     *
     * @param plan optional column gating of the derivative functions
     *             (∆ID, ∆FD, ∆iFD), shared by the whole batch: live
     *             columns of the derivatives are bitwise identical to
     *             the dense batch, dead columns exactly 0.0, on both
     *             the SoA and the scalar path. Null = dense.
     */
    void evaluate(Function fn, const Inputs &in, int n, const Outputs &out,
                  const ColumnPlan *plan = nullptr);

    // The span API below runs evaluate() into engine-owned outputs
    // (valid until the next batch call, reused across calls). Only
    // the first n entries are meaningful — the arrays are grow-only,
    // so a smaller batch after a larger one does not free and
    // reallocate per-point storage.

    /** Forward dynamics q̈ = FD(q, q̇, τ) at every sample point. */
    const std::vector<VectorX> &
    batchForwardDynamics(const std::vector<VectorX> &q,
                         const std::vector<VectorX> &qd,
                         const std::vector<VectorX> &tau);

    /** Span overload: @p n sample points read from raw arrays. */
    const std::vector<VectorX> &
    batchForwardDynamics(const VectorX *q, const VectorX *qd,
                         const VectorX *tau, int n);

    /**
     * ∆FD (q̈, ∂q̈/∂q, ∂q̈/∂q̇, M⁻¹) at every sample point, gated by
     * @p plan as in evaluate().
     */
    const std::vector<FdDerivatives> &
    batchFdDerivatives(const std::vector<VectorX> &q,
                       const std::vector<VectorX> &qd,
                       const std::vector<VectorX> &tau,
                       const ColumnPlan *plan = nullptr);

    /** Span overload of batchFdDerivatives. */
    const std::vector<FdDerivatives> &
    batchFdDerivatives(const VectorX *q, const VectorX *qd,
                       const VectorX *tau, int n,
                       const ColumnPlan *plan = nullptr);

    /**
     * ∆iFD at every sample point: steps ④⑤⑥ of ∆FD with q̈ and M⁻¹
     * supplied per point, mirroring the scalar
     * fdDerivativesGivenAccel. Because the dense ①②③ prefix is
     * skipped, a gated batch's cost scales with the live-column
     * count alone — this is the fast path for derivative refreshes
     * that reuse q̈/M⁻¹ held from an earlier dense ∆FD evaluation.
     */
    const std::vector<FdDerivatives> &
    batchFdDerivativesGivenAccel(const VectorX *q, const VectorX *qd,
                                 const VectorX *qdd,
                                 Strided<const linalg::MatrixX> minv,
                                 int n, const ColumnPlan *plan = nullptr);

    /** M⁻¹(q) at every sample point. */
    const std::vector<linalg::MatrixX> &
    batchMinv(const std::vector<VectorX> &q);

    /** Span overload of batchMinv. */
    const std::vector<linalg::MatrixX> &batchMinv(const VectorX *q, int n);

    /**
     * Select the SIMD lane width: 4, 8 or 16 routes packs of that
     * width through the SoA kernels (the remainder as one narrower
     * masked pack, a lone last point scalar); 1 forces the pure
     * scalar path. The default is soa::defaultLaneWidth() (the
     * DADU_LANE_WIDTH environment override, else 8). Unsupported
     * widths are ignored. Outputs are bitwise invariant under this
     * choice. Not thread-safe against a concurrent batch call.
     */
    void setLaneWidth(int w);

    /** Current SIMD lane width (1 = scalar path). */
    int laneWidth() const { return lane_width_; }

    /** Points evaluated in SoA lane packs so far, masked remainder
     *  packs included (the rest ran scalar). */
    std::uint64_t
    packedPoints() const
    {
        return packed_points_.load(std::memory_order_relaxed);
    }

    /**
     * A workspace for the caller's own single-point work between batch
     * calls (one of the engine's, so the caller keeps no second arena).
     */
    DynamicsWorkspace &scratchWorkspace() { return workspaces_[0]; }

  private:
    static void runChunk(void *ctx, int chunk);
    void scalarPoint(DynamicsWorkspace &ws, FdDerivatives &fd, int i) const;
    Outputs fdOutputs();

    const RobotModel &robot_;
    std::shared_ptr<app::ThreadPool> pool_;
    std::vector<DynamicsWorkspace> workspaces_;
    std::vector<FdDerivatives> fd_scratch_; ///< per chunk, scalar ∆FD/∆iFD
    int lane_width_; ///< SIMD pack width (1 = scalar), set in ctor.
    std::atomic<std::uint64_t> packed_points_{0};

    // Current batch (valid during evaluate).
    std::atomic<bool> in_dispatch_{false}; ///< misuse guard (debug)
    Function fn_ = Function::Fd;
    int n_ = 0;
    Inputs in_;
    Outputs out_;
    const ColumnPlan *plan_ = nullptr;

    // Engine-owned outputs of the span API, reused across calls.
    std::vector<VectorX> qdd_out_;
    std::vector<FdDerivatives> fd_out_;
    std::vector<linalg::MatrixX> minv_out_;
};

} // namespace dadu::algo

#endif // DADU_ALGORITHMS_BATCHED_H
