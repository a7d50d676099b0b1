/**
 * @file
 * iLQR/DDP trajectory optimizer over the unified dynamics runtime.
 *
 * The solver's hot loop runs entirely through DynamicsBackend-served
 * requests: per iteration it
 *
 *  1. linearizes the dynamics along the horizon with ONE batched
 *     ∆FD submission (N independent knots — the pipeline-filling
 *     flat batch the paper's accelerator is built for), assembling
 *     the tangent-space A_k/B_k from ∂q̈/∂q, ∂q̈/∂q̇ and M⁻¹;
 *  2. runs a regularized Riccati backward sweep on the host
 *     (ctrl::RiccatiSweep, one step per knot): A's top rows are
 *     [I | h·I] plus the joints' fixed-pattern manifold patches and
 *     B's top half is zero, so only the dense blocks go through the
 *     register-tiled linalg kernels, and the gains come from one
 *     row-interleaved multi-RHS solve (linalg::Ldlt, or SmallLdlt for
 *     ≤6-DOF control spaces). The sweep is bitwise equal to the dense
 *     MatrixX recursion and allocates nothing in the steady state;
 *  3. rolls the feedback policy forward with a backtracking line
 *     search — RobotModel::integrateInto plus one FD request per
 *     step — accepting on an Armijo cost-decrease test.
 *
 * Convergence is declared on relative cost decrease or on the
 * stationarity residual max_k ‖Qu_k‖∞. Where the dynamics execute is
 * a DynamicsChannel choice: directly on any backend (CPU batched,
 * cycle-accurate simulator, analytic), or through a DynamicsServer
 * with QoS deadline tags (ctrl::MpcSession), without touching the
 * solver.
 */

#ifndef DADU_CTRL_ILQR_H
#define DADU_CTRL_ILQR_H

#include <cstddef>
#include <vector>

#include "ctrl/problem.h"
#include "ctrl/riccati.h"
#include "linalg/matrixx.h"
#include "model/robot_model.h"
#include "runtime/backend.h"
#include "runtime/obs/trace.h"

namespace dadu::ctrl {

using linalg::MatrixX;
using model::RobotModel;

/**
 * Dynamics submission seam of the solver: every FD/∆FD evaluation
 * flows through run(). BackendChannel executes directly on one
 * backend; MpcSession's channel submits deadline-tagged jobs to a
 * DynamicsServer. Results land in caller storage either way, so the
 * solver's zero-allocation property is channel-independent.
 */
class DynamicsChannel
{
  public:
    virtual ~DynamicsChannel() = default;

    /** Execute @p count requests of @p fn into @p results. */
    virtual void run(runtime::FunctionType fn,
                     runtime::DynamicsRequest *requests,
                     std::size_t count,
                     runtime::DynamicsResult *results) = 0;
};

/** Direct channel: requests execute on one backend, synchronously. */
class BackendChannel : public DynamicsChannel
{
  public:
    explicit BackendChannel(runtime::DynamicsBackend &backend)
        : backend_(backend)
    {}

    void
    run(runtime::FunctionType fn, runtime::DynamicsRequest *requests,
        std::size_t count, runtime::DynamicsResult *results) override
    {
        backend_.submit(fn, requests, count, results);
    }

  private:
    runtime::DynamicsBackend &backend_;
};

/** Outcome of one solve() (or of accumulated iterate() calls). */
struct IlqrSummary
{
    int iterations = 0;      ///< accepted + rejected iterations run
    double initial_cost = 0.0;
    double cost = 0.0;       ///< cost of the returned trajectory
    double grad_norm = 0.0;  ///< max_k ‖Qu_k‖∞ at the last backward pass
    bool converged = false;  ///< a tolerance was met (not stalled/maxed)
};

/** iLQR/DDP solver with persistent, reusable workspaces. */
class IlqrSolver
{
  public:
    IlqrSolver(const RobotModel &robot, OcpProblem problem,
               IlqrOptions options = {});

    const OcpProblem &problem() const { return prob_; }
    const IlqrOptions &options() const { return opts_; }

    /**
     * Set the initial state and reset the nominal controls to the
     * problem's reference controls (zero when u_ref is empty). Call
     * rolloutNominal() (or solve(), which does) afterwards to make
     * the nominal trajectory consistent.
     */
    void reset(const VectorX &q0, const VectorX &qd0);

    /**
     * Re-anchor the horizon at a new measured state, keeping the
     * current controls (the receding-horizon warm start path).
     */
    void setInitialState(const VectorX &q0, const VectorX &qd0);

    /**
     * Receding-horizon warm start: controls shift one knot toward
     * the present (u_k ← u_{k+1}, last repeated). The nominal
     * trajectory becomes stale; roll out before iterating.
     */
    void shiftControls();

    /**
     * Advance the reference trajectory one knot (the time shift that
     * matches shiftControls): rotated when the problem is
     * periodic_ref, slid-and-repeated otherwise. No-op in effect for
     * constant references.
     */
    void shiftReferences();

    /**
     * Open-loop rollout of the current controls from the initial
     * state through @p channel: fills the nominal trajectory and
     * returns (and stores) its cost.
     */
    double rolloutNominal(DynamicsChannel &channel);

    /**
     * One linearize → backward sweep → line-search iteration over
     * @p channel. Requires a consistent nominal trajectory.
     * @return true when a lower-cost trajectory was accepted.
     */
    bool iterate(DynamicsChannel &channel);

    /**
     * Full solve from @p q0/@p qd0, starting from the solver's
     * CURRENT controls: zero right after construction, the
     * problem's reference controls right after reset(), the
     * previous solution on reuse — the receding-horizon warm
     * start. Call reset() first for a reproducible cold start.
     */
    IlqrSummary solve(DynamicsChannel &channel, const VectorX &q0,
                      const VectorX &qd0);

    /** Convenience: solve with the dynamics directly on @p backend. */
    IlqrSummary
    solve(runtime::DynamicsBackend &backend, const VectorX &q0,
          const VectorX &qd0)
    {
        BackendChannel channel(backend);
        return solve(channel, q0, qd0);
    }

    // ---------------------------------------------------- accessors
    int knots() const { return prob_.knots; }
    const VectorX &q(int k) const { return q_[k]; }    ///< k in [0, N]
    const VectorX &qd(int k) const { return qd_[k]; }  ///< k in [0, N]
    const VectorX &u(int k) const { return u_[k]; }    ///< k in [0, N)
    VectorX &control(int k) { return u_[k]; } ///< seed/override controls

    double cost() const { return cost_; }
    double gradNorm() const { return grad_norm_; }
    double regularization() const { return reg_; }
    bool stalled() const { return stalled_; }

    /** Cost after every accepted iteration of the last solve()
     *  (costs_[0] is the initial rollout). Monotone non-increasing. */
    const std::vector<double> &costTrace() const { return costs_; }

    /**
     * Column-gating engagement counters, accumulated across
     * linearize calls since construction/reset(): how many refreshes
     * ran dense (∆FD, cold start / periodic / everything drifted),
     * gated (∆iFD over the live seed), or were skipped outright
     * (nothing drifted past tolerance). live_columns sums the seed
     * size over gated refreshes — live_columns / (gated · nv) is the
     * mean live density actually submitted.
     */
    struct GatingStats
    {
        long long dense = 0;
        long long gated = 0;
        long long skipped = 0;
        long long live_columns = 0;
    };
    const GatingStats &gatingStats() const { return gating_stats_; }

    /**
     * Record a per-iteration span (IterBegin/IterEnd) on @p ring —
     * null disables (the default). IterEnd carries whether the step
     * was accepted, the linearize mode this iteration engaged (dense
     * / gated / skipped) and the live-column count it submitted, so
     * a trace shows how gating and convergence interleave. Each
     * backward sweep inside it gets a nested RiccatiBegin/RiccatiEnd
     * span (regularization in, PD outcome and ‖Qu‖∞ out). The ring
     * must be single-producer: the solver's calling thread (e.g. its
     * MpcSession's claimed ring).
     */
    void setTraceRing(runtime::obs::TraceRing *ring) { trace_ = ring; }

  private:
    /** iterate() minus the tracing wrapper (the whole pre-obs body). */
    bool iterateInner(DynamicsChannel &channel);

    /** Fill lin_req_ from the nominal trajectory and run one batched
     *  ∆FD submission over the horizon. */
    void linearize(DynamicsChannel &channel);

    /**
     * Regularized Riccati sweep over lin_res_ (or the gating caches),
     * one RiccatiSweep::step per knot. Fills kff_/K_ and the
     * expected-decrease coefficients; updates grad_norm_.
     * @return false when Quu failed to factorize positive-definite
     *         at the current regularization.
     */
    bool backwardPass();

    /**
     * Roll the policy u = u_nom + α·kff + K·δx forward from the
     * initial state, writing the candidate trajectory and returning
     * its cost. α = 0 with zero gains reproduces the nominal.
     */
    double forwardPass(DynamicsChannel &channel, double alpha);

    /** Promote the candidate trajectory to nominal (pointer swaps). */
    void acceptCandidate();

    double stageCost(int k, const VectorX &q, const VectorX &qd,
                     const VectorX &u);
    double terminalCost(const VectorX &q, const VectorX &qd);

    /** Reference controls (u_ref empty means zero). */
    const VectorX *uRef(int k) const;

    const RobotModel &robot_;
    OcpProblem prob_;
    IlqrOptions opts_;

    int nv_ = 0; ///< tangent/velocity dimension (= control dimension)

    // Nominal and candidate trajectories (swapped on acceptance).
    std::vector<VectorX> q_, qd_, u_;
    std::vector<VectorX> q_new_, qd_new_, u_new_;

    // Runtime staging: one ∆FD request per knot, one FD request per
    // rollout step (grow-only, caller-owned storage for the channel).
    std::vector<runtime::DynamicsRequest> lin_req_;
    std::vector<runtime::DynamicsResult> lin_res_;
    runtime::DynamicsRequest ro_req_;
    runtime::DynamicsResult ro_res_;

    // Column-gating state (allocated only when opts_.gating is set).
    // The caches hold the merged Jacobians the backward pass reads: a
    // gated refresh overwrites the live columns, dead columns keep
    // the values from the linearization they were last computed at.
    // Dense refreshes run ∆FD and bank its q̈/M⁻¹ per knot
    // (minv_cache_/qdd_cache_); gated refreshes then submit ∆iFD
    // with those banked inputs, skipping the dense ①②③ prefix
    // entirely — the input staleness is the same order as the
    // dead-column staleness the scheme already tolerates, bounded by
    // the periodic dense refresh. q_lin_/qd_lin_ is the trajectory
    // of the PREVIOUS linearize call; drift_ accumulates each
    // coordinate's tangent movement since its column was last
    // recomputed, and resets per live column. One seed is shared by
    // every knot of the batch, so the submitted batch stays
    // mask-uniform (the backends' SoA fast path and the server
    // coalescer both key on that).
    std::vector<MatrixX> fq_cache_, fqd_cache_, minv_cache_;
    std::vector<VectorX> qdd_cache_;
    std::vector<VectorX> q_lin_, qd_lin_;
    VectorX drift_;          ///< per-coordinate accumulated drift
    std::vector<int> seed_;  ///< live-column seed of the next batch
    int lin_count_ = 0;      ///< linearize calls (dense-refresh clock)
    bool cache_valid_ = false; ///< caches hold a full linearization
    GatingStats gating_stats_;

    // Policy: u = u_nom + α·kff + K·[δq; δq̇] per knot (K: nv x 2nv).
    std::vector<VectorX> kff_;
    std::vector<MatrixX> K_;

    // Backward sweep: value function and per-knot workspaces, plus
    // the knot's cost gradients it reads.
    RiccatiSweep riccati_;
    VectorX lx_, lu_;

    // Rollout scratch.
    VectorX step_, dq_, dqd_, eq_;

    double cost_ = 0.0;
    double grad_norm_ = 0.0;
    double reg_ = 0.0;
    double d1_ = 0.0, d2_ = 0.0; ///< expected-decrease coefficients
    bool stalled_ = false; ///< regularization saturated at reg_max
    /** lin_res_ matches the current nominal trajectory; a rejected
     *  iteration leaves it valid, so the retry (higher reg, more
     *  conservative gains) skips the redundant ∆FD batch. */
    bool lin_valid_ = false;
    std::vector<double> costs_;  ///< accepted-cost trace (reserved)
    runtime::obs::TraceRing *trace_ = nullptr; ///< per-iteration spans
};

} // namespace dadu::ctrl

#endif // DADU_CTRL_ILQR_H
