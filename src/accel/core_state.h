/**
 * @file
 * Per-task state and the per-link functional core of the RTP
 * submodules.
 *
 * Every submodule in the paper processes one joint of one task per
 * initiation interval. The cycle simulator keeps the numerical state
 * of each in-flight task in a TaskState record; the FunctionalCore
 * methods perform exactly the per-joint computation of the
 * corresponding submodule (Figs. 6-8), reading and writing that
 * record. Tokens on the simulated FIFOs then only need to carry
 * (task, link, pass) tags while the dataflow ordering guarantees the
 * same producer/consumer relationships the hardware FIFOs enforce.
 *
 * An optional fixed-point mode quantizes every submodule result to
 * the Q-format grid of the hardware datapath and routes reciprocals
 * through the float-assisted unit (Section IV-B2), so the simulator
 * reproduces the accelerator's numerics, not just its timing.
 */

#ifndef DADU_ACCEL_CORE_STATE_H
#define DADU_ACCEL_CORE_STATE_H

#include <cstdint>
#include <vector>

#include "accel/function.h"
#include "algorithms/col_gating.h"
#include "linalg/mat.h"
#include "model/robot_model.h"
#include "spatial/transform.h"

namespace dadu::accel {

using linalg::Mat66;
using model::RobotModel;
using spatial::SpatialTransform;

/** Numeric behaviour of the simulated datapath. */
struct NumericConfig
{
    bool fixed_point = true; ///< quantize to the Q-grid per submodule
    int frac_bits = 29;      ///< fractional bits of the datapath
    int taylor_terms = 6;    ///< Global Trigonometric Module order
};

/** All numerical state of one in-flight task. */
struct TaskState
{
    TaskInput in;
    TaskOutput out;

    /**
     * Resolved ∆-output column gating of the request (dense when the
     * request carries no mask). The Df/Db submodules and the Schedule
     * Module's step ⑥ skip dead columns entirely — the hardware
     * analogue of not streaming those Jacobian columns through the
     * pipeline at all.
     */
    algo::ColumnPlan plan;

    // Joint transforms (updated by forward submodules, re-updated by
    // backward submodules per Section IV-A2).
    std::vector<SpatialTransform> xup;

    // RNEA state.
    std::vector<linalg::Vec6> v, a, f;
    VectorX tau;  ///< τ of the current pass
    VectorX bias; ///< saved C from the FD bias pass
    VectorX qdd;  ///< q̈ used by the full RNEA pass

    // ∆RNEA incremental columns, indexed [link][dof column].
    std::vector<std::vector<linalg::Vec6>> dv_dq, dv_dqd;
    std::vector<std::vector<linalg::Vec6>> da_dq, da_dqd;
    std::vector<std::vector<linalg::Vec6>> df_dq, df_dqd;
    MatrixX dtau_dq, dtau_dqd;

    // MMinvGen state.
    std::vector<Mat66> ia;
    std::vector<MatrixX> fcols; ///< F_i (6 x nv)
    std::vector<MatrixX> pcols; ///< P_i (6 x nv)
    MatrixX mwork;              ///< M or Minv under construction

    // U_i and D_i⁻¹ captured before the articulated-body subtraction
    // (the payload the paper's dtr stream forwards from Mb to Mf).
    std::vector<std::vector<linalg::Vec6>> ucache;
    std::vector<MatrixX> dinvcache;

    // Bookkeeping.
    std::uint64_t issue_cycle = 0;
    std::uint64_t done_cycle = 0;
    bool active = false;
};

/**
 * The per-joint datapath of every submodule kind, operating on
 * TaskState records.
 */
class FunctionalCore
{
  public:
    FunctionalCore(const RobotModel &robot, NumericConfig cfg);

    /** Reset and size @p st for a fresh task. */
    void initTask(TaskState &st, const TaskInput &in) const;

    /** Rf_i: X update, v, a, f (Algorithm 1 lines 3-6). */
    void rneaFwd(TaskState &st, int link, bool zero_qdd) const;

    /** Rb_i: re-update X, τ_i, lazy f_λ update (lines 8-10). */
    void rneaBwd(TaskState &st, int link) const;

    /** Df_i: incremental ∂v, ∂a, ∂f columns (Fig. 7). */
    void deltaFwd(TaskState &st, int link) const;

    /** Db_i: ∂τ rows and backward ∂f transfer (Fig. 7). */
    void deltaBwd(TaskState &st, int link) const;

    /** Mb_i: Algorithm 2 backward iteration for @p link. */
    void mminvBwd(TaskState &st, int link, bool out_m) const;

    /** Mf_i: Algorithm 2 forward iteration for @p link. */
    void mminvFwd(TaskState &st, int link) const;

    /** Schedule Module step ③: q̈ = M⁻¹ (τ - C). */
    void scheduleFd(TaskState &st) const;

    /** Schedule Module step ⑥: ∂u q̈ = -M⁻¹ ∂uτ. */
    void scheduleDeltaFd(TaskState &st) const;

    const RobotModel &robot() const { return robot_; }

    /** Quantize a scalar to the datapath grid (identity in float
     * mode). */
    double quantize(double x) const;

  private:
    linalg::Vec6 quantize(const linalg::Vec6 &v) const;
    void quantizeCols(std::vector<linalg::Vec6> &cols) const;

    /**
     * Joint transform evaluated the way the hardware does: sin/cos
     * from the Global Trigonometric Module's Taylor expansion.
     */
    SpatialTransform linkTransform(const TaskState &st, int link) const;

    const RobotModel &robot_;
    NumericConfig cfg_;
    double grid_;
};

} // namespace dadu::accel

#endif // DADU_ACCEL_CORE_STATE_H
