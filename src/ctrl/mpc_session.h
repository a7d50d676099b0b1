/**
 * @file
 * Receding-horizon MPC session over the async dynamics runtime.
 *
 * One MpcSession is one closed-loop MPC client: per control tick it
 * re-anchors its iLQR solver at the measured state, warm-starts by
 * shifting the previous solution one knot, and runs one solver
 * iteration whose dynamics requests all flow through a
 * DynamicsServer — the horizon-wide ∆FD linearization as a sharded
 * (or least-loaded) flat batch, the rollout FD evaluations as small
 * flat jobs that the server's coalescer can merge across concurrent
 * sessions.
 *
 * With deadline_slack > 0 the session becomes deadline-tagged
 * (EDF-schedulable) traffic: it predicts each job's makespan with
 * sched::predictedAdmissionUs — per-task time calibrated from its own
 * previous linearization batch, queued work read from the server's
 * lane loads — and tags the job with deadline = now + slack x
 * prediction. M concurrent sessions are the closed-loop serving
 * workload of bench_mpc_solve.
 */

#ifndef DADU_CTRL_MPC_SESSION_H
#define DADU_CTRL_MPC_SESSION_H

#include <cstddef>
#include <vector>

#include "ctrl/ilqr.h"
#include "ctrl/scenarios.h"
#include "runtime/server.h"

namespace dadu::ctrl {

/** One closed-loop MPC client over a DynamicsServer. */
class MpcSession
{
  public:
    struct Config
    {
        /**
         * > 0: tag every job with deadline = now + slack x predicted
         * makespan (EDF-schedulable traffic); 0 = untagged bulk.
         */
        double deadline_slack = 0.0;
    };

    struct Stats
    {
        std::size_t ticks = 0;        ///< control ticks served
        std::size_t jobs = 0;         ///< server jobs submitted
        std::size_t tagged_jobs = 0;  ///< jobs carrying a deadline
        std::size_t deadline_met = 0;
        std::size_t deadline_misses = 0;
        /**
         * Ticks that fell back to the warm-started previous plan
         * because a dynamics job was shed or failed — the session
         * still returned a control (graceful degradation), just not a
         * re-optimized one.
         */
        std::size_t degraded_ticks = 0;
        std::size_t rejected_jobs = 0; ///< jobs shed by admission
        std::size_t failed_jobs = 0;   ///< jobs with no healthy lane
        double horizon_cost = 0.0;    ///< solver cost after last tick
    };

    MpcSession(const RobotModel &robot, Scenario scenario,
               IlqrOptions options, Config config);
    MpcSession(const RobotModel &robot, Scenario scenario,
               IlqrOptions options);
    MpcSession(const RobotModel &robot, Scenario scenario);

    /**
     * Prime the session: full iLQR solve from the scenario's initial
     * state, dynamics served by @p server. Call once before the
     * closed-loop tick stream.
     */
    IlqrSummary start(runtime::DynamicsServer &server);

    /**
     * One control tick from the measured state (@p q, @p qd):
     * warm-start shift, nominal re-rollout, one solver iteration —
     * every dynamics request through @p server.
     * @return the first control of the re-optimized horizon.
     */
    const VectorX &tick(runtime::DynamicsServer &server,
                        const VectorX &q, const VectorX &qd);

    IlqrSolver &solver() { return solver_; }
    const IlqrSolver &solver() const { return solver_; }
    const Scenario &scenario() const { return scenario_; }
    const Stats &stats() const { return stats_; }

    /**
     * Claim a client span track on the server's trace buffer: every
     * tick() records a TickBegin/TickEnd span and the solver records
     * its per-iteration spans on the same ring. Call AFTER the
     * server's final setPolicy()/addBackend() (reconfiguring drops
     * claimed rings) and BEFORE concurrent ticking starts; one
     * session's ticks must stay on one thread (the ring is SPSC).
     * No-op when the server has tracing off.
     */
    void attachTrace(runtime::DynamicsServer &server,
                     const char *name = "mpc");

  private:
    /** DynamicsChannel that submits deadline-tagged server jobs. */
    class ServerChannel : public DynamicsChannel
    {
      public:
        explicit ServerChannel(MpcSession &session)
            : session_(session)
        {}

        void run(runtime::FunctionType fn,
                 runtime::DynamicsRequest *requests, std::size_t count,
                 runtime::DynamicsResult *results) override;

        runtime::DynamicsServer *server = nullptr;

        /**
         * Set when a job of the current tick was Rejected or Failed;
         * subsequent run() calls of the tick become no-ops (the
         * solver's intermediate state is abandoned anyway) and tick()
         * falls back to the previous plan.
         */
        bool tick_failed = false;

      private:
        MpcSession &session_;
    };

    const RobotModel &robot_;
    Scenario scenario_;
    Config cfg_;
    IlqrSolver solver_;
    ServerChannel channel_;
    Stats stats_;
    VectorX u0_; ///< tick()'s returned control (pre-shift copy)
    /** Previous tick's control horizon — the degradation fallback
     *  plan, saved (buffer reused) at the top of every tick. */
    std::vector<VectorX> u_prev_;
    double task_us_ = 0.0; ///< calibrated per-FD-equivalent wall time
    runtime::obs::TraceRing *trace_ = nullptr; ///< per-tick span track
};

} // namespace dadu::ctrl

#endif // DADU_CTRL_MPC_SESSION_H
