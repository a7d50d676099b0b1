/**
 * @file
 * The end-to-end robot application of Fig. 2 / Section VI-B:
 * closed-loop whole-body MPC with a real trajectory optimizer.
 *
 * Each driver runs ctrl::MpcSession receding-horizon control ticks
 * (warm-start shift, ∆FD linearization batch, Riccati backward pass,
 * FD line-search rollouts) against a plant stepped with the reference
 * dynamics. Every solver dynamics request is served by a
 * runtime::DynamicsServer, so the same loop runs on the measured CPU
 * backend and on the modeled accelerator backends.
 *
 * Where a tick's time goes is read off the server, not timed here:
 * with SchedConfig::obs.metrics on, the registry's per-function
 * LatKind::Service sums are the dynamics time in the backend's clock
 * (measured on CpuBatchedBackend, modeled on the simulator and the
 * analytic backend), and the tick wall time minus the LatKind::EndToEnd
 * sum is the host-side controller work.
 */

#ifndef DADU_APP_CLOSED_LOOP_H
#define DADU_APP_CLOSED_LOOP_H

#include <cstddef>

#include "ctrl/problem.h"
#include "model/robot_model.h"
#include "runtime/server.h"

namespace dadu::app {

/**
 * Outcome of a closed-loop MPC run (solveClosedLoop /
 * serveClosedLoopClients). Server-side accounting covers the tick
 * stream only: the priming solves are drained before it starts.
 */
struct ClosedLoopReport
{
    std::size_t ticks = 0;      ///< control ticks served (all clients)
    double wall_us = 0.0;       ///< wall time of the tick stream
    double ticks_per_s = 0.0;   ///< ticks / wall seconds
    double final_cost = 0.0;    ///< solver horizon cost, last tick (sum)
    double tracking_err = 0.0;  ///< plant state error vs reference (max)
    bool converged = true;      ///< every client's priming solve converged
    // Server-side accounting over the run:
    std::size_t jobs = 0;       ///< dynamics jobs served
    std::size_t tasks = 0;      ///< individual dynamics requests
    double busy_us = 0.0;       ///< backend busy time, all lanes
    double makespan_us = 0.0;   ///< busiest lane's busy time, summed over drains
    std::size_t deadline_met = 0;
    std::size_t deadline_misses = 0;
    std::size_t coalesced_batches = 0;
    std::size_t steals = 0;
    // Fault-tolerance outcome of the run (zero on a healthy server):
    std::size_t degraded_ticks = 0; ///< ticks served from the stale plan
    std::size_t rejected_jobs = 0;  ///< jobs shed by admission control
    std::size_t failed_jobs = 0;    ///< jobs lost to dead lanes
    std::size_t lane_deaths = 0;    ///< lanes quarantined during the run
    std::size_t transient_faults = 0; ///< faulted submits (incl. retried)
    std::size_t retries = 0;          ///< resubmissions that recovered work
    // Column-gating engagement of the solver(s) over the run (all
    // zero when gating is off): dense ∆FD refreshes, gated ∆iFD
    // refreshes, refreshes skipped outright (nothing drifted past
    // tolerance), and the mean live-column density of the gated ones.
    long long dense_refreshes = 0;
    long long gated_refreshes = 0;
    long long skipped_refreshes = 0;
    double mean_live_density = 0.0;

    /** Fraction of tagged jobs that completed by their deadline
     *  (1.0 when nothing was tagged). */
    double
    deadlineHitRate() const
    {
        const std::size_t tagged = deadline_met + deadline_misses;
        return tagged == 0
                   ? 1.0
                   : static_cast<double>(deadline_met) / tagged;
    }
};

/**
 * One closed-loop client: a ctrl::MpcSession (reaching scenario for
 * @p robot) runs @p ticks receding-horizon ticks on the calling
 * thread, its dynamics served synchronously by @p server, which must
 * not be started. @p options tunes the solver — the column-sparsity
 * gating knobs in particular, so gated and dense loops can be
 * compared on one workload.
 *
 * The priming solve is setup: after it the server is drained and its
 * policy re-applied, which rebuilds the obs state, so the report and
 * the server's metrics registry both cover the tick stream only.
 */
ClosedLoopReport solveClosedLoop(const model::RobotModel &robot,
                                 runtime::DynamicsServer &server,
                                 int ticks, ctrl::IlqrOptions options = {});

/**
 * Heavy-traffic closed-loop scenario: @p clients MPC sessions on
 * their own threads (scenario mix: reaching / gait /
 * disturbance-recovery, phase-shifted per client) tick concurrently
 * against @p server for @p ticks control steps each. With
 * @p deadline_slack > 0 every dynamics job is deadline-tagged
 * (EDF-schedulable) via the session's predictedAdmissionUs admission
 * path, and the report's deadline buckets account the outcome.
 * Starts the server's workers when not already running (stopping
 * them again in that case); the server's accounting after priming is
 * drained into the report.
 */
ClosedLoopReport serveClosedLoopClients(const model::RobotModel &robot,
                                        runtime::DynamicsServer &server,
                                        int clients, int ticks,
                                        double deadline_slack = 0.0);

} // namespace dadu::app

#endif // DADU_APP_CLOSED_LOOP_H
