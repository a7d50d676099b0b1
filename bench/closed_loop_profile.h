/**
 * @file
 * Where the time of a closed-loop MPC tick goes, read off the
 * server's metrics registry: the shared measurement behind the
 * Fig. 2 and Section VI-B benches.
 *
 * One app::solveClosedLoop run per backend on a synchronous server
 * with SchedConfig::obs.metrics on. Per function, the sum of the
 * LatKind::Service histogram is the dynamics time in the backend's
 * clock (measured on CpuBatchedBackend, modeled on the accelerator
 * backends); the LatKind::EndToEnd sum is the wall time the solver
 * spent inside server jobs. The tick stream's wall time minus that is
 * the host-side controller work ("ctrl self": iLQR backward pass,
 * costs, line-search bookkeeping, plant step).
 */

#ifndef DADU_BENCH_CLOSED_LOOP_PROFILE_H
#define DADU_BENCH_CLOSED_LOOP_PROFILE_H

#include "app/closed_loop.h"
#include "runtime/backend.h"
#include "runtime/obs/metrics.h"
#include "runtime/server.h"

namespace dadu::bench {

/** Tick-stream totals of one closed-loop run. */
struct TickProfile
{
    app::ClosedLoopReport report;
    double service_us[runtime::obs::kFunctionTypes] = {}; ///< backend clock
    double e2e_us = 0.0; ///< wall time inside server jobs

    double
    dynamicsUs() const
    {
        double sum = 0.0;
        for (double us : service_us)
            sum += us;
        return sum;
    }

    /** Job wall time beyond the backend's own time: server dispatch
     *  on a measured backend (meaningless on a modeled one). */
    double dispatchUs() const { return e2e_us - dynamicsUs(); }

    /** Host-side controller work outside server jobs. */
    double ctrlSelfUs() const { return report.wall_us - e2e_us; }

    double
    perTick(double us) const
    {
        return report.ticks > 0 ? us / report.ticks : 0.0;
    }
};

/** Run @p ticks closed-loop ticks on @p backend and sum the registry. */
inline TickProfile
profileClosedLoop(const model::RobotModel &robot,
                  runtime::DynamicsBackend &backend, int ticks)
{
    using runtime::obs::LatKind;
    runtime::DynamicsServer server(backend);
    runtime::sched::SchedConfig cfg;
    cfg.obs.metrics = true;
    server.setPolicy(cfg);
    TickProfile p;
    p.report = app::solveClosedLoop(robot, server, ticks);
    const runtime::obs::MetricsRegistry &reg = *server.metricsRegistry();
    for (int f = 0; f < runtime::obs::kFunctionTypes; ++f) {
        const auto fn = static_cast<runtime::FunctionType>(f);
        for (bool tagged : {false, true}) {
            p.service_us[f] +=
                reg.histogram(fn, tagged, LatKind::Service).sumUs();
            p.e2e_us += reg.histogram(fn, tagged, LatKind::EndToEnd).sumUs();
        }
    }
    return p;
}

} // namespace dadu::bench

#endif // DADU_BENCH_CLOSED_LOOP_PROFILE_H
