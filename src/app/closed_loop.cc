#include "app/closed_loop.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/aba.h"
#include "algorithms/workspace.h"
#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "perf/timing.h"

namespace dadu::app {

using linalg::VectorX;
using model::RobotModel;
using perf::nowUs;

namespace {

/**
 * Ticks per drain round of the closed-loop drivers: the server
 * retires completed job records only at drain(), so an undrained
 * tick stream would grow its job deque linearly with run length.
 * Draining happens at round boundaries with no client thread
 * running (a join barrier), so it can never race a session's
 * post-wait deadline reads.
 */
constexpr int kTicksPerDrain = 16;

/** Per-client plant state persisting across drain rounds. */
struct PlantState
{
    explicit PlantState(const RobotModel &robot) : ws(robot) {}
    algo::DynamicsWorkspace ws;
    VectorX q, qd, qdd, step, q_next;
};

/**
 * One round of the tick stream of a closed-loop client: drive an
 * already-primed session against a plant stepped with the reference
 * dynamics (ABA + manifold Euler, the ground truth the backends are
 * validated against). Priming (MpcSession::start) happens before
 * the caller starts its tick-throughput clock, so ticks_per_s
 * measures the steady receding-horizon loop, not the cold solve.
 */
void
tickClosedLoopClient(const RobotModel &robot, ctrl::MpcSession &session,
                     runtime::DynamicsServer &server, int ticks,
                     PlantState &st)
{
    const double dt = session.scenario().problem.dt;
    for (int t = 0; t < ticks; ++t) {
        const VectorX &u = session.tick(server, st.q, st.qd);
        algo::aba(robot, st.ws, st.q, st.qd, u, st.qdd);
        st.step.resize(st.qd.size());
        for (std::size_t j = 0; j < st.qd.size(); ++j)
            st.step[j] = dt * st.qd[j];
        robot.integrateInto(st.q, st.step, st.q_next);
        st.q = st.q_next;
        for (std::size_t j = 0; j < st.qd.size(); ++j)
            st.qd[j] += dt * st.qdd[j];
    }
}

/**
 * Plant tracking error against the session's LIVE front reference:
 * tick() rotates periodic references one knot per tick, so the live
 * q_ref[0] is the pattern sample at the plant's current time (for
 * constant references it equals the scenario's terminal entry).
 */
double
trackingErr(const RobotModel &robot, const ctrl::MpcSession &session,
            const PlantState &st, VectorX &err)
{
    robot.differenceInto(session.solver().problem().q_ref[0], st.q,
                         err);
    return err.maxAbs();
}

/** Accumulate the server's accounting interval into the report's
 *  server-side fields (shared by both closed-loop entry points;
 *  accumulating so periodic round drains compose). */
void
drainServerInto(runtime::DynamicsServer &server, ClosedLoopReport &report)
{
    runtime::ServerStats stats;
    runtime::sched::SchedStats sstats;
    server.drain(&stats, &sstats);
    report.jobs += stats.jobs;
    report.tasks += stats.tasks;
    report.busy_us += stats.busy_us;
    report.deadline_met += sstats.deadline_met;
    report.deadline_misses += sstats.deadline_misses;
    report.coalesced_batches += sstats.coalesced_batches;
    report.steals += sstats.steals;
    report.rejected_jobs += sstats.rejected_jobs;
    report.failed_jobs += sstats.failed_jobs;
    report.lane_deaths += sstats.lane_deaths;
    report.transient_faults += sstats.transient_faults;
    report.retries += sstats.retries;
    report.makespan_us += stats.makespan_us;
}

} // namespace

ClosedLoopReport
solveClosedLoop(const RobotModel &robot, runtime::DynamicsServer &server,
                int ticks, ctrl::IlqrOptions options)
{
    ctrl::MpcSession session(robot, ctrl::makeReachingScenario(robot),
                             options);
    ClosedLoopReport report;
    report.converged = session.start(server).converged;
    // Priming is setup: drop its accounting, and re-apply the policy
    // so the metrics registry (rebuilt with the obs state) starts at
    // the first tick too.
    server.drain();
    const runtime::sched::SchedConfig cfg = server.schedConfig();
    server.setPolicy(cfg);
    PlantState st(robot);
    st.q = session.scenario().q0;
    st.qd = session.scenario().qd0;
    const double t0 = nowUs();
    for (int done = 0; done < ticks; done += kTicksPerDrain) {
        tickClosedLoopClient(robot, session, server,
                             std::min(kTicksPerDrain, ticks - done),
                             st);
        drainServerInto(server, report);
    }
    report.wall_us = nowUs() - t0;
    VectorX err;
    report.tracking_err = trackingErr(robot, session, st, err);
    report.ticks = session.stats().ticks;
    report.ticks_per_s =
        report.wall_us > 0.0 ? report.ticks * 1e6 / report.wall_us : 0.0;
    report.final_cost = session.stats().horizon_cost;

    const ctrl::IlqrSolver::GatingStats &gs =
        session.solver().gatingStats();
    report.dense_refreshes = gs.dense;
    report.gated_refreshes = gs.gated;
    report.skipped_refreshes = gs.skipped;
    report.mean_live_density =
        gs.gated > 0 ? static_cast<double>(gs.live_columns) /
                           (static_cast<double>(gs.gated) * robot.nv())
                     : 0.0;

    return report;
}

ClosedLoopReport
serveClosedLoopClients(const RobotModel &robot,
                       runtime::DynamicsServer &server, int clients,
                       int ticks, double deadline_slack)
{
    // One session per client, scenario mix phase-shifted per client
    // so the concurrent traffic differs without losing determinism.
    // MpcSession clamps negative slack too; clamping here keeps the
    // untagged-bulk interpretation visible at the workload boundary.
    deadline_slack = std::max(0.0, deadline_slack);
    std::vector<std::unique_ptr<ctrl::MpcSession>> sessions;
    sessions.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        ctrl::Scenario sc =
            ctrl::makeScenario(robot, c, 16, 0.01, 0.7 * c);
        ctrl::MpcSession::Config cfg;
        cfg.deadline_slack = deadline_slack;
        sessions.push_back(std::make_unique<ctrl::MpcSession>(
            robot, std::move(sc), ctrl::IlqrOptions{}, cfg));
        // When the caller enabled tracing on the server, give each
        // client its own ring so solver-side events land on a named
        // per-client track (attachTrace is a no-op otherwise).
        if (server.traceBuffer()) {
            char name[32];
            std::snprintf(name, sizeof(name), "mpc%d", c);
            sessions[c]->attachTrace(server, name);
        }
    }

    const bool was_running = server.running();
    if (!was_running)
        server.start();

    // Prime every session before the throughput clock starts: the
    // cold full solves are setup, not tick-stream work.
    ClosedLoopReport report;
    for (int c = 0; c < clients; ++c) {
        if (!sessions[c]->start(server).converged)
            report.converged = false;
    }
    server.drain();

    std::vector<PlantState> plants;
    plants.reserve(clients);
    for (int c = 0; c < clients; ++c) {
        plants.emplace_back(robot);
        plants[c].q = sessions[c]->scenario().q0;
        plants[c].qd = sessions[c]->scenario().qd0;
    }

    // Rounds of concurrent ticking with a drain at each join
    // barrier: the clients stress the server together, while job
    // records retire every kTicksPerDrain ticks instead of piling
    // up for the whole run.
    const double t0 = nowUs();
    for (int done = 0; done < ticks; done += kTicksPerDrain) {
        const int round = std::min(kTicksPerDrain, ticks - done);
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (int c = 0; c < clients; ++c) {
            threads.emplace_back([&robot, &server, &sessions, &plants,
                                  c, round] {
                tickClosedLoopClient(robot, *sessions[c], server,
                                     round, plants[c]);
            });
        }
        for (std::thread &t : threads)
            t.join();
        drainServerInto(server, report);
    }
    report.wall_us = nowUs() - t0;

    VectorX err;
    for (int c = 0; c < clients; ++c) {
        report.tracking_err =
            std::max(report.tracking_err,
                     trackingErr(robot, *sessions[c], plants[c], err));
        report.final_cost += sessions[c]->stats().horizon_cost;
        report.ticks += sessions[c]->stats().ticks;
        report.degraded_ticks += sessions[c]->stats().degraded_ticks;
    }
    report.ticks_per_s =
        report.wall_us > 0.0 ? report.ticks * 1e6 / report.wall_us : 0.0;
    if (!was_running)
        server.stop();

    return report;
}

} // namespace dadu::app
