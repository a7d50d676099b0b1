/**
 * @file
 * Real trajectory optimization over the runtime: iLQR/DDP solve and
 * closed-loop MPC throughput per backend, plus the multi-client MPC
 * serving scenario.
 *
 * Three parts (BENCH_mpc.json via --json):
 *
 *  1. Open-loop solves — for each evaluation robot (iiwa, HyQ,
 *     Atlas) and scenario (reaching, gait tracking, disturbance
 *     recovery), iterations-to-convergence and cost drop of the
 *     iLQR solver with the dynamics on the CPU batched backend.
 *     Every problem must converge: the dynamics backends are only
 *     control-grade if they drive a solver to an optimum.
 *
 *  2. Closed-loop ticks/s per backend — the receding-horizon MPC
 *     loop (warm-start shift + one solver iteration per tick) of
 *     app::solveClosedLoop on the CPU batched backend and the
 *     analytic accelerator backend: a real backward pass over real
 *     ∆FD linearizations.
 *
 *  3. MPC serving — M closed-loop clients (scenario mix) tick
 *     concurrently against the async DynamicsServer over two
 *     analytic lanes under EDF + coalescing + stealing, every
 *     dynamics job deadline-tagged through the
 *     predictedAdmissionUs admission path. Reported: aggregate
 *     ticks/s and the deadline-hit rate.
 *
 * --trace additionally records the serving section's job lifecycle
 * (per-lane rings plus one claimed ring per MPC client, wired by
 * app::serveClosedLoopClients via MpcSession::attachTrace)
 * and exports trace_mpc.json.
 */

#include "bench_util.h"

#include <string>

#include "app/closed_loop.h"
#include "ctrl/ilqr.h"
#include "ctrl/scenarios.h"
#include "runtime/backends.h"
#include "runtime/obs/export.h"
#include "runtime/obs/trace.h"
#include "runtime/sched/policy.h"
#include "runtime/server.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

constexpr int kClosedLoopTicks = 60;
constexpr int kServeClients = 4;
constexpr int kServeTicks = 40;
constexpr double kServeSlack = 4.0;

} // namespace

int
main(int argc, char **argv)
{
    banner("MPC solve — iLQR/DDP trajectory optimization over the "
           "runtime");
    JsonReport report;

    // ---- 1. open-loop convergence per robot x scenario -----------
    std::printf("\n%-6s %-22s %5s %12s %12s %10s %5s\n", "robot",
                "scenario", "iters", "cost0", "cost*", "grad", "conv");
    for (const EvalEntry &e : evalRobots()) {
        const RobotModel robot = e.make();
        runtime::CpuBatchedBackend backend(robot, 4);
        for (int which = 0; which < 3; ++which) {
            ctrl::Scenario sc = ctrl::makeScenario(robot, which);
            ctrl::IlqrSolver solver(robot, sc.problem);
            const ctrl::IlqrSummary sum =
                solver.solve(backend, sc.q0, sc.qd0);
            std::printf("%-6s %-22s %5d %12.4f %12.4f %10.2e %5d\n",
                        e.name, sc.name, sum.iterations,
                        sum.initial_cost, sum.cost, sum.grad_norm,
                        sum.converged);
            const std::string k =
                std::string("solve_") + e.name + "_" + sc.name;
            report.add(k + "_iters", sum.iterations);
            report.add(k + "_cost", sum.cost);
            report.add(k + "_converged", sum.converged ? 1.0 : 0.0);
        }
    }

    // ---- 2. closed-loop ticks/s per backend ----------------------
    std::printf("\n%-6s %-16s %10s %10s %10s\n", "robot", "backend",
                "ticks/s", "track err", "jobs");
    for (const EvalEntry &e : evalRobots()) {
        const RobotModel robot = e.make();
        Accelerator accel(robot);

        runtime::CpuBatchedBackend cpu(robot, 4);
        runtime::AnalyticBackend analytic(accel);
        runtime::DynamicsBackend *backends[] = {&cpu, &analytic};
        for (runtime::DynamicsBackend *b : backends) {
            runtime::DynamicsServer server(*b);
            const app::ClosedLoopReport r =
                app::solveClosedLoop(robot, server, kClosedLoopTicks);
            std::printf("%-6s %-16s %10.0f %10.4f %10zu\n", e.name,
                        b->name(), r.ticks_per_s, r.tracking_err,
                        r.jobs);
            const std::string k = std::string("closed_loop_") +
                                  e.name + "_" + b->name();
            report.add(k + "_ticks_per_s", r.ticks_per_s);
            report.add(k + "_tracking_err", r.tracking_err);
        }
    }

    // ---- 3. MPC serving: M clients on the async server -----------
    {
        const RobotModel robot = model::makeIiwa();
        Accelerator accel(robot);
        runtime::AnalyticBackend lane0(accel);
        auto lane1 = lane0.clone();
        runtime::DynamicsServer server(lane0);
        server.addBackend(*lane1);
        runtime::sched::SchedConfig cfg;
        cfg.kind = runtime::sched::PolicyKind::Edf;
        cfg.coalesce = true;
        cfg.steal = true;
        const bool want_trace = hasFlag(argc, argv, "--trace");
        if (want_trace) {
            cfg.obs.trace = true;
            // kServeClients sessions x kServeTicks ticks each fan
            // out many jobs per tick; give the rings headroom so the
            // exported trace keeps whole job flows.
            cfg.obs.ring_capacity = 1 << 15;
        }
        server.setPolicy(cfg);

        const app::ClosedLoopReport r = app::serveClosedLoopClients(
            robot, server, kServeClients, kServeTicks, kServeSlack);
        if (want_trace && server.traceBuffer()) {
            const char *path = "trace_mpc.json";
            if (runtime::obs::writeChromeTrace(*server.traceBuffer(),
                                               path))
                std::printf("wrote %s\n", path);
            else
                std::printf("failed to write %s\n", path);
        }
        std::printf("\nserving: %d clients x %d ticks on 2 analytic "
                    "lanes (EDF+coalesce+steal)\n",
                    kServeClients, kServeTicks);
        std::printf("  ticks/s %.0f  deadline hit rate %.3f "
                    "(%zu met / %zu missed)  merged %zu  steals %zu\n",
                    r.ticks_per_s, r.deadlineHitRate(), r.deadline_met,
                    r.deadline_misses, r.coalesced_batches, r.steals);
        report.add("serve_clients", kServeClients);
        report.add("serve_ticks_per_s", r.ticks_per_s);
        report.add("serve_deadline_hit_rate", r.deadlineHitRate());
        report.add("serve_deadline_met",
                   static_cast<double>(r.deadline_met));
        report.add("serve_deadline_misses",
                   static_cast<double>(r.deadline_misses));
        report.add("serve_coalesced_batches",
                   static_cast<double>(r.coalesced_batches));
        report.add("serve_steals", static_cast<double>(r.steals));
    }

    maybeWriteJson(argc, argv, report, "BENCH_mpc.json");
    return 0;
}
