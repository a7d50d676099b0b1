/**
 * @file
 * Whole-body MPC for the quadruped-with-arm (the Fig. 3 robot): a
 * real iLQR closed loop (reaching scenario) whose dynamics go through
 * the unified runtime layer, run once per backend — multi-threaded
 * CPU, cycle-accurate accelerator simulation, and the closed-form
 * analytic model — the end-to-end scenario of Section VI-B behind one
 * DynamicsBackend interface.
 *
 * Tick rates are host wall clock. The dynamics time per tick is read
 * from the server's metrics registry in the backend's clock: measured
 * on the CPU, modeled on the two accelerator backends.
 */

#include <cstdio>

#include "accel/accelerator.h"
#include "app/closed_loop.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/server.h"

int
main()
{
    using namespace dadu;

    const model::RobotModel robot = model::makeQuadrupedArm();
    std::printf("robot: %s (NB=%d, N=%d) — the paper's Fig. 3 "
                "walkthrough configuration\n",
                robot.name().c_str(), robot.nb(), robot.nv());

    accel::Accelerator dadu(robot);
    std::printf("accelerator: %s\n", dadu.plan().summary().c_str());

    runtime::CpuBatchedBackend cpu_backend(robot, 4);
    runtime::AcceleratorBackend sim_backend(dadu);
    runtime::AnalyticBackend analytic_backend(dadu);
    runtime::DynamicsBackend *backends[] = {&cpu_backend, &sim_backend,
                                            &analytic_backend};

    const int ticks = 40;
    std::printf("\n%d closed-loop ticks per backend "
                "(MpcSession -> DynamicsServer -> backend):\n",
                ticks);
    std::printf("%-16s %10s %10s %22s %10s\n", "backend", "ticks/s",
                "jobs/tick", "dynamics us/tick", "track err");
    for (runtime::DynamicsBackend *backend : backends) {
        runtime::DynamicsServer server(*backend);
        runtime::sched::SchedConfig cfg;
        cfg.obs.metrics = true;
        server.setPolicy(cfg);
        const app::ClosedLoopReport r =
            app::solveClosedLoop(robot, server, ticks);
        const double dynamics_us =
            server.metricsRegistry()
                ->mergedHistogram(false, runtime::obs::LatKind::Service)
                .sumUs() /
            r.ticks;
        std::printf("%-16s %10.0f %10.1f %12.1f (%s) %10.4f\n",
                    backend->name(), r.ticks_per_s,
                    static_cast<double>(r.jobs) / r.ticks, dynamics_us,
                    backend->offloaded() ? "modeled" : "measured",
                    r.tracking_err);
    }
    return 0;
}
