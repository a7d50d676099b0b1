/**
 * @file
 * Experiments E1/E2 — Fig. 2 b/c: the end-to-end robot application,
 * measured on the real closed loop: iLQR whole-body MPC (reaching
 * scenario) on the quadruped-with-arm, its dynamics served by
 * CpuBatchedBackend through a synchronous DynamicsServer.
 *
 * (c) Where a CPU tick goes: ∆FD (the linearization batch), FD (the
 *     line-search rollouts), server dispatch, and host-side solver
 *     work, from the server's Service / EndToEnd histograms. The
 *     paper highlights a 23.61% derivatives-of-dynamics share.
 * (b) Measured ticks/s vs engine threads. Thread counts above the
 *     host's hardware concurrency are skipped, not modeled. Almost
 *     every job of a tick is a 1-point FD rollout, which a batch
 *     engine cannot spread over threads, so the paper's multi-thread
 *     gain need not appear here.
 */

#include "bench_util.h"
#include "closed_loop_profile.h"

#include <thread>
#include <vector>

#include "runtime/backends.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

constexpr int kTicks = 100;
constexpr int kRounds = 3;

} // namespace

int
main()
{
    const RobotModel robot = model::makeQuadrupedArm();

    banner("Fig. 2c — where a closed-loop MPC tick goes (CPU, 4 threads)");
    {
        runtime::CpuBatchedBackend cpu(robot, 4);
        const TickProfile p = profileClosedLoop(robot, cpu, kTicks);
        const double tick = p.perTick(p.report.wall_us);
        std::printf("%d ticks, %.1f jobs/tick, %.0f us/tick (measured)\n\n",
                    kTicks,
                    p.perTick(static_cast<double>(p.report.jobs)), tick);
        auto row = [&](const char *what, double us) {
            std::printf("  %-34s %8.0f us/tick (%5.1f%%)\n", what,
                        p.perTick(us), 100.0 * p.perTick(us) / tick);
        };
        for (int f = 0; f < runtime::obs::kFunctionTypes; ++f) {
            if (p.service_us[f] > 0.0)
                row(runtime::functionName(
                        static_cast<runtime::FunctionType>(f)),
                    p.service_us[f]);
        }
        row("server dispatch", p.dispatchUs());
        row("host-side solver (iLQR + plant)", p.ctrlSelfUs());
        const double dfd = p.service_us[static_cast<int>(
            runtime::FunctionType::DeltaFD)];
        std::printf("\nderivatives-of-dynamics share: %.1f%% "
                    "(paper highlights 23.61%% of the whole app)\n",
                    100.0 * dfd / p.report.wall_us);
    }

    banner("Fig. 2b — measured tick rate vs engine threads");
    // Thread counts alternate over the rounds and each row is the
    // median, so a host slowing down mid-run cannot pose as scaling.
    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<int> counts;
    for (int threads : {1, 2, 4}) {
        if (hw != 0 && static_cast<unsigned>(threads) > hw)
            std::printf("%d threads skipped: the host has %u hardware "
                        "threads\n",
                        threads, hw);
        else
            counts.push_back(threads);
    }
    std::vector<std::vector<double>> tick_us(counts.size());
    double tasks_per_job = 0.0;
    for (int r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < counts.size(); ++i) {
            runtime::CpuBatchedBackend cpu(robot, counts[i]);
            runtime::DynamicsServer server(cpu);
            const app::ClosedLoopReport rep =
                app::solveClosedLoop(robot, server, kTicks);
            tick_us[i].push_back(rep.wall_us / rep.ticks);
            tasks_per_job = static_cast<double>(rep.tasks) / rep.jobs;
        }
    }
    std::printf("%8s %12s %10s %10s   (median of %d rounds, %.2f "
                "tasks/job)\n",
                "threads", "us/tick", "ticks/s", "relative", kRounds,
                tasks_per_job);
    const double t1 = median(tick_us[0]);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double t = median(tick_us[i]);
        std::printf("%8d %12.0f %10.0f %10.2f\n", counts[i], t, 1e6 / t,
                    t / t1);
    }
    std::printf("\npaper: time falls to ~4 threads, then flat. Here a "
                "tick is mostly 1-point FD jobs, so threads only help "
                "the one ∆FD batch.\n");
    return 0;
}
