/**
 * @file
 * Experiment E10 — Section VI-B: end-to-end application speedup,
 * measured on the real closed loop (iLQR whole-body MPC, reaching
 * scenario, quadruped-with-arm). The paper reports an 11.2x speedup
 * on the accelerated tasks and an 80% control-frequency improvement
 * for the whole system.
 *
 * The same loop runs three times, its dynamics on CpuBatchedBackend
 * (4 threads, measured), on the cycle-accurate simulator
 * (AcceleratorBackend, modeled) and on the closed-form AnalyticBackend
 * (modeled, the cross-check). Per tick, from the server registry:
 *
 *  - dynamics: Σ Service over the dynamics jobs, in the backend clock;
 *  - ctrl self: tick wall time − Σ EndToEnd, the host-side solver
 *    work (measured on every run).
 *
 * The accelerated tick is the simulator run's ctrl self + dynamics.
 * It leaves out host-side dispatch, which the accelerator's own
 * interface would replace. Every number built from a modeled clock
 * carries the _model suffix in BENCH_e2e.json (--json).
 */

#include "bench_util.h"
#include "closed_loop_profile.h"

#include <vector>

#include "runtime/backends.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

constexpr int kTicks = 100;
constexpr int kRounds = 3; ///< interleaved CPU / simulator runs

} // namespace

int
main(int argc, char **argv)
{
    banner("Section VI-B — end-to-end MPC application");
    const RobotModel robot = model::makeQuadrupedArm();
    Accelerator accel(robot);
    runtime::CpuBatchedBackend cpu_backend(robot, 4);
    runtime::AcceleratorBackend sim_backend(accel);
    runtime::AnalyticBackend analytic_backend(accel);

    // Measured per-tick times move with the host between runs, so the
    // CPU and simulator runs alternate and every measured number is
    // the median over the rounds. The modeled dynamics time of the
    // simulator run is the same in every round.
    std::vector<TickProfile> cpu_runs, sim_runs;
    for (int r = 0; r < kRounds; ++r) {
        cpu_runs.push_back(profileClosedLoop(robot, cpu_backend, kTicks));
        sim_runs.push_back(profileClosedLoop(robot, sim_backend, kTicks));
    }
    const TickProfile analytic =
        profileClosedLoop(robot, analytic_backend, kTicks);
    auto med = [](const std::vector<TickProfile> &runs, auto metric) {
        std::vector<double> v;
        for (const TickProfile &p : runs)
            v.push_back(metric(p));
        return median(std::move(v));
    };
    auto tick = [](const TickProfile &p) {
        return p.perTick(p.report.wall_us);
    };
    auto dynamics = [](const TickProfile &p) {
        return p.perTick(p.dynamicsUs());
    };
    auto dispatch = [](const TickProfile &p) {
        return p.perTick(p.dispatchUs());
    };
    auto ctrl_self = [](const TickProfile &p) {
        return p.perTick(p.ctrlSelfUs());
    };
    auto jobs = [](const TickProfile &p) {
        return p.perTick(static_cast<double>(p.report.jobs));
    };

    std::printf("%d closed-loop ticks per run, per tick (median of %d "
                "interleaved rounds):\n\n",
                kTicks, kRounds);
    std::printf("%16s %10s %22s %14s\n", "backend", "jobs",
                "dynamics us", "ctrl self us");
    std::printf("%16s %10.1f %10.1f (measured) %14.0f\n", "cpu-batched",
                med(cpu_runs, jobs), med(cpu_runs, dynamics),
                med(cpu_runs, ctrl_self));
    std::printf("%16s %10.1f %10.1f (modeled)  %14.0f\n", "accel-sim",
                med(sim_runs, jobs), med(sim_runs, dynamics),
                med(sim_runs, ctrl_self));
    std::printf("%16s %10.1f %10.1f (modeled)  %14.0f\n",
                "accel-analytic", jobs(analytic), dynamics(analytic),
                ctrl_self(analytic));

    const double cpu_dyn = med(cpu_runs, dynamics);
    const double sim_dyn = med(sim_runs, dynamics);
    const double analytic_dyn = dynamics(analytic);
    std::printf("\naccelerated task classes (FD + ∆FD), per tick:\n");
    std::printf("  4-thread CPU: %8.1f us  (measured)\n", cpu_dyn);
    std::printf("  Dadu-RBD:     %8.1f us  (cycle-accurate sim, modeled)\n",
                sim_dyn);
    std::printf("  analytic:     %8.1f us  (closed form, sim/analytic "
                "%.2f)\n",
                analytic_dyn, sim_dyn / analytic_dyn);
    std::printf("  speedup:      %8.1fx   (paper: 11.2x)\n",
                cpu_dyn / sim_dyn);

    // The CPU tick is measured whole; the accelerated tick keeps the
    // host's own solver work and swaps the dynamics for modeled time.
    const double cpu_tick = med(cpu_runs, tick);
    const double sim_self = med(sim_runs, ctrl_self);
    const double accel_tick = sim_self + sim_dyn;
    std::printf("\nwhole-tick control frequency:\n");
    std::printf("  4-thread CPU: %8.1f Hz  (measured, %.0f us/tick, "
                "dispatch %.0f us)\n",
                1e6 / cpu_tick, cpu_tick, med(cpu_runs, dispatch));
    std::printf("  with Dadu:    %8.1f Hz  (ctrl self %.0f us + dynamics "
                "%.1f us, modeled)\n",
                1e6 / accel_tick, sim_self, sim_dyn);
    std::printf("  improvement:  %8.0f%%   (paper: +80%%)\n",
                100.0 * (cpu_tick / accel_tick - 1.0));

    JsonReport report;
    report.add("ticks", kTicks);
    report.add("rounds", kRounds);
    report.add("cpu_tick_us", cpu_tick);
    report.add("cpu_jobs_per_tick", med(cpu_runs, jobs));
    report.add("cpu_dynamics_us_per_tick", cpu_dyn);
    report.add("cpu_dispatch_us_per_tick", med(cpu_runs, dispatch));
    report.add("cpu_ctrl_self_us_per_tick", med(cpu_runs, ctrl_self));
    report.add("accel_jobs_per_tick", med(sim_runs, jobs));
    report.add("accel_dynamics_us_per_tick_model", sim_dyn);
    report.add("accel_ctrl_self_us_per_tick", sim_self);
    report.add("accel_tick_us_model", accel_tick);
    report.add("analytic_dynamics_us_per_tick_model", analytic_dyn);
    report.add("dynamics_speedup_model", cpu_dyn / sim_dyn);
    report.add("control_freq_gain_model", cpu_tick / accel_tick - 1.0);
    maybeWriteJson(argc, argv, report, "BENCH_e2e.json");
    return 0;
}
