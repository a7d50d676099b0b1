/**
 * @file
 * Column-sparsity gating sweep (BENCH_sparsity.json via --json).
 *
 * Three parts:
 *
 *  1. Measured single-core derivative refresh — dense vs gated at
 *     seed densities 12.5/25/50 % on the evaluation robots (iiwa,
 *     HyQ, Atlas), in two pipelines:
 *
 *     dfd_*  — one-shot ∆FD: the gated sweeps skip dead columns of
 *              the derivative steps ④⑤⑥ while q̈ and M⁻¹ (steps
 *              ①②③) stay dense, so the speedup saturates at the
 *              dense share of those steps.
 *     difd_* — the gated REFRESH pipeline the iLQR client actually
 *              runs: q̈/M⁻¹ are banked from the last dense ∆FD
 *              refresh and the refresh submits ∆iFD, so the dense
 *              ①②③ prefix disappears and cost scales with the
 *              live-column count alone. Speedups are quoted against
 *              dense ∆FD — the work a non-gating client would do
 *              for the same refresh.
 *
 *  2. Modeled accelerator ∆FD — the AnalyticBackend's closed-form
 *     batch time dense vs gated at 25 % density: the ∆ submodule
 *     streams and the step-⑥ matmul are priced for live columns
 *     only, over the dense-sized lane allocation (the bitstream is
 *     fixed; sparsity buys cycles, not area).
 *
 *  3. Closed-loop MPC — receding-horizon ticks/s of the real
 *     iLQR+plant loop with gating off vs on (drift tolerance 3e-3,
 *     dense refresh every 4): the solver requests
 *     only the Jacobian columns whose coordinates moved since their
 *     last linearization, skipping the batch outright when nothing
 *     moved. Tracking error is reported for both so the speedup is
 *     only claimed when control quality holds.
 *
 * An `Adaptive` mode that also computed dead columns in gaps of ≤ 2
 * between live ones was measured here and dropped: it was never
 * faster than the exact seed where the two plans differed.
 */

#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/batched.h"
#include "algorithms/col_gating.h"
#include "app/closed_loop.h"
#include "ctrl/problem.h"
#include "runtime/backends.h"
#include "runtime/server.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

/** Evenly spaced seed with round(nv * density) live columns. */
std::vector<int>
spacedSeed(int nv, double density)
{
    const int live = std::max(
        1, static_cast<int>(std::lround(nv * density)));
    std::vector<int> seed;
    for (int i = 0; i < live; ++i)
        seed.push_back(static_cast<int>(
            static_cast<long long>(i) * nv / live));
    return seed;
}

/** One configuration of the single-core refresh sweep. */
struct GateConfig
{
    std::string label;
    bool gated = false;
    double density = 1.0;
    bool given_accel = false; ///< ∆iFD refresh pipeline (banked q̈/M⁻¹)
    algo::ColumnPlan plan;    ///< resolved; dense for the baselines
};

void
gatedCpuSection(JsonReport &report)
{
    banner("measured single-core derivative refresh — pipeline x "
           "seed density (µs/point, speedup vs dense ∆FD)");
    const int points = 96;
    const int rounds = 7;
    const std::vector<double> densities = {0.125, 0.25, 0.5};

    std::printf("\n%-6s %-5s %-14s %8s %10s %8s %5s\n", "robot", "fn",
                "mode", "density", "us/point", "speedup", "live");
    for (const EvalEntry &e : evalRobots()) {
        const RobotModel robot = e.make();
        const int nv = robot.nv();
        std::mt19937 rng(23);
        std::vector<linalg::VectorX> qs, qds, taus;
        for (int i = 0; i < points; ++i) {
            qs.push_back(robot.randomConfiguration(rng));
            qds.push_back(robot.randomVelocity(rng));
            taus.push_back(robot.randomVelocity(rng));
        }
        algo::BatchedDynamics engine(robot, 1); // single core

        // Bank q̈/M⁻¹ per point for the ∆iFD refresh rows (copies:
        // the engine's output array is reused across calls).
        std::vector<linalg::VectorX> qdd_in;
        std::vector<linalg::MatrixX> minv_in;
        {
            const auto &fd = engine.batchFdDerivatives(
                qs.data(), qds.data(), taus.data(), points);
            for (int i = 0; i < points; ++i) {
                qdd_in.push_back(fd[i].qdd);
                minv_in.push_back(fd[i].minv);
            }
        }
        std::vector<const linalg::MatrixX *> minv_ptrs;
        for (int i = 0; i < points; ++i)
            minv_ptrs.push_back(&minv_in[i]);

        std::vector<GateConfig> configs(1);
        configs[0].label = "dense";
        for (bool given_accel : {false, true}) {
            if (given_accel) {
                GateConfig c;
                c.label = "dense";
                c.given_accel = true;
                configs.push_back(std::move(c));
            }
            for (double density : densities) {
                GateConfig c;
                c.gated = true;
                c.density = density;
                c.given_accel = given_accel;
                c.label = "gated_d" + std::to_string(static_cast<int>(
                                          std::lround(density * 100)));
                c.plan.resolve(spacedSeed(nv, density), nv);
                configs.push_back(std::move(c));
            }
        }

        const auto sweep = [&](const GateConfig &c) {
            const algo::ColumnPlan *plan = c.gated ? &c.plan : nullptr;
            const auto &out =
                c.given_accel
                    ? engine.batchFdDerivativesGivenAccel(
                          qs.data(), qds.data(), qdd_in.data(),
                          minv_ptrs.data(), points, plan)
                    : engine.batchFdDerivatives(qs.data(), qds.data(),
                                                taus.data(), points, plan);
            volatile double sink = out[0].dqdd_dq(0, 0);
            (void)sink;
        };

        // Warm-up once, then interleaved timed rounds, best-of kept —
        // load spikes hit every configuration alike.
        for (const GateConfig &c : configs)
            sweep(c);
        std::vector<double> best(configs.size(), 0.0);
        for (int rep = 0; rep < rounds; ++rep) {
            for (std::size_t i = 0; i < configs.size(); ++i) {
                const double t0 = nowUs();
                sweep(configs[i]);
                const double dt = nowUs() - t0;
                if (rep == 0 || dt < best[i])
                    best[i] = dt;
            }
        }

        const double dense_us = best[0] / points;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const GateConfig &c = configs[i];
            const double us = best[i] / points;
            const double speedup = us > 0.0 ? dense_us / us : 0.0;
            std::printf("%-6s %-5s %-14s %7.0f%% %10.3f %7.2fx %5d\n",
                        e.name, c.given_accel ? "difd" : "dfd",
                        c.label.c_str(), c.density * 100.0, us, speedup,
                        c.plan.liveCount());
            const std::string k = std::string(c.given_accel ? "difd_"
                                                            : "dfd_") +
                                  e.name + "_" + c.label;
            report.add(k + "_us_per_point", us);
            if (i > 0)
                report.add(k + "_speedup", speedup);
        }
    }
}

void
accelSection(JsonReport &report)
{
    banner("modeled accelerator ∆FD batch — dense vs gated at 25% "
           "density (batch of 32)");
    const int n = 32;
    std::printf("\n%-6s %12s %12s %8s\n", "robot", "dense us",
                "gated us", "speedup");
    for (const EvalEntry &e : evalRobots()) {
        const RobotModel robot = e.make();
        Accelerator accel(robot);
        runtime::AnalyticBackend backend(accel);

        std::mt19937 rng(41);
        std::vector<runtime::DynamicsRequest> reqs(n);
        for (auto &r : reqs) {
            r.q = robot.randomConfiguration(rng);
            r.qd = robot.randomVelocity(rng);
            r.qdd_or_tau = robot.randomVelocity(rng);
        }
        std::vector<runtime::DynamicsResult> res(n);

        runtime::BatchStats stats;
        backend.submit(runtime::FunctionType::DeltaFD, reqs.data(), n,
                       res.data(), &stats);
        const double dense_us = stats.total_us;

        for (auto &r : reqs)
            r.seed_cols = spacedSeed(robot.nv(), 0.25);
        backend.submit(runtime::FunctionType::DeltaFD, reqs.data(), n,
                       res.data(), &stats);
        const double gated_us = stats.total_us;

        const double speedup =
            gated_us > 0.0 ? dense_us / gated_us : 0.0;
        std::printf("%-6s %12.3f %12.3f %7.2fx\n", e.name, dense_us,
                    gated_us, speedup);
        const std::string k = std::string("accel_dfd_") + e.name;
        report.add(k + "_dense_us", dense_us);
        report.add(k + "_gated25_us", gated_us);
        report.add(k + "_speedup", speedup);
    }
}

void
mpcSection(JsonReport &report)
{
    banner("closed-loop MPC — ticks/s with gating off vs on "
           "(drift tol 3e-3, dense refresh every 4)");
    // Tick counts sized per robot so each run spans its interesting
    // regime (iiwa settles onto the target — the skip-heavy phase;
    // the bigger robots stay mid-reach) at comparable wall time.
    const int rounds = 3;
    std::printf("\n%-6s %-8s %10s %12s %8s %18s %8s\n", "robot",
                "gating", "ticks/s", "track err", "speedup",
                "dense/gated/skip", "density");
    for (const EvalEntry &e : evalRobots()) {
        const RobotModel robot = e.make();
        const int ticks = robot.nv() <= 10    ? 360
                          : robot.nv() <= 20 ? 240
                                             : 120;
        runtime::CpuBatchedBackend cpu(robot, 4);

        ctrl::IlqrOptions gated;
        gated.gating = true;
        gated.gating_tol = 3e-3;
        gated.dense_refresh_every = 4;

        // Interleaved rounds, best-of ticks/s per configuration —
        // the runs are deterministic, so tracking error and the
        // engagement counters are round-invariant.
        app::ClosedLoopReport off, on;
        double best_off = 0.0, best_on = 0.0;
        for (int r = 0; r < rounds; ++r) {
            runtime::DynamicsServer off_server(cpu), on_server(cpu);
            off = app::solveClosedLoop(robot, off_server, ticks);
            on = app::solveClosedLoop(robot, on_server, ticks, gated);
            best_off = std::max(best_off, off.ticks_per_s);
            best_on = std::max(best_on, on.ticks_per_s);
        }

        const double speedup =
            best_off > 0.0 ? best_on / best_off : 0.0;
        std::printf("%-6s %-8s %10.0f %12.4f %8s %18s %8s\n", e.name,
                    "off", best_off, off.tracking_err, "", "", "");
        char eng[32];
        std::snprintf(eng, sizeof eng, "%lld/%lld/%lld",
                      on.dense_refreshes, on.gated_refreshes,
                      on.skipped_refreshes);
        std::printf("%-6s %-8s %10.0f %12.4f %7.2fx %18s %7.0f%%\n",
                    e.name, "on", best_on, on.tracking_err, speedup,
                    eng, on.mean_live_density * 100.0);

        const std::string k = std::string("mpc_") + e.name;
        report.add(k + "_dense_ticks_per_s", best_off);
        report.add(k + "_gated_ticks_per_s", best_on);
        report.add(k + "_dense_tracking_err", off.tracking_err);
        report.add(k + "_gated_tracking_err", on.tracking_err);
        report.add(k + "_ticks_speedup", speedup);
        report.add(k + "_gated_refreshes",
                   static_cast<double>(on.gated_refreshes));
        report.add(k + "_skipped_refreshes",
                   static_cast<double>(on.skipped_refreshes));
        report.add(k + "_mean_live_density", on.mean_live_density);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    banner("sparsity gating — compute only the Jacobian columns "
           "that moved");
    JsonReport report;
    report.schema_version = 3.0; // *_simple_d* keys became *_gated_d*

    gatedCpuSection(report);
    accelSection(report);
    mpcSection(report);

    maybeWriteJson(argc, argv, report, "BENCH_sparsity.json");
    return 0;
}
