/**
 * @file
 * Experiment E5/E9 — Fig. 16: batched ∆iFD (iiwa) against the
 * platforms of [33]: i7-7700 (4 threads), RTX 2080, and the
 * Robomorphic FPGA, for batch sizes 16/32/64/128.
 *
 * Also prints the single-task latency comparison of Section VI-A:
 * Dadu-RBD 0.76 µs vs Robomorphic 0.61 µs for iiwa ∆iFD (Dadu
 * trades a little latency for much higher throughput).
 */

#include "bench_util.h"
#include "seed_reference.h"

#include <memory>
#include <thread>

#include "algorithms/batched.h"
#include "algorithms/dynamics.h"
#include "algorithms/soa/kernels.h"
#include "algorithms/workspace.h"
#include "runtime/backends.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

/**
 * Measured host-CPU ∆FD: the seed's allocating single-point loop
 * against the workspace single-point loop and the batched engine
 * (PR 1's zero-allocation batched dynamics). The configurations are
 * timed in interleaved rounds — one sweep of each per round, best
 * sweep kept — so load spikes hit every configuration alike instead
 * of skewing whichever happened to be running.
 */
void
measuredCpuSection(const RobotModel &robot, JsonReport &report)
{
    banner("measured CPU ∆FD throughput (points/sec), higher is better");
    const int points = 128;
    const int rounds = 7;
    std::mt19937 rng(17);
    std::vector<linalg::VectorX> qs, qds, taus;
    for (int i = 0; i < points; ++i) {
        qs.push_back(robot.randomConfiguration(rng));
        qds.push_back(robot.randomVelocity(rng));
        taus.push_back(robot.randomVelocity(rng));
    }

    // Environment stamps: the committed numbers are meaningless
    // without them (thread rows stop at the host's hardware threads,
    // and the SoA speedup depends on the lane width the engines ran
    // at and on whether the CPU ran the x86-64-v4 lane kernels).
    const double hw =
        static_cast<double>(std::thread::hardware_concurrency());
    report.add("hardware_concurrency", hw);
    report.add("lane_width", algo::soa::defaultLaneWidth());
    report.add("soa_kernels_v4", algo::soa::v4Kernels() ? 1.0 : 0.0);

    algo::DynamicsWorkspace ws(robot);
    algo::FdDerivatives d;
    // A k-thread row is only measured where the host has k hardware
    // threads: BatchedDynamics clamps to the host, so on fewer cores
    // the row would commit a number that does not measure k threads.
    std::vector<std::unique_ptr<algo::BatchedDynamics>> engines;
    std::vector<int> engine_threads;
    for (int threads : {2, 4, 8}) {
        if (hw > 0 && threads > hw) {
            std::printf("batched engine %dt skipped: the host has %.0f "
                        "hardware threads\n",
                        threads, hw);
            continue;
        }
        engine_threads.push_back(threads);
        engines.push_back(
            std::make_unique<algo::BatchedDynamics>(robot, threads));
    }

    // Single-thread engines per lane width: the W sweep isolates the
    // SIMD contribution from threading (W = 1 is the scalar path).
    std::vector<std::unique_ptr<algo::BatchedDynamics>> lane_engines;
    const std::vector<int> lane_widths = {1, 4, 8, 16};
    for (int w : lane_widths) {
        lane_engines.push_back(
            std::make_unique<algo::BatchedDynamics>(robot, 1));
        lane_engines.back()->setLaneWidth(w);
    }

    // Sweeps: seed loop, workspace loop, one per engine config.
    const auto seed_sweep = [&] {
        volatile double sink = 0.0;
        for (int i = 0; i < points; ++i) {
            const auto fd = seedref::fdDerivatives(robot, qs[i], qds[i],
                                                   taus[i]);
            sink = fd.dqdd_dq(0, 0);
        }
        (void)sink;
    };
    const auto ws_sweep = [&] {
        volatile double sink = 0.0;
        for (int i = 0; i < points; ++i) {
            algo::fdDerivatives(robot, ws, qs[i], qds[i], taus[i], d);
            sink = d.dqdd_dq(0, 0);
        }
        (void)sink;
    };
    const auto engine_sweep = [&](algo::BatchedDynamics &engine) {
        const auto &out = engine.batchFdDerivatives(qs, qds, taus);
        volatile double sink = out[0].dqdd_dq(0, 0);
        (void)sink;
    };

    // Warm-up once, then interleaved timed rounds, best-of kept.
    seed_sweep();
    ws_sweep();
    for (auto &e : engines)
        engine_sweep(*e);
    for (auto &e : lane_engines)
        engine_sweep(*e);
    double seed_us = 0.0, ws_us = 0.0;
    std::vector<double> engine_us(engines.size(), 0.0);
    std::vector<double> lane_us(lane_engines.size(), 0.0);
    for (int rep = 0; rep < rounds; ++rep) {
        double t0 = nowUs();
        seed_sweep();
        double dt = nowUs() - t0;
        if (rep == 0 || dt < seed_us)
            seed_us = dt;
        t0 = nowUs();
        ws_sweep();
        dt = nowUs() - t0;
        if (rep == 0 || dt < ws_us)
            ws_us = dt;
        for (std::size_t e = 0; e < engines.size(); ++e) {
            t0 = nowUs();
            engine_sweep(*engines[e]);
            dt = nowUs() - t0;
            if (rep == 0 || dt < engine_us[e])
                engine_us[e] = dt;
        }
        for (std::size_t e = 0; e < lane_engines.size(); ++e) {
            t0 = nowUs();
            engine_sweep(*lane_engines[e]);
            dt = nowUs() - t0;
            if (rep == 0 || dt < lane_us[e])
                lane_us[e] = dt;
        }
    }

    const double seed_pps = points / (seed_us * 1e-6);
    const double ws_pps = points / (ws_us * 1e-6);
    std::printf("%-34s %12.0f pts/s\n",
                "seed single-point loop (1t):", seed_pps);
    report.add("seed_pts_per_sec", seed_pps);
    std::printf("%-34s %12.0f pts/s   (%.2fx seed)\n",
                "workspace (reused arena, 1t):", ws_pps, ws_pps / seed_pps);
    report.add("workspace_1t_pts_per_sec", ws_pps);

    for (std::size_t e = 0; e < engines.size(); ++e) {
        const int threads = engine_threads[e];
        const double pps = points / (engine_us[e] * 1e-6);
        char label[64];
        std::snprintf(label, sizeof label, "batched engine (%dt, eff %dt):",
                      threads, engines[e]->threadCount());
        std::printf("%-34s %12.0f pts/s   (%.2fx seed, %.2fx 1t)\n",
                    label, pps, pps / seed_pps, pps / ws_pps);
        char key[64];
        std::snprintf(key, sizeof key, "batched_%dt_pts_per_sec", threads);
        report.add(key, pps);
        std::snprintf(key, sizeof key, "batched_%dt_threads_effective",
                      threads);
        report.add(key, engines[e]->threadCount());
        if (threads == 4) {
            report.add("batched_4t_speedup_vs_seed", pps / seed_pps);
            report.add("batched_4t_speedup_vs_1t", pps / ws_pps);
        }
    }

    for (std::size_t e = 0; e < lane_engines.size(); ++e) {
        const int w = lane_widths[e];
        const double pps = points / (lane_us[e] * 1e-6);
        char label[64];
        std::snprintf(label, sizeof label,
                      w == 1 ? "engine 1t, scalar path (W=%d):"
                             : "engine 1t, SoA lanes (W=%d):",
                      w);
        std::printf("%-34s %12.0f pts/s   (%.2fx seed, %.2fx 1t)\n",
                    label, pps, pps / seed_pps, pps / ws_pps);
        char key[64];
        std::snprintf(key, sizeof key, "soa_w%d_1t_pts_per_sec", w);
        report.add(key, pps);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Fig. 16 — batched iiwa ∆iFD time (us), lower is better");
    const RobotModel robot = model::makeIiwa();
    Accelerator accel(robot);
    runtime::AcceleratorBackend backend(accel);
    std::vector<runtime::DynamicsResult> outputs;

    // ∆iFD inputs include q̈ and M⁻¹ (computed up front, as in the
    // Robomorphic protocol where the CPU supplies them).
    auto make_batch = [&](int n) {
        auto batch = randomBatch(robot, n);
        for (auto &t : batch) {
            const auto pre =
                algo::fdDerivatives(robot, t.q, t.qd, t.qdd_or_tau);
            t.qdd_or_tau = pre.qdd;
            t.minv = pre.minv;
        }
        return batch;
    };

    std::printf("%8s %14s %14s %14s %14s\n", "batch", "i7-7700(4t)",
                "RTX2080", "Robomorphic", "Dadu(sim)");
    for (int batch : {16, 32, 64, 128}) {
        const double cpu = perf::batchedTimeUs(
            perf::Platform::CpuOf33, perf::EvalRobot::Iiwa,
            FunctionType::DeltaiFD, batch);
        const double gpu = perf::batchedTimeUs(
            perf::Platform::GpuOf33, perf::EvalRobot::Iiwa,
            FunctionType::DeltaiFD, batch);
        const double robo = perf::batchedTimeUs(
            perf::Platform::Robomorphic, perf::EvalRobot::Iiwa,
            FunctionType::DeltaiFD, batch);
        accel::BatchStats stats;
        backend.submit(FunctionType::DeltaiFD, make_batch(batch), outputs,
                       &stats);
        std::printf("%8d %14.2f %14.2f %14.2f %14.2f   "
                    "(speedup: %4.1fx cpu, %4.1fx gpu, %4.1fx fpga)\n",
                    batch, cpu, gpu, robo, stats.total_us,
                    cpu / stats.total_us, gpu / stats.total_us,
                    robo / stats.total_us);
    }
    std::printf("\npaper speedups: 10.3x-13.0x cpu, 3.4x-11.3x gpu, "
                "6.3x-7.0x fpga\n");

    banner("Section VI-A — single-task iiwa ∆iFD latency");
    accel::BatchStats single;
    backend.submit(FunctionType::DeltaiFD, make_batch(1), outputs,
                   &single);
    std::printf("Dadu-RBD (sim):    %.2f us  (paper: 0.76 us)\n",
                single.latency_us);
    std::printf("Robomorphic model: %.2f us  (paper: 0.61 us)\n",
                perf::paperLatencyUs(perf::Platform::Robomorphic,
                                     perf::EvalRobot::Iiwa,
                                     FunctionType::DeltaiFD));

    JsonReport report;
    measuredCpuSection(robot, report);
    maybeWriteJson(argc, argv, report, "BENCH_batched.json");
    return 0;
}
