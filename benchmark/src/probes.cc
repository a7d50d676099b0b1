/**
 * @file
 * Layer probes of the traced runs: the same seeded points timed by
 * direct calls into each layer below the server — scalar kernel,
 * batched engine, CPU backend submit, accelerator simulator — on the
 * workload's robots. A value combines the robots' values (geometric
 * mean of times, rates and ratios; mean of shares; sum of counts); the
 * per-robot values go to the run's detail. The two sides of a ratio
 * are timed alternately.
 */

#include "bench.h"

#include <algorithm>
#include <map>

#include "accel/accelerator.h"
#include "algorithms/batched.h"
#include "runtime/backends.h"

namespace rbdbench {

namespace {

namespace rt = dadu::runtime;

/**
 * Median wall time of @p call in µs, repeated until @p budget_us has
 * passed and at least @p min_reps calls were timed (after one
 * untimed warm-up call).
 */
template <typename F>
double
medianUs(F &&call, double budget_us, int min_reps = 5)
{
    call();
    Samples s;
    const double t_end = nowUs() + budget_us;
    while (static_cast<int>(s.size()) < min_reps || nowUs() < t_end) {
        const double t0 = nowUs();
        call();
        s.add(nowUs() - t0);
    }
    return s.median();
}

/**
 * Medians of @p a and @p b timed alternately, so a burst of host
 * interference hits both sides of a ratio alike.
 */
template <typename A, typename B>
std::pair<double, double>
pairedMedianUs(A &&a, B &&b, double budget_us, int min_reps = 5)
{
    a();
    b();
    Samples sa, sb;
    const double t_end = nowUs() + budget_us;
    while (static_cast<int>(sa.size()) < min_reps || nowUs() < t_end) {
        double t0 = nowUs();
        a();
        sa.add(nowUs() - t0);
        t0 = nowUs();
        b();
        sb.add(nowUs() - t0);
    }
    return {sa.median(), sb.median()};
}

/** How a metric combines over robots. */
enum class Combine
{
    Geomean, ///< times, rates and ratios
    Mean,    ///< shares, which may be 0
    Sum,     ///< counts
};

struct Collected
{
    std::string unit;
    Combine combine = Combine::Geomean;
    std::vector<double> values;
};

} // namespace

void
probeLayers(const std::vector<RobotSpec> &robots, std::uint64_t seed,
            bool quick, std::vector<Metric> &metrics,
            std::vector<Metric> &detail)
{
    constexpr int kN = 256;    // the sweep's batch size
    constexpr int kBlock = 8;  // scalar calls per timed block
    const double budget = quick ? 5000.0 : 20000.0;
    std::vector<std::string> order;
    std::map<std::string, Collected> got;
    auto put = [&](const char *robot, const std::string &name,
                   const char *unit, double v,
                   Combine combine = Combine::Geomean) {
        if (!got.count(name))
            order.push_back(name);
        Collected &c = got[name];
        c.unit = unit;
        c.combine = combine;
        c.values.push_back(v);
        detail.push_back({name + "." + robot, unit, v, 1});
    };

    for (const RobotSpec &rs : robots) {
        const RobotModel robot = rs.make();
        std::mt19937 rng = makeRng(seed, 3);
        const std::vector<DynamicsRequest> reqs =
            seededRequests(robot, kN, rng);
        std::vector<DynamicsResult> res(kN);
        std::vector<VectorX> q(kN), qd(kN), tau(kN);
        for (int i = 0; i < kN; ++i) {
            q[i] = reqs[i].q;
            qd[i] = reqs[i].qd;
            tau[i] = reqs[i].qdd_or_tau;
        }

        // kernel: one scalar single-point workspace call
        dadu::algo::DynamicsWorkspace ws(robot);
        dadu::algo::FdDerivatives fd;
        DynamicsResult out;
        for (FunctionType fn : kSweepFns) {
            int next = 0;
            const double block_us = medianUs(
                [&] {
                    for (int k = 0; k < kBlock; ++k, next = (next + 1) % kN)
                        scalarExecute(robot, ws, fd, fn, reqs[next], out);
                },
                budget);
            put(rs.name, std::string("kernel.us.") + fnKey(fn), "us",
                block_us / kBlock);
        }

        // engine: batched evaluation at n = 256, on one thread like the
        // workloads' backends; a 2-thread engine for parallel_eff only
        dadu::algo::BatchedDynamics e2(robot, 2), e1(robot, 1),
            e1_scalar(robot, 1);
        e1.setLaneWidth(8);
        e1_scalar.setLaneWidth(1);
        auto dfd = [&](dadu::algo::BatchedDynamics &e, int n) {
            return [&e, n, &q, &qd, &tau] {
                e.batchFdDerivatives(q.data(), qd.data(), tau.data(), n);
            };
        };
        const double fd1 = medianUs(
            [&] {
                e1.batchForwardDynamics(q.data(), qd.data(), tau.data(), kN);
            },
            budget);
        const double minv1 =
            medianUs([&] { e1.batchMinv(q.data(), kN); }, budget);
        const auto [dfd2, dfd1] =
            pairedMedianUs(dfd(e2, kN), dfd(e1, kN), budget);
        const auto [dfd1_small, dfd1_large] =
            pairedMedianUs(dfd(e1, 20), dfd(e1, kN), budget);
        const auto [scalar1, packed1] =
            pairedMedianUs(dfd(e1_scalar, kN), dfd(e1, kN), budget);
        put(rs.name, "engine.pts_per_s.fd", "1/s", kN * 1e6 / fd1);
        put(rs.name, "engine.pts_per_s.dfd", "1/s", kN * 1e6 / dfd1);
        put(rs.name, "engine.pts_per_s.minv", "1/s", kN * 1e6 / minv1);
        put(rs.name, "engine.parallel_eff", "frac", dfd1 / (2.0 * dfd2),
            Combine::Mean);
        put(rs.name, "engine.dfd_small_over_large", "ratio",
            (dfd1_small / 20.0) / (dfd1_large / kN));
        put(rs.name, "kernel.soa_speedup", "ratio", scalar1 / packed1);

        // backend: CpuBatchedBackend::submit by call shape, one thread
        rt::CpuBatchedBackend cpu(robot, 1);
        auto submit = [&](FunctionType fn, int n) {
            return [&cpu, fn, n, &reqs, &res] {
                cpu.submit(fn, reqs.data(), n, res.data());
            };
        };
        put(rs.name, "backend.submit_us.fd1", "us",
            medianUs(submit(FunctionType::FD, 1), budget));
        put(rs.name, "backend.submit_us.dfd20", "us",
            medianUs(submit(FunctionType::DeltaFD, 20), budget));
        put(rs.name, "backend.submit_us.dfd64", "us",
            medianUs(submit(FunctionType::DeltaFD, 64), budget));
        // The backend's own engine: same pool, same workspaces.
        const auto [sub256, eng256] = pairedMedianUs(
            submit(FunctionType::DeltaFD, kN), dfd(cpu.engine(), kN), budget);
        put(rs.name, "backend.staging_frac", "frac", 1.0 - eng256 / sub256,
            Combine::Mean);

        // accel: one 256-point batch per function through the simulator
        dadu::accel::Accelerator accel(robot);
        rt::AcceleratorBackend sim(accel);
        double stalls = 0.0;
        std::vector<double> model_rate, host_us;
        for (FunctionType fn : kSweepFns) {
            BatchStats st;
            const double t0 = nowUs();
            sim.submit(fn, reqs.data(), kN, res.data(), &st);
            host_us.push_back((nowUs() - t0) / kN);
            put(rs.name, std::string("accel.cycles_model.") + fnKey(fn),
                "cycles-modeled", static_cast<double>(st.cycles));
            stalls += static_cast<double>(st.fifo_stalls);
            model_rate.push_back(kN * 1e6 / st.total_us);
        }
        put(rs.name, "accel.fifo_stalls_model", "count-modeled", stalls,
            Combine::Sum);
        put(rs.name, "accel.tasks_per_s_model", "1/s-modeled",
            geomean(model_rate));
        put(rs.name, "accel.sim_host_us_per_task", "us", geomean(host_us));
    }

    for (const std::string &name : order) {
        const Collected &c = got[name];
        double v = 0.0;
        if (c.combine == Combine::Geomean) {
            v = geomean(c.values);
        } else {
            for (double x : c.values)
                v += x;
            if (c.combine == Combine::Mean)
                v /= static_cast<double>(c.values.size());
        }
        metrics.push_back({name, c.unit, v, c.values.size()});
    }
}

} // namespace rbdbench
