/**
 * @file
 * Fault-tolerant serving under overload: offered-load sweep with one
 * of four lanes killed mid-run.
 *
 * Scenario (iiwa, 4 analytic-backend lanes, every lane wrapped in a
 * FaultInjectingBackend): two bulk clients keep large untagged ∆FD
 * jobs in flight — the window scales with the offered-load factor —
 * while three latency-critical clients submit small deadline-tagged
 * ∆FD jobs at an MPC-style pace and block on them. All lanes draw
 * rare transient submit faults from seeded plans; lane 3 dies
 * permanently partway through every run, so failover is part of the
 * measured path. The same faulted traffic runs under two configs:
 *
 *   fifo — the no-admission baseline: FIFO pop, nothing shed, every
 *          critical job queues behind the bulk backlog;
 *   qos  — EDF + coalescing + stealing + result validation, with
 *          admission bounding per-lane bulk depth and shedding a
 *          critical job only when its predicted completion misses its
 *          deadline (explicit Rejected outcomes, never silence).
 *
 * Each qos load point runs 5 times and reports the run with the
 * median critical hit rate: one wall-clock run flips with host load.
 *
 * The numbers to watch (BENCH_overload.json via --json):
 *   crit_hit_qos_2x  >= 0.9   (acceptance: deadline-hit rate of the
 *                              critical clients under ~2x overload)
 *   crit_hit_fifo_2x  < crit_hit_qos_2x
 *   crit_rejected_*   small   (bulk carries the overload; a critical
 *                              job sheds only on a predicted miss)
 */

#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/backends.h"
#include "runtime/fault.h"
#include "runtime/obs/export.h"
#include "runtime/sched/admission.h"
#include "runtime/sched/policy.h"
#include "runtime/server.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

using runtime::DynamicsResult;
using runtime::FaultInjectingBackend;
using runtime::FaultPlan;
using runtime::JobOutcome;
using runtime::obs::LatencyHistogram;
using runtime::sched::PolicyKind;
using runtime::sched::SchedConfig;

constexpr int kLanes = 4;
constexpr int kBulkClients = 2;
constexpr int kBulkN = 512;       ///< tasks per bulk job (never merged)
constexpr int kBaseDepth = 4;     ///< in-flight bulk jobs per client at 1x
constexpr int kCritClients = 3;
constexpr int kCritN = 8;         ///< tasks per latency-critical job
constexpr int kCritPeriodUs = 2000;
constexpr double kTargetServeUs = 220000.0; ///< bulk sweep length at 1x

struct LoadResult
{
    double wall_us = 0.0;
    double offered_qps = 0.0; ///< submitted jobs per wall second
    double served_qps = 0.0;  ///< completed jobs per wall second
    LatencyHistogram crit_hist; ///< wall submit→completion latency
    double crit_hit = 0.0;    ///< deadline-hit rate of critical jobs
    double shed_rate = 0.0;   ///< rejected / submitted
    std::size_t crit_total = 0;
    std::size_t crit_rejected = 0;
    runtime::sched::SchedStats sched;
};

/** Median wall time of one n-task ∆FD batch on an unloaded lane. */
double
calibrateBatchWallUs(Accelerator &accel, int n)
{
    runtime::AnalyticBackend backend(accel);
    const auto reqs = randomBatch(accel.robot(), n, 3);
    std::vector<DynamicsResult> res(n);
    LatencyHistogram walls;
    for (int i = 0; i < 5; ++i) {
        const double t0 = nowUs();
        backend.submit(FunctionType::DeltaFD, reqs.data(), n, res.data(),
                       nullptr);
        walls.record(nowUs() - t0);
    }
    // Bucketed median — within 4.4% of exact, plenty for calibration.
    return walls.percentileUs(0.5);
}

LoadResult
runOverload(Accelerator &accel, const SchedConfig &cfg,
            bool use_admission, int load, int bulk_jobs,
            long die_after, double deadline_budget_us,
            const char *trace_path = nullptr)
{
    const RobotModel &robot = accel.robot();
    runtime::AnalyticBackend base(accel);

    // Four lanes, every one behind a seeded fault decorator; lane 3
    // additionally dies for good partway through the sweep.
    std::vector<std::unique_ptr<runtime::DynamicsBackend>> inners;
    std::vector<std::unique_ptr<FaultInjectingBackend>> lanes;
    for (int l = 0; l < kLanes; ++l) {
        FaultPlan plan;
        plan.seed = 17u + static_cast<unsigned>(l);
        plan.transient_fail_prob = 0.01;
        if (l == 3)
            plan.die_after_batches = die_after;
        inners.push_back(l == 0 ? nullptr : base.clone());
        lanes.push_back(std::make_unique<FaultInjectingBackend>(
            l == 0 ? base : *inners[l], plan));
    }

    runtime::DynamicsServer server;
    for (auto &lane : lanes)
        server.addBackend(*lane);
    SchedConfig run_cfg = cfg;
    if (trace_path)
        run_cfg.obs.trace = true; // fault marks + failover in the trace
    server.setPolicy(run_cfg);
    if (trace_path)
        // Injected faults record onto the injecting lane's own ring
        // (same producer thread as the lane's lifecycle events).
        for (int l = 0; l < kLanes; ++l)
            lanes[static_cast<std::size_t>(l)]->attachTrace(server, l);
    if (use_admission) {
        runtime::sched::AdmissionConfig acfg;
        acfg.max_queue_depth = 3; // bulk backlog bound per lane
        server.setAdmission(acfg);
    }
    server.start();

    const double t0 = nowUs();
    std::atomic<bool> bulk_done{false};
    std::atomic<int> bulk_active{kBulkClients};
    std::atomic<long> submitted{0}, completed{0};

    // Bulk clients: fixed job count, in-flight window scaled by the
    // offered-load factor. A shed job completes instantly, so under
    // admission the client immediately offers the next — the offered
    // rate rises with shedding, which is the point of the sweep.
    std::vector<std::thread> bulk;
    for (int b = 0; b < kBulkClients; ++b) {
        bulk.emplace_back([&, b] {
            const int depth = kBaseDepth * load;
            const auto reqs = randomBatch(robot, kBulkN, 100 + b);
            std::vector<std::vector<DynamicsResult>> res(
                depth, std::vector<DynamicsResult>(kBulkN));
            std::vector<int> jobs;
            for (int i = 0; i < bulk_jobs; ++i) {
                if (jobs.size() >= static_cast<std::size_t>(depth)) {
                    server.wait(jobs.front());
                    if (server.jobOutcome(jobs.front()) ==
                        JobOutcome::Completed)
                        completed.fetch_add(1);
                    jobs.erase(jobs.begin());
                }
                jobs.push_back(server.submit(
                    FunctionType::DeltaFD, reqs.data(), kBulkN,
                    res[i % depth].data(),
                    runtime::DynamicsServer::kLeastLoaded));
                submitted.fetch_add(1);
            }
            for (int j : jobs) {
                server.wait(j);
                if (server.jobOutcome(j) == JobOutcome::Completed)
                    completed.fetch_add(1);
            }
            if (bulk_active.fetch_sub(1, std::memory_order_acq_rel) == 1)
                bulk_done.store(true, std::memory_order_release);
        });
    }

    // Latency-critical clients: small deadline-tagged jobs at a fixed
    // pace for as long as the bulk sweep lasts; wall latency and the
    // per-job deadline outcome measured around submit + wait.
    LatencyHistogram latencies;
    std::size_t crit_total = 0, crit_hits = 0, crit_rejected = 0;
    std::mutex crit_mu;
    std::vector<std::thread> critical;
    for (int c = 0; c < kCritClients; ++c) {
        critical.emplace_back([&, c] {
            const auto reqs = randomBatch(robot, kCritN, 200 + c);
            std::vector<DynamicsResult> res(kCritN);
            LatencyHistogram mine;
            std::size_t total = 0, hits = 0, rejected = 0;
            while (!bulk_done.load(std::memory_order_acquire)) {
                runtime::sched::JobTag tag;
                tag.deadline_us = nowUs() + deadline_budget_us;
                const double start = nowUs();
                const int job = server.submit(
                    FunctionType::DeltaFD, reqs.data(), kCritN,
                    res.data(), runtime::DynamicsServer::kLeastLoaded,
                    tag);
                submitted.fetch_add(1);
                server.wait(job);
                mine.record(nowUs() - start);
                ++total;
                const JobOutcome outcome = server.jobOutcome(job);
                if (outcome == JobOutcome::Rejected)
                    ++rejected;
                else if (outcome == JobOutcome::Completed) {
                    completed.fetch_add(1);
                    if (!server.jobMissedDeadline(job))
                        ++hits;
                }
                std::this_thread::sleep_for(
                    std::chrono::microseconds(kCritPeriodUs));
            }
            std::lock_guard<std::mutex> lock(crit_mu);
            latencies.merge(mine);
            crit_total += total;
            crit_hits += hits;
            crit_rejected += rejected;
        });
    }
    for (auto &t : critical)
        t.join();
    for (auto &t : bulk)
        t.join();
    server.stop();

    LoadResult out;
    out.wall_us = nowUs() - t0;
    runtime::ServerStats stats;
    server.drain(&stats, &out.sched);
    const double wall_s = out.wall_us / 1e6;
    out.offered_qps = wall_s > 0.0 ? submitted.load() / wall_s : 0.0;
    out.served_qps = wall_s > 0.0 ? completed.load() / wall_s : 0.0;
    out.crit_hist = latencies;
    out.crit_total = crit_total;
    out.crit_rejected = crit_rejected;
    out.crit_hit = crit_total > 0
                       ? static_cast<double>(crit_hits) / crit_total
                       : 0.0;
    out.shed_rate =
        submitted.load() > 0
            ? static_cast<double>(out.sched.rejected_jobs) /
                  static_cast<double>(submitted.load())
            : 0.0;
    if (trace_path && server.traceBuffer()) {
        if (runtime::obs::writeChromeTrace(*server.traceBuffer(),
                                           trace_path))
            std::printf("wrote %s\n", trace_path);
        else
            std::printf("failed to write %s\n", trace_path);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    banner("Overload + faults — shedding, failover, critical deadlines");
    const RobotModel robot = model::makeIiwa();
    Accelerator accel(robot);

    // Calibrate the scenario to the machine: bulk sweep length, the
    // lane-3 death point, and a deadline budget that a QoS-scheduled
    // critical job makes comfortably (one in-flight bulk batch plus
    // its own service) but a FIFO backlog of them blows through. The
    // calibrated single-lane batch wall time understates the loaded
    // service time when the lanes outnumber the cores (they then
    // time-slice one CPU), so the budget scales with oversubscription.
    const double bulk_wall = calibrateBatchWallUs(accel, kBulkN);
    const double crit_wall = calibrateBatchWallUs(accel, kCritN);
    const int bulk_jobs = std::min(
        240, std::max(16, static_cast<int>(kLanes * kTargetServeUs /
                                           (bulk_wall * kBulkClients))));
    const long die_after =
        std::max<long>(4, kBulkClients * bulk_jobs / (2 * kLanes));
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    const double oversub =
        std::max(1.0, static_cast<double>(kLanes) / cores);
    const double deadline_budget =
        oversub * (2.5 * bulk_wall + 8.0 * crit_wall) + 2000.0;

    std::printf("\ncalibration: %d-task dFD %.0f us, %d-task dFD %.0f us"
                "\n%d bulk clients x %d jobs x %d tasks, %d critical "
                "clients x %d tasks @ %d us,\ndeadline budget %.0f us "
                "(%.0fx lane oversubscription on %u cores),\n"
                "%d lanes (transient faults on all, lane 3 dies after "
                "%ld batches)\n",
                kBulkN, bulk_wall, kCritN, crit_wall, kBulkClients,
                bulk_jobs, kBulkN, kCritClients, kCritN, kCritPeriodUs,
                deadline_budget, oversub, cores, kLanes, die_after);

    SchedConfig fifo_cfg; // FIFO, no validation, no admission
    SchedConfig qos_cfg;
    qos_cfg.kind = PolicyKind::Edf;
    qos_cfg.coalesce = true;
    qos_cfg.steal = true;
    qos_cfg.validate_results = true;
    qos_cfg.max_retries = 3;
    struct Entry
    {
        const char *name;
        const SchedConfig &cfg;
        bool admission;
    };
    const Entry entries[] = {{"fifo", fifo_cfg, false},
                             {"qos", qos_cfg, true}};

    std::printf("\nqos rows: the run with the median hit rate of 5\n");
    std::printf("%6s %5s %9s %9s %10s %10s %8s %8s %7s %7s\n", "cfg",
                "load", "offer/s", "serve/s", "crit p50", "crit p99",
                "hit", "shed", "deaths", "requeue");
    JsonReport report;
    const runtime::obs::MetricEmitFn emit =
        [&report](const std::string &key, double value) {
            report.add(key, value);
        };
    // --trace: the first qos 2x run (faults + failover + shedding,
    // the interesting one) additionally records lifecycle + fault
    // events and exports them as trace_overload.json.
    const bool want_trace = hasFlag(argc, argv, "--trace");
    for (const Entry &e : entries) {
        for (int load = 1; load <= 2; ++load) {
            const int repeats = e.admission ? 5 : 1;
            std::vector<LoadResult> runs;
            for (int i = 0; i < repeats; ++i) {
                const bool traced =
                    want_trace && e.admission && load == 2 && i == 0;
                runs.push_back(runOverload(
                    accel, e.cfg, e.admission, load, bulk_jobs, die_after,
                    deadline_budget,
                    traced ? "trace_overload.json" : nullptr));
            }
            std::sort(runs.begin(), runs.end(),
                      [](const LoadResult &a, const LoadResult &b) {
                          return a.crit_hit < b.crit_hit;
                      });
            const LoadResult &r = runs[runs.size() / 2];
            const double p50 = r.crit_hist.percentileUs(0.50);
            const double p99 = r.crit_hist.percentileUs(0.99);
            std::printf("%6s %4dx %9.0f %9.0f %9.0fu %9.0fu %7.1f%% "
                        "%7.1f%% %7zu %7zu\n",
                        e.name, load, r.offered_qps, r.served_qps,
                        p50, p99, 100.0 * r.crit_hit,
                        100.0 * r.shed_rate, r.sched.lane_deaths,
                        r.sched.requeued_items);
            const std::string k =
                std::string(e.name) + "_" + std::to_string(load) + "x";
            report.add("qps_" + k, r.served_qps);
            report.add("offered_qps_" + k, r.offered_qps);
            report.add("crit_p99_" + k + "_us", p99);
            report.add("crit_hit_" + k, r.crit_hit);
            report.add("shed_rate_" + k, r.shed_rate);
            report.add("crit_rejected_" + k,
                       static_cast<double>(r.crit_rejected));
            report.add("lane_deaths_" + k,
                       static_cast<double>(r.sched.lane_deaths));
            // Full critical-latency distribution per cell.
            int nonzero = 0;
            for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
                nonzero += r.crit_hist.bucketCount(i) > 0 ? 1 : 0;
            report.add("crit_hist_" + k + "_nonzero",
                       static_cast<double>(nonzero));
            emitHistogram(r.crit_hist, "crit_hist_" + k, emit);
        }
    }
    runtime::obs::emitHistogramScheme(emit);

    maybeWriteJson(argc, argv, report, "BENCH_overload.json");
    return 0;
}
