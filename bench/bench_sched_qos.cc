/**
 * @file
 * QoS scheduling under mixed load: p99 latency of latency-critical
 * MPC-style clients while bulk ∆FD sweeps saturate the server.
 *
 * Scenario (iiwa, 2 analytic-backend lanes over one fitted
 * accelerator model): two bulk clients keep several 256-point ∆FD
 * jobs queued at all times — the background sweep — while three
 * latency-critical clients each submit small deadline-tagged 8-point
 * ∆FD jobs and block on them, measuring the wall-clock
 * submit-to-completion latency a real MPC loop would see. The same
 * traffic runs under four configurations:
 *
 *   fifo    — the pre-QoS baseline: critical jobs queue behind every
 *             bulk batch already in the lane;
 *   edf     — deadline-aware pop: critical jobs overtake queued bulk
 *             work (but never preempt the batch in flight);
 *   qos     — EDF + coalescing (the three critical clients' small
 *             batches merge into one pipeline-filling batch) + work
 *             stealing (an idle lane pulls critical work from a busy
 *             one);
 *   qos_obs — qos with the observability layer fully on (lifecycle
 *             tracing + metrics registry): the overhead probe.
 *   qos_stream — qos_obs plus the LIVE telemetry plane: background
 *             aggregator at 25 ms, trace rings streamed to
 *             trace_sched_qos_stream.json during the run, and (with
 *             --stats-port <p>) the embedded /stats + /metrics
 *             endpoint. qos vs qos_stream is the streaming-overhead
 *             probe (obs_stream_overhead_ratio, a slowdown factor:
 *             1.0 = free).
 *
 * Client latencies go through the obs LatencyHistogram (the same
 * log-bucketed type the server's registry uses), so the JSON carries
 * the full distribution, not just two pre-picked percentiles.
 *
 * The numbers to watch (BENCH_sched.json via --json):
 *   p99_speedup_qos      >= 2    (acceptance criterion)
 *   throughput_ratio_qos within 10% of FIFO
 *   obs_overhead_ratio   within 3% of 1 (tracing must be ~free)
 *
 * With --trace the qos_obs run also exports trace_sched_qos.json,
 * a Chrome trace-event file (chrome://tracing / Perfetto).
 *
 * Live-plane flags (qos_stream run): --stream-trace <path> overrides
 * the streamed trace file, --stats-port <p> serves GET /stats and
 * GET /metrics on 127.0.0.1:<p> while the scenario runs, and
 * --stats-hold-ms <n> keeps the server (and endpoint) up n extra
 * milliseconds after the clients finish so an external scraper has a
 * guaranteed window — throughput is measured in backend time, so the
 * hold does not distort the numbers.
 */

#include "bench_util.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/backends.h"
#include "runtime/obs/aggregate.h"
#include "runtime/obs/export.h"
#include "runtime/sched/policy.h"
#include "runtime/server.h"

using namespace dadu;
using namespace dadu::bench;

namespace {

using runtime::DynamicsResult;
using runtime::obs::LatencyHistogram;
using runtime::sched::PolicyKind;
using runtime::sched::SchedConfig;

constexpr int kBulkClients = 2;
constexpr int kBulkN = 256;   ///< tasks per bulk job
constexpr int kBulkJobs = 30; ///< jobs per bulk client (fixed work)
constexpr int kBulkDepth = 6; ///< jobs each bulk client keeps in flight
constexpr int kCritClients = 3;
constexpr int kCritN = 8; ///< tasks per latency-critical job
constexpr int kCritPeriodUs = 3000; ///< MPC-style submission pacing

struct ScenarioResult
{
    LatencyHistogram crit_hist; ///< wall submit→completion latency
    double wall_us = 0.0;
    std::size_t tasks = 0;
    double throughput_mtasks = 0.0; ///< tasks per makespan µs
    runtime::sched::SchedStats sched;
    /** Registry snapshot when the scenario ran with metrics on. */
    std::shared_ptr<runtime::obs::MetricsRegistry> metrics;
    double trace_events = 0.0;  ///< retained trace events (obs runs)
    double trace_dropped = 0.0; ///< events lost to ring wraparound
    // Live-plane accounting (qos_stream run).
    double stream_events = 0.0;  ///< events delivered to the live stream
    double stream_dropped = 0.0; ///< stream cursor drops + overruns
    double stream_samples = 0.0; ///< aggregator ticks taken
};

ScenarioResult
runScenario(Accelerator &accel, const SchedConfig &cfg,
            const char *trace_path, int hold_ms = 0)
{
    const RobotModel &robot = accel.robot();
    runtime::AnalyticBackend base(accel);
    auto lane1 = base.clone();
    runtime::DynamicsServer server(base);
    server.addBackend(*lane1);
    server.setPolicy(cfg);
    server.start();

    const double t0 = nowUs();
    std::atomic<bool> bulk_done{false};

    // Bulk clients: a FIXED amount of background work (so total
    // throughput is comparable across policies), submitted with
    // kBulkDepth jobs in flight each so the lanes always hold queued
    // bulk batches while the sweep lasts.
    std::vector<std::thread> bulk;
    std::atomic<int> bulk_active{kBulkClients};
    for (int b = 0; b < kBulkClients; ++b) {
        bulk.emplace_back([&, b] {
            const auto reqs = randomBatch(robot, kBulkN, 100 + b);
            std::vector<std::vector<DynamicsResult>> res(
                kBulkDepth, std::vector<DynamicsResult>(kBulkN));
            std::vector<int> jobs;
            for (int i = 0; i < kBulkJobs; ++i) {
                if (jobs.size() >=
                    static_cast<std::size_t>(kBulkDepth)) {
                    server.wait(jobs.front());
                    jobs.erase(jobs.begin());
                }
                jobs.push_back(server.submit(
                    FunctionType::DeltaFD, reqs.data(), kBulkN,
                    res[i % kBulkDepth].data(),
                    runtime::DynamicsServer::kLeastLoaded));
            }
            for (int j : jobs)
                server.wait(j);
            if (bulk_active.fetch_sub(1, std::memory_order_acq_rel) ==
                1)
                bulk_done.store(true, std::memory_order_release);
        });
    }

    // Latency-critical clients: small deadline-tagged jobs at an
    // MPC-style fixed pace for as long as the bulk sweep keeps the
    // server loaded, wall latency measured around submit + wait —
    // the control loop's view. The pacing keeps the critical task
    // volume comparable across policies (an unpaced client under EDF
    // would spin thousands of extra rounds in the time FIFO serves
    // a handful, distorting the throughput comparison). Each client
    // records into its own histogram (no shared state on the timed
    // path) and merges once at the end.
    LatencyHistogram latencies;
    std::mutex lat_mu;
    std::vector<std::thread> critical;
    for (int c = 0; c < kCritClients; ++c) {
        critical.emplace_back([&, c] {
            const auto reqs = randomBatch(robot, kCritN, 200 + c);
            std::vector<DynamicsResult> res(kCritN);
            LatencyHistogram mine;
            while (!bulk_done.load(std::memory_order_acquire)) {
                runtime::sched::JobTag tag;
                tag.deadline_us = nowUs() + 3000.0;
                const double start = nowUs();
                const int job = server.submit(
                    FunctionType::DeltaFD, reqs.data(), kCritN,
                    res.data(), runtime::DynamicsServer::kLeastLoaded,
                    tag);
                server.wait(job);
                mine.record(nowUs() - start);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(kCritPeriodUs));
            }
            std::lock_guard<std::mutex> lock(lat_mu);
            latencies.merge(mine);
        });
    }
    for (auto &t : critical)
        t.join();
    for (auto &t : bulk)
        t.join();
    // Optional scrape window: the server (and with it the stats
    // endpoint) stays up, idle, so an external poller is guaranteed
    // to catch it live. Backend-time throughput is unaffected.
    if (hold_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
    server.stop();

    ScenarioResult out;
    out.wall_us = nowUs() - t0;
    runtime::ServerStats stats;
    server.drain(&stats, &out.sched);
    out.tasks = stats.tasks;
    // Serving throughput in backend time — tasks over the busiest
    // lane's accumulated makespan, the same protocol as
    // bench_multi_client — so the FIFO-vs-QoS comparison is not
    // polluted by host scheduling jitter on the measuring machine
    // (client latencies above stay wall-clock: queueing delay IS the
    // quantity under test there).
    out.throughput_mtasks =
        stats.makespan_us > 0.0 ? stats.tasks / stats.makespan_us : 0.0;
    out.crit_hist = latencies;
    if (const runtime::obs::MetricsRegistry *m = server.metricsRegistry())
        out.metrics = std::make_shared<runtime::obs::MetricsRegistry>(*m);
    if (const runtime::obs::TraceBuffer *buf = server.traceBuffer()) {
        for (std::size_t i = 0; i < buf->ringCount(); ++i)
            out.trace_events += static_cast<double>(buf->ring(i).retained());
        out.trace_dropped = static_cast<double>(buf->totalDropped());
        if (trace_path) {
            if (runtime::obs::writeChromeTrace(*buf, trace_path))
                std::printf("wrote %s\n", trace_path);
            else
                std::printf("failed to write %s\n", trace_path);
        }
    }
    if (const runtime::obs::ObsAggregator *agg = server.aggregator()) {
        out.stream_events = static_cast<double>(agg->streamedEvents());
        out.stream_dropped = static_cast<double>(agg->streamedDropped());
        out.stream_samples = static_cast<double>(agg->sampleCount());
        if (agg->streaming())
            std::printf("streamed %s (%.0f events, %.0f samples)\n",
                        agg->config().stream_path.c_str(),
                        out.stream_events, out.stream_samples);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    banner("QoS scheduling — critical-client p99 under bulk load");
    const RobotModel robot = model::makeIiwa();
    Accelerator accel(robot);

    std::printf("\n%d bulk clients x %d jobs x %d-task dFD (depth %d), "
                "%d critical clients x %d-task dFD until bulk done, "
                "2 lanes\n",
                kBulkClients, kBulkJobs, kBulkN, kBulkDepth,
                kCritClients, kCritN);

    struct Entry
    {
        const char *name;
        SchedConfig cfg;
    };
    SchedConfig fifo_cfg;
    SchedConfig edf_cfg;
    edf_cfg.kind = PolicyKind::Edf;
    SchedConfig qos_cfg;
    qos_cfg.kind = PolicyKind::Edf;
    qos_cfg.coalesce = true;
    qos_cfg.steal = true;
    // Same traffic and policy as qos, with the full observability
    // layer on: lifecycle tracing into per-lane rings plus the
    // metrics registry. qos vs qos_obs is the overhead measurement.
    SchedConfig obs_cfg = qos_cfg;
    obs_cfg.obs.trace = true;
    obs_cfg.obs.metrics = true;
    // The live plane on top of qos_obs: aggregator ticking at 25 ms,
    // rings streamed to a Chrome-trace file DURING the run, and the
    // /stats endpoint when a port was requested.
    const char *stream_path = flagValue(argc, argv, "--stream-trace");
    SchedConfig stream_cfg = obs_cfg;
    stream_cfg.obs.aggregate_interval_ms = 25;
    stream_cfg.obs.stream_trace_path =
        stream_path ? stream_path : "trace_sched_qos_stream.json";
    stream_cfg.obs.stats_port = flagInt(argc, argv, "--stats-port", -1);
    const int hold_ms = flagInt(argc, argv, "--stats-hold-ms", 0);
    const Entry entries[] = {{"fifo", fifo_cfg},
                             {"edf", edf_cfg},
                             {"qos", qos_cfg},
                             {"qos_obs", obs_cfg},
                             {"qos_stream", stream_cfg}};

    const bool want_trace = hasFlag(argc, argv, "--trace");

    std::printf("%8s %10s %10s %12s %10s %8s %8s\n", "policy",
                "p50 us", "p99 us", "tasks/ms", "misses", "merged",
                "steals");
    JsonReport report;
    const runtime::obs::MetricEmitFn emit =
        [&report](const std::string &key, double value) {
            report.add(key, value);
        };
    double fifo_p99 = 0.0, fifo_tput = 0.0, qos_tput = 0.0;
    for (const Entry &e : entries) {
        const std::string k = e.name;
        const bool is_obs = k == "qos_obs";
        const bool is_stream = k == "qos_stream";
        const ScenarioResult r = runScenario(
            accel, e.cfg,
            is_obs && want_trace ? "trace_sched_qos.json" : nullptr,
            is_stream ? hold_ms : 0);
        const double p50 = r.crit_hist.percentileUs(0.50);
        const double p99 = r.crit_hist.percentileUs(0.99);
        std::printf("%8s %10.1f %10.1f %12.1f %10zu %8zu %8zu\n",
                    e.name, p50, p99, r.throughput_mtasks * 1000.0,
                    r.sched.deadline_misses, r.sched.coalesced_batches,
                    r.sched.steals);
        report.add("crit_p50_" + k + "_us", p50);
        report.add("crit_p99_" + k + "_us", p99);
        report.add("throughput_" + k + "_mtasks", r.throughput_mtasks);
        if (k == "fifo") {
            fifo_p99 = p99;
            fifo_tput = r.throughput_mtasks;
        } else if (!is_obs && !is_stream) {
            report.add("p99_speedup_" + k,
                       p99 > 0.0 ? fifo_p99 / p99 : 0.0);
            report.add("throughput_ratio_" + k,
                       fifo_tput > 0.0
                           ? r.throughput_mtasks / fifo_tput
                           : 0.0);
        }
        if (k == "qos") {
            qos_tput = r.throughput_mtasks;
            report.add("qos_coalesced_batches",
                       static_cast<double>(r.sched.coalesced_batches));
            report.add("qos_steals",
                       static_cast<double>(r.sched.steals));
            // The critical-latency distribution that the acceptance
            // percentiles summarize, in full.
            emitHistogram(r.crit_hist, "crit_hist_qos", emit);
        }
        if (is_obs) {
            // Observability cost: serving throughput with tracing +
            // metrics on, relative to the identical run without.
            report.add("obs_overhead_ratio",
                       qos_tput > 0.0
                           ? r.throughput_mtasks / qos_tput
                           : 0.0);
            report.add("obs_trace_events", r.trace_events);
            report.add("obs_trace_dropped", r.trace_dropped);
            if (r.metrics)
                emitRegistry(*r.metrics, "obs", emit);
        }
        if (is_stream) {
            // Streaming cost as a slowdown factor: qos throughput
            // over the identical run with the whole live plane on
            // (aggregator + ring streaming). 1.0 = free; the
            // acceptance bound is <= 1.05.
            report.add("obs_stream_overhead_ratio",
                       r.throughput_mtasks > 0.0
                           ? qos_tput / r.throughput_mtasks
                           : 0.0);
            report.add("obs_stream_events", r.stream_events);
            report.add("obs_stream_dropped", r.stream_dropped);
            report.add("obs_stream_samples", r.stream_samples);
        }
    }
    runtime::obs::emitHistogramScheme(emit);

    maybeWriteJson(argc, argv, report, "BENCH_sched.json");
    return 0;
}
