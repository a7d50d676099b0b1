/**
 * @file
 * Runtime-toggleable observability knobs of one DynamicsServer,
 * carried inside sched::SchedConfig (the one configuration object
 * every serving test and bench already plumbs through).
 *
 * Both features default OFF, and off means off: the server then
 * holds null observability state and every instrumentation hook is a
 * single branch on a null pointer — the steady serving path performs
 * no clock reads, no event stores, and no histogram increments.
 */

#ifndef DADU_RUNTIME_OBS_CONFIG_H
#define DADU_RUNTIME_OBS_CONFIG_H

#include <cstddef>
#include <string>

namespace dadu::runtime::obs {

/** Observability selection of one DynamicsServer. */
struct ServerObsConfig
{
    /**
     * Record per-job lifecycle TraceEvents into fixed-capacity
     * per-lane rings (exportable as Chrome trace-event JSON). The
     * ring producer is always the one thread currently serving the
     * lane, so recording takes no lock and never allocates; a full
     * ring drops its OLDEST events and counts them.
     */
    bool trace = false;

    /**
     * Maintain the metrics registry: log-bucketed latency histograms
     * (queue wait / backend service / end-to-end, keyed by function
     * and tagged-vs-bulk), monotonic counters, and gauges including
     * admission's wall time per task and prediction error. Recorded
     * under the server lock alongside the accounting it describes.
     */
    bool metrics = false;

    /** TraceEvent capacity of EACH ring (lanes + control + clients). */
    std::size_t ring_capacity = 8192;

    // ----- Live telemetry plane (aggregator + endpoint + streaming).
    // Everything below runs OFF the serving threads: a background
    // aggregator thread snapshots the registry / lane state / ring
    // cursors on a period, and the optional endpoint thread serves
    // only the aggregator's latest snapshot.

    /**
     * Aggregation period in milliseconds. > 0 starts the
     * ObsAggregator with start(): every period it appends one
     * time-series sample and (when streaming) drains the trace
     * rings. 0 disables the live plane unless stats_port or
     * stream_trace_path asks for it (then a 100 ms default applies).
     */
    int aggregate_interval_ms = 0;

    /** Bounded time-series length (oldest samples evicted). */
    std::size_t aggregate_history = 512;

    /**
     * TCP port of the embedded stats endpoint (GET /stats JSON,
     * GET /metrics Prometheus text) on 127.0.0.1. -1 disables;
     * 0 binds an ephemeral port (see StatsEndpoint::port()).
     */
    int stats_port = -1;

    /**
     * Non-empty: stream trace chunks to this Chrome-trace file
     * DURING the run (instead of / in addition to a post-hoc
     * writeChromeTrace). Requires `trace`; the file is finalized
     * when the server stops.
     */
    std::string stream_trace_path;
};

} // namespace dadu::runtime::obs

#endif // DADU_RUNTIME_OBS_CONFIG_H
