/**
 * @file
 * ObsAggregator: the background half of the live telemetry plane.
 *
 * A single aggregator thread wakes every interval_ms and takes one
 * tick: it snapshots the server's lane state (health, load weight,
 * queue depth), pending-job count, and MetricsRegistry (a bounded
 * ~100KB copy under the server lock — microseconds, once per
 * interval), drains the trace-ring cursors into the streamed
 * Chrome-trace file when streaming is configured, and appends one
 * delta-encoded ObsSample to a bounded in-memory time-series. The
 * latest full snapshot (sample + registry copy) is what the stats
 * endpoint serves — the network thread never touches hot-path state.
 *
 * Lifecycle: DynamicsServer::start() constructs and starts the
 * aggregator when SchedConfig::obs asks for it; stop() takes a final
 * tick after the workers quiesce (so the tail of the run is sampled
 * and streamed) and finalizes the streamed file. The object survives
 * until the next reconfiguration, so benches can read totals and the
 * time-series after stop().
 */

#ifndef DADU_RUNTIME_OBS_AGGREGATE_H
#define DADU_RUNTIME_OBS_AGGREGATE_H

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/obs/metrics.h"
#include "runtime/obs/stream.h"

namespace dadu::runtime {
class DynamicsServer;
}

namespace dadu::runtime::obs {

/** Point-in-time state of one lane, as sampled by the aggregator. */
struct LaneSample
{
    bool healthy = true;
    double load_weight = 0.0;    ///< committed FD-equivalent work
    std::size_t queue_depth = 0; ///< work items queued right now
};

/** One aggregation tick: cumulative and delta-encoded. */
struct ObsSample
{
    std::uint64_t seq = 0; ///< tick number, strictly increasing
    double t_us = 0.0;     ///< the server's clock at the tick
    std::uint64_t pending_jobs = 0;
    std::vector<LaneSample> lanes;
    /** Cumulative counter values (Counter enum order). */
    std::array<std::uint64_t, kCounters> counters{};
    /** Counter increments since the previous sample. */
    std::array<std::uint64_t, kCounters> delta{};
    std::array<double, kGauges> gauges{};
    // Merged e2e percentiles, the two headline QoS latencies.
    double tagged_e2e_p50_us = 0.0, tagged_e2e_p99_us = 0.0;
    double bulk_e2e_p50_us = 0.0, bulk_e2e_p99_us = 0.0;
    // Trace-plane accounting (zeros when tracing is off).
    std::uint64_t trace_recorded = 0; ///< events recorded, all rings
    std::uint64_t trace_streamed = 0; ///< events delivered to the stream
    std::uint64_t trace_dropped = 0;  ///< stream cursor drops + overruns
};

/**
 * What GET /stats and GET /metrics render: the latest sample plus a
 * full registry copy for per-fn×tagged histograms. Value type — the
 * endpoint thread copies it out under the aggregator lock.
 */
struct StatsSnapshot
{
    ObsSample sample;
    MetricsRegistry registry{0};
    bool have_registry = false;

    /** GET /stats body: one JSON object. */
    std::string toJson() const;
    /** GET /metrics body: Prometheus text exposition format. */
    std::string toPrometheus() const;
};

/** Aggregator knobs, derived from ServerObsConfig by the server. */
struct AggregatorConfig
{
    int interval_ms = 100;
    std::size_t history = 512;
    std::string stream_path;       ///< empty: no trace streaming
    std::size_t chunk_events = 4096;
};

class ObsAggregator
{
  public:
    ObsAggregator(DynamicsServer &server, AggregatorConfig cfg);
    ~ObsAggregator();

    ObsAggregator(const ObsAggregator &) = delete;
    ObsAggregator &operator=(const ObsAggregator &) = delete;

    /** Spawn the aggregator thread. No-op if already running. */
    void start();

    /**
     * Stop the thread, take one final tick (samples and streams the
     * tail of the run), and finalize the streamed file. Idempotent.
     * Call after the serving workers have quiesced.
     */
    void stop();

    /**
     * One synchronous aggregation tick on the calling thread. Used
     * by the background loop and directly by tests; external callers
     * must not race the background thread (tick while stopped, or
     * never start()).
     */
    void tickOnce();

    /** Latest snapshot (copy). Sample.seq == 0 ⇒ no tick yet. */
    StatsSnapshot latest() const;

    /** Time-series copy, oldest first (bounded by cfg.history). */
    std::vector<ObsSample> history() const;

    std::uint64_t sampleCount() const;

    bool streaming() const { return streamer_ != nullptr; }
    std::uint64_t streamedEvents() const;
    std::uint64_t streamedDropped() const;

    const AggregatorConfig &config() const { return cfg_; }

  private:
    void loop();

    DynamicsServer &server_;
    AggregatorConfig cfg_;
    std::unique_ptr<TraceStreamer> streamer_; ///< aggregator-thread only

    mutable std::mutex mu_; ///< guards series_/latest_/stop_/seq counters
    std::condition_variable cv_;
    std::thread thread_;
    bool running_ = false;
    bool stop_ = false;
    std::uint64_t seq_ = 0;
    std::deque<ObsSample> series_;
    StatsSnapshot latest_;
    MetricsRegistry scratch_{0}; ///< tick-thread registry copy target
};

} // namespace dadu::runtime::obs

#endif // DADU_RUNTIME_OBS_AGGREGATE_H
