#include "runtime/obs/aggregate.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "runtime/obs/export.h"
#include "runtime/server.h"

namespace dadu::runtime::obs {

namespace {

/** Append a finite number (JSON/Prometheus have no inf/nan). */
void appendNum(std::string &s, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", std::isfinite(v) ? v : 0.0);
    s += buf;
}

void appendU64(std::string &s, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    s += buf;
}

} // namespace

std::string StatsSnapshot::toJson() const
{
    std::string s;
    s.reserve(2048);
    s += "{\"seq\":";
    appendU64(s, sample.seq);
    s += ",\"t_us\":";
    appendNum(s, sample.t_us);
    s += ",\"pending_jobs\":";
    appendU64(s, sample.pending_jobs);

    s += ",\"lanes\":[";
    for (std::size_t l = 0; l < sample.lanes.size(); ++l)
    {
        if (l)
            s += ',';
        const LaneSample &ls = sample.lanes[l];
        s += "{\"id\":";
        appendU64(s, l);
        s += ",\"healthy\":";
        s += ls.healthy ? "true" : "false";
        s += ",\"load\":";
        appendNum(s, ls.load_weight);
        s += ",\"queue_depth\":";
        appendU64(s, ls.queue_depth);
        s += '}';
    }
    s += ']';

    s += ",\"counters\":{";
    for (int c = 0; c < kCounters; ++c)
    {
        if (c)
            s += ',';
        s += '"';
        s += counterKeyName(static_cast<Counter>(c));
        s += "\":";
        appendU64(s, sample.counters[static_cast<std::size_t>(c)]);
    }
    s += "},\"deltas\":{";
    for (int c = 0; c < kCounters; ++c)
    {
        if (c)
            s += ',';
        s += '"';
        s += counterKeyName(static_cast<Counter>(c));
        s += "\":";
        appendU64(s, sample.delta[static_cast<std::size_t>(c)]);
    }
    s += "},\"gauges\":{";
    for (int g = 0; g < kGauges; ++g)
    {
        if (g)
            s += ',';
        s += '"';
        s += gaugeKeyName(static_cast<Gauge>(g));
        s += "\":";
        appendNum(s, sample.gauges[static_cast<std::size_t>(g)]);
    }
    s += '}';

    s += ",\"latency_us\":{\"tagged_e2e_p50\":";
    appendNum(s, sample.tagged_e2e_p50_us);
    s += ",\"tagged_e2e_p99\":";
    appendNum(s, sample.tagged_e2e_p99_us);
    s += ",\"bulk_e2e_p50\":";
    appendNum(s, sample.bulk_e2e_p50_us);
    s += ",\"bulk_e2e_p99\":";
    appendNum(s, sample.bulk_e2e_p99_us);
    s += '}';

    // Per-fn×tagged end-to-end percentiles: only cells with samples.
    s += ",\"fn_latency\":[";
    bool first = true;
    if (have_registry)
        for (int fn = 0; fn < kFunctionTypes; ++fn)
            for (int tagged = 0; tagged < 2; ++tagged)
            {
                const LatencyHistogram &h = registry.histogram(
                    static_cast<FunctionType>(fn), tagged != 0,
                    LatKind::EndToEnd);
                if (h.count() == 0)
                    continue;
                if (!first)
                    s += ',';
                first = false;
                s += "{\"fn\":\"";
                s += shortFunctionName(static_cast<FunctionType>(fn));
                s += "\",\"tagged\":";
                s += tagged ? "true" : "false";
                s += ",\"count\":";
                appendU64(s, h.count());
                s += ",\"mean_us\":";
                appendNum(s, h.meanUs());
                s += ",\"p50_us\":";
                appendNum(s, h.percentileUs(0.50));
                s += ",\"p99_us\":";
                appendNum(s, h.percentileUs(0.99));
                s += '}';
            }
    s += ']';

    s += ",\"trace\":{\"recorded\":";
    appendU64(s, sample.trace_recorded);
    s += ",\"streamed\":";
    appendU64(s, sample.trace_streamed);
    s += ",\"dropped\":";
    appendU64(s, sample.trace_dropped);
    s += "}}";
    return s;
}

std::string StatsSnapshot::toPrometheus() const
{
    std::string s;
    s.reserve(2048);
    char buf[160];

    s += "# HELP dadu_sample_seq Aggregator tick number of this snapshot.\n"
         "# TYPE dadu_sample_seq counter\n"
         "dadu_sample_seq ";
    appendU64(s, sample.seq);
    s += "\n# HELP dadu_pending_jobs Jobs enqueued but not yet completed.\n"
         "# TYPE dadu_pending_jobs gauge\ndadu_pending_jobs ";
    appendU64(s, sample.pending_jobs);
    s += '\n';

    s += "# TYPE dadu_lane_healthy gauge\n";
    for (std::size_t l = 0; l < sample.lanes.size(); ++l)
    {
        std::snprintf(buf, sizeof(buf), "dadu_lane_healthy{lane=\"%zu\"} %d\n",
                      l, sample.lanes[l].healthy ? 1 : 0);
        s += buf;
    }
    s += "# TYPE dadu_lane_load gauge\n";
    for (std::size_t l = 0; l < sample.lanes.size(); ++l)
    {
        std::snprintf(buf, sizeof(buf), "dadu_lane_load{lane=\"%zu\"} ", l);
        s += buf;
        appendNum(s, sample.lanes[l].load_weight);
        s += '\n';
    }
    s += "# TYPE dadu_lane_queue_depth gauge\n";
    for (std::size_t l = 0; l < sample.lanes.size(); ++l)
    {
        std::snprintf(buf, sizeof(buf),
                      "dadu_lane_queue_depth{lane=\"%zu\"} %zu\n", l,
                      sample.lanes[l].queue_depth);
        s += buf;
    }

    for (int c = 0; c < kCounters; ++c)
    {
        const char *name = counterKeyName(static_cast<Counter>(c));
        std::snprintf(buf, sizeof(buf), "# TYPE dadu_%s_total counter\ndadu_%s_total ",
                      name, name);
        s += buf;
        appendU64(s, sample.counters[static_cast<std::size_t>(c)]);
        s += '\n';
    }
    for (int g = 0; g < kGauges; ++g)
    {
        const char *name = gaugeKeyName(static_cast<Gauge>(g));
        std::snprintf(buf, sizeof(buf), "# TYPE dadu_%s gauge\ndadu_%s ",
                      name, name);
        s += buf;
        appendNum(s, sample.gauges[static_cast<std::size_t>(g)]);
        s += '\n';
    }

    s += "# TYPE dadu_latency_e2e_us gauge\n";
    if (have_registry)
        for (int fn = 0; fn < kFunctionTypes; ++fn)
            for (int tagged = 0; tagged < 2; ++tagged)
            {
                const LatencyHistogram &h = registry.histogram(
                    static_cast<FunctionType>(fn), tagged != 0,
                    LatKind::EndToEnd);
                if (h.count() == 0)
                    continue;
                const char *fname =
                    shortFunctionName(static_cast<FunctionType>(fn));
                const char *tag = tagged ? "true" : "false";
                std::snprintf(buf, sizeof(buf),
                              "dadu_latency_e2e_us{fn=\"%s\",tagged=\"%s\","
                              "quantile=\"0.5\"} ",
                              fname, tag);
                s += buf;
                appendNum(s, h.percentileUs(0.50));
                s += '\n';
                std::snprintf(buf, sizeof(buf),
                              "dadu_latency_e2e_us{fn=\"%s\",tagged=\"%s\","
                              "quantile=\"0.99\"} ",
                              fname, tag);
                s += buf;
                appendNum(s, h.percentileUs(0.99));
                s += '\n';
                std::snprintf(buf, sizeof(buf),
                              "dadu_latency_e2e_us_count{fn=\"%s\",tagged=\"%s\"} ",
                              fname, tag);
                s += buf;
                appendU64(s, h.count());
                s += '\n';
            }

    s += "# TYPE dadu_trace_events_total counter\ndadu_trace_events_total ";
    appendU64(s, sample.trace_recorded);
    s += "\n# TYPE dadu_trace_streamed_total counter\ndadu_trace_streamed_total ";
    appendU64(s, sample.trace_streamed);
    s += "\n# TYPE dadu_trace_dropped_total counter\ndadu_trace_dropped_total ";
    appendU64(s, sample.trace_dropped);
    s += '\n';
    return s;
}

ObsAggregator::ObsAggregator(DynamicsServer &server, AggregatorConfig cfg)
    : server_(server), cfg_(std::move(cfg))
{
    if (cfg_.interval_ms <= 0)
        cfg_.interval_ms = 100;
    if (cfg_.history == 0)
        cfg_.history = 1;
    if (!cfg_.stream_path.empty() && server_.traceBuffer())
    {
        streamer_ = std::make_unique<TraceStreamer>(*server_.traceBuffer(),
                                                    cfg_.chunk_events);
        if (!streamer_->openFile(cfg_.stream_path))
            streamer_.reset(); // unwritable path: run without streaming
    }
}

ObsAggregator::~ObsAggregator()
{
    stop();
}

void ObsAggregator::start()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (running_)
            return;
        running_ = true;
        stop_ = false;
    }
    thread_ = std::thread([this] { loop(); });
}

void ObsAggregator::loop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_)
    {
        lk.unlock();
        tickOnce();
        lk.lock();
        cv_.wait_for(lk, std::chrono::milliseconds(cfg_.interval_ms),
                     [&] { return stop_; });
    }
}

void ObsAggregator::stop()
{
    bool was_running;
    {
        std::lock_guard<std::mutex> lk(mu_);
        was_running = running_;
        stop_ = true;
        running_ = false;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    if (!was_running)
        return;
    // Final tick with the producers quiesced: the tail of the run
    // lands in the series and the streamed file before the footer.
    tickOnce();
    if (streamer_ && streamer_->fileOpen())
        streamer_->closeFile();
}

void ObsAggregator::tickOnce()
{
    ObsSample s;
    s.t_us = server_.clock()();
    s.pending_jobs = server_.pending();
    const int lanes = server_.backendCount();
    s.lanes.resize(static_cast<std::size_t>(lanes));
    for (int l = 0; l < lanes; ++l)
    {
        LaneSample &ls = s.lanes[static_cast<std::size_t>(l)];
        ls.healthy = server_.laneHealthy(l);
        ls.load_weight = server_.laneLoadWeight(l);
        ls.queue_depth = server_.laneQueueDepth(l);
    }

    const bool have_reg = server_.metricsSnapshot(scratch_);
    if (have_reg)
    {
        for (int c = 0; c < kCounters; ++c)
            s.counters[static_cast<std::size_t>(c)] =
                scratch_.counter(static_cast<Counter>(c));
        for (int g = 0; g < kGauges; ++g)
            s.gauges[static_cast<std::size_t>(g)] =
                scratch_.gauge(static_cast<Gauge>(g));
        const LatencyHistogram tagged =
            scratch_.mergedHistogram(true, LatKind::EndToEnd);
        const LatencyHistogram bulk =
            scratch_.mergedHistogram(false, LatKind::EndToEnd);
        s.tagged_e2e_p50_us = tagged.percentileUs(0.50);
        s.tagged_e2e_p99_us = tagged.percentileUs(0.99);
        s.bulk_e2e_p50_us = bulk.percentileUs(0.50);
        s.bulk_e2e_p99_us = bulk.percentileUs(0.99);
    }

    if (const TraceBuffer *buf = server_.traceBuffer())
    {
        const std::size_t n = buf->ringCount();
        for (std::size_t r = 0; r < n; ++r)
            s.trace_recorded += buf->ring(r).recorded();
    }
    if (streamer_)
    {
        streamer_->flush();
        s.trace_streamed = streamer_->delivered();
        s.trace_dropped = streamer_->dropped();
    }

    std::lock_guard<std::mutex> lk(mu_);
    s.seq = ++seq_;
    if (!series_.empty())
        for (int c = 0; c < kCounters; ++c)
        {
            const std::size_t i = static_cast<std::size_t>(c);
            const std::uint64_t prev = series_.back().counters[i];
            s.delta[i] = s.counters[i] >= prev ? s.counters[i] - prev : 0;
        }
    else
        s.delta = s.counters;
    series_.push_back(s);
    while (series_.size() > cfg_.history)
        series_.pop_front();
    latest_.sample = std::move(s);
    if (have_reg)
    {
        latest_.registry = scratch_;
        latest_.have_registry = true;
    }
}

StatsSnapshot ObsAggregator::latest() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return latest_;
}

std::vector<ObsSample> ObsAggregator::history() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return std::vector<ObsSample>(series_.begin(), series_.end());
}

std::uint64_t ObsAggregator::sampleCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return seq_;
}

std::uint64_t ObsAggregator::streamedEvents() const
{
    return streamer_ ? streamer_->delivered() : 0;
}

std::uint64_t ObsAggregator::streamedDropped() const
{
    return streamer_ ? streamer_->dropped() : 0;
}

} // namespace dadu::runtime::obs
