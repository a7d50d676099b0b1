#include "runtime/obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace dadu::runtime::obs {

const char *shortFunctionName(FunctionType fn)
{
    switch (fn)
    {
    case FunctionType::ID: return "id";
    case FunctionType::FD: return "fd";
    case FunctionType::M: return "m";
    case FunctionType::Minv: return "minv";
    case FunctionType::DeltaID: return "did";
    case FunctionType::DeltaFD: return "dfd";
    case FunctionType::DeltaiFD: return "difd";
    }
    return "fn";
}

namespace {

/** Chrome phase of an event kind: duration begin/end, or instant. */
char phaseOf(EventKind k)
{
    switch (k)
    {
    case EventKind::ExecBegin:
    case EventKind::TickBegin:
    case EventKind::IterBegin:
    case EventKind::RiccatiBegin:
        return 'B';
    case EventKind::ExecEnd:
    case EventKind::TickEnd:
    case EventKind::IterEnd:
    case EventKind::RiccatiEnd:
        return 'E';
    default:
        return 'i';
    }
}

/** Track name of a span; B/E pairs must agree for Chrome to nest them. */
const char *spanName(EventKind k)
{
    switch (k)
    {
    case EventKind::ExecBegin:
    case EventKind::ExecEnd:
        return "exec";
    case EventKind::TickBegin:
    case EventKind::TickEnd:
        return "tick";
    case EventKind::IterBegin:
    case EventKind::IterEnd:
        return "ilqr_iter";
    case EventKind::RiccatiBegin:
    case EventKind::RiccatiEnd:
        return "riccati";
    default:
        return eventKindName(k);
    }
}

/** JSON has no inf/nan; deadline-less jobs carry b = inf. */
double finiteOr(double v, double fallback) { return std::isfinite(v) ? v : fallback; }

} // namespace

ChromeTraceWriter::~ChromeTraceWriter()
{
    if (f_)
        std::fclose(f_);
}

bool ChromeTraceWriter::open(const std::string &path)
{
    if (f_)
        return false;
    f_ = std::fopen(path.c_str(), "w");
    if (!f_)
        return false;
    first_ = true;
    std::fprintf(f_, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    return true;
}

void ChromeTraceWriter::comma()
{
    if (!first_)
        std::fputc(',', f_);
    first_ = false;
}

void ChromeTraceWriter::threadName(std::size_t tid, const char *name)
{
    if (!f_)
        return;
    comma();
    std::fprintf(f_,
                 "{\"ph\":\"M\",\"pid\":0,\"tid\":%zu,\"ts\":0,"
                 "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 tid, name);
}

void ChromeTraceWriter::event(const TraceEvent &ev, std::size_t tid)
{
    if (!f_)
        return;
    const double ts = ev.t_us - t0_;
    const char ph = phaseOf(ev.kind);

    comma();
    if (ph == 'B' || ph == 'E')
    {
        std::fprintf(f_,
                     "{\"ph\":\"%c\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                     "\"name\":\"%s\",\"cat\":\"span\",\"args\":{\"job\":%d,"
                     "\"fn\":\"%s\",\"a\":%u,\"b\":%.3f}}",
                     ph, tid, ts, spanName(ev.kind), ev.job,
                     shortFunctionName(ev.fn), ev.a, finiteOr(ev.b, -1.0));
    }
    else
    {
        std::fprintf(f_,
                     "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%zu,"
                     "\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"event\","
                     "\"args\":{\"job\":%d,\"lane\":%d,\"fn\":\"%s\","
                     "\"a\":%u,\"b\":%.3f}}",
                     tid, ts, eventKindName(ev.kind), ev.job, ev.lane,
                     shortFunctionName(ev.fn), ev.a, finiteOr(ev.b, -1.0));
    }

    // Stitch the job's path across tracks with flow events; every
    // terminal event (completed, shed or failed) closes the flow.
    const bool terminal = ev.kind == EventKind::Completed ||
                          ev.kind == EventKind::Rejected ||
                          ev.kind == EventKind::Failed;
    if (ev.job >= 0 && (ev.kind == EventKind::Submit ||
                        ev.kind == EventKind::Picked || terminal))
    {
        const char *fph = ev.kind == EventKind::Submit ? "s"
                          : ev.kind == EventKind::Picked ? "t"
                                                         : "f";
        comma();
        std::fprintf(f_,
                     "{\"ph\":\"%s\",\"pid\":0,\"tid\":%zu,\"ts\":%.3f,"
                     "\"name\":\"job\",\"cat\":\"job\",\"id\":%d%s}",
                     fph, tid, ts, ev.job, terminal ? ",\"bp\":\"e\"" : "");
    }
}

bool ChromeTraceWriter::close(std::uint64_t dropped_events)
{
    if (!f_)
        return false;
    std::fprintf(f_, "],\"droppedEvents\":%" PRIu64 "}\n", dropped_events);
    const bool ok = std::fclose(f_) == 0;
    f_ = nullptr;
    return ok;
}

bool writeChromeTrace(const TraceBuffer &buf, const std::string &path)
{
    ChromeTraceWriter w;
    if (!w.open(path))
        return false;

    const std::size_t n_rings = buf.ringCount();

    // Rebase timestamps so the earliest retained event is ts = 0.
    double t0 = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < n_rings; ++r)
    {
        const TraceRing &ring = buf.ring(r);
        for (std::size_t i = 0; i < ring.retained(); ++i)
            if (ring.at(i).t_us < t0)
                t0 = ring.at(i).t_us;
    }
    w.setTimeBaseUs(std::isfinite(t0) ? t0 : 0.0);

    for (std::size_t r = 0; r < n_rings; ++r)
    {
        const TraceRing &ring = buf.ring(r);
        w.threadName(r, ring.name());
        for (std::size_t i = 0; i < ring.retained(); ++i)
            w.event(ring.at(i), r);
    }
    return w.close(buf.totalDropped());
}

void emitHistogram(const LatencyHistogram &h, const std::string &prefix,
                   const MetricEmitFn &emit)
{
    emit(prefix + "_count", static_cast<double>(h.count()));
    if (h.count() == 0)
        return;
    emit(prefix + "_mean_us", h.meanUs());
    emit(prefix + "_min_us", h.minUs());
    emit(prefix + "_max_us", h.maxUs());
    emit(prefix + "_p50_us", h.percentileUs(0.50));
    emit(prefix + "_p90_us", h.percentileUs(0.90));
    emit(prefix + "_p99_us", h.percentileUs(0.99));
    emit(prefix + "_p999_us", h.percentileUs(0.999));
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
    {
        const std::uint64_t c = h.bucketCount(i);
        if (c)
            emit(prefix + "_b" + std::to_string(i), static_cast<double>(c));
    }
}

void emitHistogramScheme(const MetricEmitFn &emit)
{
    emit("hist_sub_buckets", LatencyHistogram::kSubBuckets);
    emit("hist_octaves", LatencyHistogram::kOctaves);
    emit("hist_buckets", LatencyHistogram::kBuckets);
}

const char *counterKeyName(Counter c)
{
    static const char *const names[kCounters] = {
        "jobs_submitted",  "jobs_completed",  "jobs_rejected", "jobs_failed",
        "deadline_met",    "deadline_missed", "transient_faults", "retries",
        "lane_deaths",     "stolen_items",    "coalesced_items",
        "admission_samples",
    };
    return names[static_cast<int>(c)];
}

const char *gaugeKeyName(Gauge g)
{
    static const char *const names[kGauges] = {
        "task_us_ewma", "admission_err_rel_ewma", "admission_last_err_us",
    };
    return names[static_cast<int>(g)];
}

void emitRegistry(const MetricsRegistry &m, const std::string &prefix,
                  const MetricEmitFn &emit)
{
    for (int c = 0; c < kCounters; ++c)
        emit(prefix + "_" + counterKeyName(static_cast<Counter>(c)),
             static_cast<double>(m.counter(static_cast<Counter>(c))));

    for (int g = 0; g < kGauges; ++g)
        emit(prefix + "_" + gaugeKeyName(static_cast<Gauge>(g)),
             m.gauge(static_cast<Gauge>(g)));

    for (int l = 0; l < m.lanes(); ++l)
        emit(prefix + "_lane" + std::to_string(l) + "_load", m.laneLoad(l));

    static const char *const kind_names[kLatKinds] = {"wait", "service", "e2e"};
    for (int tagged = 0; tagged < 2; ++tagged)
        for (int k = 0; k < kLatKinds; ++k)
        {
            const LatencyHistogram merged =
                m.mergedHistogram(tagged != 0, static_cast<LatKind>(k));
            if (merged.count() == 0)
                continue;
            emitHistogram(merged,
                          prefix + (tagged ? "_tagged_" : "_bulk_") + kind_names[k],
                          emit);
        }
}

} // namespace dadu::runtime::obs
