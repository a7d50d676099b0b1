/**
 * @file
 * Metrics registry: log-bucketed latency histograms, exact counters,
 * and gauges for the serving layer.
 *
 * Histogram scheme. Buckets are logarithmic in microseconds with 16
 * sub-buckets per octave (power of two): bucket widths are ≤ 1/16 of
 * an octave, i.e. every recorded value is representable to within
 * ~4.4% relative error. 20 octaves cover [1µs, ~1.05s); values below
 * 1µs land in a dedicated underflow bucket and values at or above
 * 2^20 µs in an overflow bucket. Exact count/sum/min/max ride along,
 * so mean is exact and percentile extraction is guaranteed to land
 * within one bucket of the exact order statistic.
 *
 * Everything here is mutated under the server mutex (or by a single
 * bench thread); the registry itself takes no locks and performs no
 * allocation after construction. It is copyable so benches can
 * snapshot it while a server is merely idle rather than destroyed.
 */

#ifndef DADU_RUNTIME_OBS_METRICS_H
#define DADU_RUNTIME_OBS_METRICS_H

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/request.h"

namespace dadu::runtime::obs {

/** Log-bucketed latency histogram over microsecond samples. */
class LatencyHistogram
{
  public:
    static constexpr int kSubBuckets = 16; ///< per octave ⇒ ≤4.4% bucket width
    static constexpr int kOctaves = 20;    ///< [2^0, 2^20) µs ≈ [1µs, 1.05s)
    static constexpr int kBuckets = kOctaves * kSubBuckets + 2; ///< +under/overflow

    /** Bucket index of a sample. 0 = underflow (<1µs), kBuckets-1 = overflow. */
    static int bucketIndex(double us)
    {
        if (!(us >= 1.0))
            return 0; // <1µs, negative, and NaN all underflow
        if (us >= static_cast<double>(1u << kOctaves))
            return kBuckets - 1;
        int exp = 0;
        const double m = std::frexp(us, &exp); // us = m·2^exp, m ∈ [0.5, 1)
        const int octave = exp - 1;            // us ∈ [2^octave, 2^(octave+1))
        int sub = static_cast<int>((m - 0.5) * 2.0 * kSubBuckets);
        if (sub < 0)
            sub = 0;
        if (sub >= kSubBuckets)
            sub = kSubBuckets - 1;
        return 1 + octave * kSubBuckets + sub;
    }

    /** Inclusive lower edge of bucket i, in µs (0 for the underflow bucket). */
    static double bucketLowUs(int i)
    {
        if (i <= 0)
            return 0.0;
        if (i >= kBuckets - 1)
            return static_cast<double>(1u << kOctaves);
        const int octave = (i - 1) / kSubBuckets;
        const int sub = (i - 1) % kSubBuckets;
        const double lo = std::ldexp(1.0, octave);
        return lo * (1.0 + static_cast<double>(sub) / kSubBuckets);
    }

    /** Exclusive upper edge of bucket i, in µs (inf for the overflow bucket). */
    static double bucketHighUs(int i)
    {
        if (i <= 0)
            return 1.0;
        if (i >= kBuckets - 1)
            return std::numeric_limits<double>::infinity();
        const int octave = (i - 1) / kSubBuckets;
        const int sub = (i - 1) % kSubBuckets;
        const double lo = std::ldexp(1.0, octave);
        return lo * (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
    }

    void record(double us)
    {
        ++buckets_[static_cast<std::size_t>(bucketIndex(us))];
        ++count_;
        sum_ += us;
        if (us < min_)
            min_ = us;
        if (us > max_)
            max_ = us;
    }

    std::uint64_t count() const { return count_; }
    double sumUs() const { return sum_; }
    double meanUs() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    double minUs() const { return count_ ? min_ : 0.0; }
    double maxUs() const { return count_ ? max_ : 0.0; }
    std::uint64_t bucketCount(int i) const
    {
        return buckets_[static_cast<std::size_t>(i)];
    }

    /**
     * Percentile estimate: the midpoint of the bucket holding the
     * ceil(p·count)-th order statistic, clamped to the observed
     * [min, max]. Always within one bucket of the exact value.
     */
    double percentileUs(double p) const;

    void merge(const LatencyHistogram &other);
    void reset();

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Which latency a histogram measures. */
enum class LatKind : std::uint8_t
{
    QueueWait,  ///< submit → first picked by a serving thread
    Service,    ///< modeled backend busy time attributed to the job
    EndToEnd,   ///< submit → all items completed
};
constexpr int kLatKinds = 3;

/** Monotonic event counters. */
enum class Counter : std::uint8_t
{
    JobsSubmitted,
    JobsCompleted,
    JobsRejected,
    JobsFailed,
    DeadlineMet,
    DeadlineMissed,
    TransientFaults,
    Retries,
    LaneDeaths,
    StolenItems,
    CoalescedItems,
    AdmissionSamples, ///< completions with a recorded admission prediction
};
constexpr int kCounters = 12;

/** Point-in-time values. */
enum class Gauge : std::uint8_t
{
    TaskUsEwma, ///< last-served lane's wall µs per FD-equivalent task
    AdmissionErrRelEwma, ///< EWMA of |actual-predicted| / predicted horizon
    AdmissionLastErrUs,  ///< signed actual-minus-predicted of the last sample
};
constexpr int kGauges = 3;

constexpr int kFunctionTypes = 7; ///< matches FunctionType's enumerator count

/**
 * One server's metrics: histograms keyed by (function, tagged, kind),
 * counters, gauges, and per-lane load. Fixed-size after construction.
 */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(int lanes) : lane_load_(static_cast<std::size_t>(lanes), 0.0) {}

    LatencyHistogram &histogram(FunctionType fn, bool tagged, LatKind kind)
    {
        return hist_[static_cast<std::size_t>(fn)][tagged ? 1 : 0]
                    [static_cast<std::size_t>(kind)];
    }
    const LatencyHistogram &histogram(FunctionType fn, bool tagged, LatKind kind) const
    {
        return hist_[static_cast<std::size_t>(fn)][tagged ? 1 : 0]
                    [static_cast<std::size_t>(kind)];
    }

    /** All-function merged view of one (tagged, kind) cell. */
    LatencyHistogram mergedHistogram(bool tagged, LatKind kind) const;

    void add(Counter c, std::uint64_t n = 1)
    {
        counters_[static_cast<std::size_t>(c)] += n;
    }
    std::uint64_t counter(Counter c) const
    {
        return counters_[static_cast<std::size_t>(c)];
    }

    void set(Gauge g, double v)
    {
        gauges_[static_cast<std::size_t>(g)] = v;
        ++gauge_samples_[static_cast<std::size_t>(g)];
    }
    double gauge(Gauge g) const { return gauges_[static_cast<std::size_t>(g)]; }

    /** Exponentially-weighted update; the first sample seeds the gauge. */
    void ewma(Gauge g, double sample, double alpha = 0.2)
    {
        double &v = gauges_[static_cast<std::size_t>(g)];
        std::uint64_t &n = gauge_samples_[static_cast<std::size_t>(g)];
        v = n == 0 ? sample : (1.0 - alpha) * v + alpha * sample;
        ++n;
    }
    std::uint64_t gaugeSamples(Gauge g) const
    {
        return gauge_samples_[static_cast<std::size_t>(g)];
    }

    void setLaneLoad(int lane, double weight)
    {
        lane_load_[static_cast<std::size_t>(lane)] = weight;
    }
    double laneLoad(int lane) const { return lane_load_[static_cast<std::size_t>(lane)]; }
    int lanes() const { return static_cast<int>(lane_load_.size()); }

  private:
    std::array<std::array<std::array<LatencyHistogram, kLatKinds>, 2>, kFunctionTypes>
        hist_{};
    std::array<std::uint64_t, kCounters> counters_{};
    std::array<double, kGauges> gauges_{};
    std::array<std::uint64_t, kGauges> gauge_samples_{};
    std::vector<double> lane_load_;
};

} // namespace dadu::runtime::obs

#endif // DADU_RUNTIME_OBS_METRICS_H
