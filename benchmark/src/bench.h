/**
 * @file
 * Shared pieces of rbdbench: sample statistics, the metric report,
 * the slice plan, the TimedBackend decorator, seeded inputs and the
 * scalar reference kernels the correctness checks compare against.
 *
 * Everything here observes the library from outside, through its
 * public headers; no span or counter is added inside src/.
 */

#ifndef RBDBENCH_BENCH_H
#define RBDBENCH_BENCH_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "algorithms/dynamics.h"
#include "algorithms/workspace.h"
#include "model/robot_model.h"
#include "perf/timing.h"
#include "runtime/backend.h"

namespace rbdbench {

using dadu::linalg::MatrixX;
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::perf::nowUs;
using dadu::runtime::BatchStats;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::FunctionType;
using dadu::runtime::SubmitStatus;

/** Raw timing samples; percentiles are nearest-rank on the sorted set. */
class Samples
{
  public:
    void add(double v)
    {
        v_.push_back(v);
        sorted_ = false;
    }
    void append(const Samples &o)
    {
        v_.insert(v_.end(), o.v_.begin(), o.v_.end());
        sorted_ = false;
    }
    std::size_t size() const { return v_.size(); }
    /** Nearest-rank percentile, @p p in [0, 1]; 0 for an empty set. */
    double pct(double p) const;
    double median() const { return pct(0.5); }

  private:
    mutable std::vector<double> v_; ///< sorted lazily by pct()
    mutable bool sorted_ = true;
};

/** Geometric mean of positive values (0 for an empty set). */
double geomean(const std::vector<double> &v);

/** One reported metric: value, unit, and the samples behind it. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::size_t samples = 0;
};

/** Everything one rbdbench invocation reports. */
struct RunResult
{
    std::vector<std::string> failures; ///< empty = outputs correct
    std::vector<std::string> warnings; ///< measurement validity notes
    bool valid = true; ///< false: the load was not what the workload claims
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Exact outputs for cross-run checks (printed as hex floats). */
    std::vector<std::pair<std::string, double>> outputs;
    /** Per-robot layer detail (not part of the metric contract). */
    std::vector<Metric> detail;

    void fail(std::string msg) { failures.push_back(std::move(msg)); }
    void metric(std::string name, std::string unit, double value,
                std::size_t samples)
    {
        metrics.push_back({std::move(name), std::move(unit), value, samples});
    }
};

/** How one invocation runs, from the command line. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;     ///< the fewest slices, at 1/10 of the work
    std::string trace_out;  ///< Chrome-trace path ("" = none)
};

/**
 * Slices in one run. A slice is a fixed amount of work set up from
 * scratch; the count follows from --seconds alone (@p slice_s is one
 * slice's time on the 4-core host the benchmark was sized on), never
 * from how fast this build runs, so two commits do identical work and
 * draw the same number of samples. A traced run alternates untraced
 * and traced slices (the pair gives the tracing overhead), so it needs
 * at least two; --quick runs the minimum.
 */
int sliceCount(const RunOptions &o, double slice_s);

/** Whether slice @p i of a run is a traced one. */
inline bool
tracedSlice(const RunOptions &o, int i)
{
    return o.trace && i % 2 == 1;
}

/**
 * The end-to-end metrics of a run with --trace 0: the workload's
 * request latency at p50 and p99, its request rate, the median set-up
 * time, and the peak RSS. Times and the rate come scaled by the host
 * probe (calib.h).
 */
void reportEndToEnd(double p50_us, double p99_us, double rate_per_s,
                    std::size_t requests, const Samples &setup_us,
                    RunResult &res);

/**
 * The run's detail beside the end-to-end metrics: the request latency
 * at p50 and p99 as measured, before the host-probe scaling, and the
 * median host-probe factor of the run (calib.h).
 */
void reportAsMeasured(double p50_us, double p99_us, std::size_t requests,
                      const Samples &factors, RunResult &res);

/**
 * DynamicsBackend decorator of the traced MPC slices: sums the wall
 * time of every submit from outside, so the backend layer has a clock
 * independent of the server's own accounting. The server drives each
 * lane from one thread at a time, so the sum needs no lock.
 */
class TimedBackend final : public dadu::runtime::DynamicsBackend
{
  public:
    explicit TimedBackend(dadu::runtime::DynamicsBackend &inner)
        : inner_(inner)
    {}

    const char *name() const override { return inner_.name(); }
    const RobotModel &robot() const override { return inner_.robot(); }
    bool offloaded() const override { return inner_.offloaded(); }
    SubmitStatus submit(FunctionType fn, const DynamicsRequest *requests,
                        std::size_t count, DynamicsResult *results,
                        BatchStats *stats = nullptr) override;
    using DynamicsBackend::submit;

    double busyUs() const { return busy_us_; }
    void reset() { busy_us_ = 0.0; }

  private:
    dadu::runtime::DynamicsBackend &inner_;
    double busy_us_ = 0.0;
};

/**
 * The generator of one input stream of a run: every input comes from
 * (seed, stream), so the same seed gives the same inputs and streams
 * stay independent of each other.
 */
std::mt19937 makeRng(std::uint64_t seed, std::uint32_t stream);

/** @p n seeded random requests (configuration, velocity, τ or q̈). */
std::vector<DynamicsRequest> seededRequests(const RobotModel &robot, int n,
                                            std::mt19937 &rng);

/**
 * Single-point scalar reference of one Table I function through the
 * algo:: workspace kernels — what the CPU engine must match bitwise.
 */
void scalarExecute(const RobotModel &robot, dadu::algo::DynamicsWorkspace &ws,
                   dadu::algo::FdDerivatives &fd, FunctionType fn,
                   const DynamicsRequest &req, DynamicsResult &out);

/** True when every output field of @p fn is bit-for-bit equal. */
bool sameBits(FunctionType fn, const DynamicsResult &a,
              const DynamicsResult &b);

/**
 * Largest relative error of @p got against @p ref over @p fn's output
 * fields, each entry scaled by max(1, |ref|).
 */
double relErr(FunctionType fn, const DynamicsResult &got,
              const DynamicsResult &ref);

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** Lower-case ASCII name of a Table I function (id, fd, m, ...). */
const char *fnKey(FunctionType fn);

/** The six Table I functions the sweep and the probes cover. */
inline constexpr FunctionType kSweepFns[] = {
    FunctionType::ID,   FunctionType::FD,      FunctionType::M,
    FunctionType::Minv, FunctionType::DeltaID, FunctionType::DeltaFD,
};

/** A robot of the evaluation set. */
struct RobotSpec
{
    const char *name;
    RobotModel (*make)();
};

/**
 * Per-layer metrics measured by direct calls on @p robots (kernel,
 * engine, backend and accelerator layers), combined over the robots;
 * per-robot values go to @p detail.
 */
void probeLayers(const std::vector<RobotSpec> &robots, std::uint64_t seed,
                 bool quick, std::vector<Metric> &metrics,
                 std::vector<Metric> &detail);

/**
 * Sums of a workload's traced slices behind the ctrl and server
 * per-layer metrics. "Client jobs" are the MPC client's server jobs
 * (tagged on serve_mixed, untagged on the sync workloads); "bulk" is
 * the open-loop stream. All zero on a path without a server.
 */
struct ServingSums
{
    double tick_us = 0.0;     ///< Σ tick wall
    std::size_t ticks = 0;
    double mpc_e2e = 0.0;     ///< Σ end-to-end of the client jobs
    double mpc_wait = 0.0;    ///< Σ queue wait of the client jobs
    double mpc_service = 0.0; ///< Σ backend service of the client jobs
    double bulk_e2e = 0.0;
    double bulk_wait = 0.0;
    std::size_t session_jobs = 0;
    std::size_t mpc_tasks = 0;
    std::size_t batches = 0;
    std::size_t tasks = 0;
    std::size_t coalesced_batches = 0;
    std::size_t coalesced_items = 0;
    std::size_t steals = 0;
    double server_busy_us = 0.0;  ///< Σ BatchStats::total_us (server)
    double timed_submit_us = 0.0; ///< Σ submit wall (TimedBackend)
    double lane_busy_us[2] = {0.0, 0.0};
    double wall_us = 0.0;         ///< Σ round wall
    std::size_t tagged = 0;       ///< tagged + shed client jobs
    std::size_t missed = 0;       ///< late + shed client jobs
};

/** The ctrl.* and server.* per-layer metrics of @p sums. */
void servingLayerMetrics(const ServingSums &sums, std::size_t degraded,
                         RunResult &res);

/** The three MPC workloads: mpc_arm, mpc_quadruped, serve_mixed. */
bool isMpcWorkload(const std::string &name);
RunResult runMpcWorkload(const std::string &name, const RunOptions &opts);

/** The offline sweep over robots x functions. */
RunResult runBatchSweep(const RunOptions &opts);

} // namespace rbdbench

#endif // RBDBENCH_BENCH_H
