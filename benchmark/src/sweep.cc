/**
 * @file
 * batch_sweep: offline dynamics throughput over iiwa, HyQ and Atlas x
 * {ID, FD, M, M⁻¹, ∆ID, ∆FD}. Each slice submits every cell's seeded
 * 256-point batch to CpuBatchedBackend(robot, 1) a fixed number of
 * times; no server and no controller are on the path. Every slice
 * checks a seeded sample of each cell's points bitwise against the
 * scalar kernels, and runs the same sample through the accelerator
 * simulator against the same reference. The host probe is read before
 * each batch and each set-up, and their times are scaled by its
 * factor (calib.h).
 *
 * One engine thread: with two, a batch ends when the slower of two
 * cores does, and the engine's parallel efficiency is measured in the
 * traced run instead (engine.parallel_eff).
 */

#include "bench.h"
#include "calib.h"

#include <iterator>
#include <memory>

#include "accel/accelerator.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/obs/export.h"

namespace rbdbench {

namespace {

namespace rt = dadu::runtime;
namespace obs = dadu::runtime::obs;

constexpr int kBatch = 256;
constexpr int kChecked = 8; ///< sampled points checked per cell
constexpr int kReps = 10;   ///< timed batches per cell per slice
/** One slice's time on the sizing host. */
constexpr double kSliceS = 1.0;
/** The simulator's tolerance against the scalar kernels (test_runtime). */
constexpr double kSimTol = 2e-2;
/** Trace events kept per robot track (drop-oldest). */
constexpr std::size_t kRingCapacity = std::size_t{1} << 12;

/** iiwa, HyQ, Atlas: the paper's evaluation robots. */
const std::vector<RobotSpec> kRobots = {
    {"iiwa", dadu::model::makeIiwa},
    {"hyq", dadu::model::makeHyq},
    {"atlas", dadu::model::makeAtlas},
};

/** One robot's seeded inputs and its checked sample. */
struct RobotInputs
{
    std::vector<DynamicsRequest> reqs;
    std::vector<DynamicsRequest> sample; ///< copies of the checked points
    std::vector<int> sample_idx;
};

/** One robot's stack, built by each slice's set-up. */
struct Stack
{
    explicit Stack(const RobotSpec &spec)
        : robot(spec.make()), cpu(robot, 1), accel(robot), sim(accel)
    {}
    RobotModel robot;
    rt::CpuBatchedBackend cpu;
    dadu::accel::Accelerator accel;
    rt::AcceleratorBackend sim;
};

/** One (robot, function) cell's untraced batches, pooled over slices. */
struct Cell
{
    Samples us;           ///< scaled by the host probe
    double wall_us = 0.0; ///< scaled
    Samples measured_us;
};

/**
 * The correctness gate of one cell: the engine's results @p out equal
 * the scalar kernels bit for bit on the checked sample, and the
 * accelerator simulator is within tolerance of the same reference.
 */
void
checkCell(Stack &st, const RobotInputs &in, FunctionType fn,
          const std::string &where, const std::vector<DynamicsResult> &out,
          RunResult &res)
{
    std::vector<DynamicsResult> ref(kChecked), sim_out(kChecked);
    dadu::algo::DynamicsWorkspace ws(st.robot);
    dadu::algo::FdDerivatives fd;
    for (int i = 0; i < kChecked; ++i)
        scalarExecute(st.robot, ws, fd, fn, in.sample[i], ref[i]);
    for (int i = 0; i < kChecked; ++i)
        if (!sameBits(fn, out[in.sample_idx[i]], ref[i])) {
            res.fail(where + ": CPU result differs from the scalar kernel "
                             "at point " +
                     std::to_string(in.sample_idx[i]));
            break;
        }
    ++res.attempted;
    if (st.sim.submit(fn, in.sample.data(), kChecked, sim_out.data()) !=
        SubmitStatus::Ok) {
        ++res.failed;
        res.fail(where + ": simulator submit failed");
    }
    for (int i = 0; i < kChecked; ++i) {
        const double e = relErr(fn, sim_out[i], ref[i]);
        if (!(e <= kSimTol)) {
            res.fail(where + ": simulator off the scalar kernel by " +
                     std::to_string(e));
            break;
        }
    }
}

} // namespace

RunResult
runBatchSweep(const RunOptions &opts)
{
    RunResult res;
    const std::vector<RobotSpec> &robots = kRobots;
    std::vector<RobotInputs> inputs;
    for (std::size_t r = 0; r < robots.size(); ++r) {
        const RobotModel robot = robots[r].make();
        std::mt19937 rng = makeRng(opts.seed, 10 + static_cast<int>(r));
        RobotInputs in;
        in.reqs = seededRequests(robot, kBatch, rng);
        std::uniform_int_distribution<int> pick(0, kBatch - 1);
        for (int i = 0; i < kChecked; ++i) {
            in.sample_idx.push_back(pick(rng));
            in.sample.push_back(in.reqs[in.sample_idx.back()]);
        }
        inputs.push_back(std::move(in));
    }
    const int reps = opts.quick ? kReps / 10 : kReps;
    const std::size_t n_fns = std::size(kSweepFns);
    std::vector<Cell> cells(robots.size() * n_fns);
    HostProbe probe;
    Samples setup_us, factors;
    Samples traced_us; // every traced batch, for the trace overhead
    double sweep_wall_us = 0.0, submit_us = 0.0, stats_us = 0.0;
    // Spans of the first traced slice, one track per robot. No server
    // runs here to own a trace buffer, so the sweep records its
    // submits as exec spans itself.
    std::unique_ptr<obs::TraceBuffer> trace;

    std::vector<DynamicsResult> out(kBatch);
    const int slices = sliceCount(opts, kSliceS);
    for (int slice = 0; slice < slices; ++slice) {
        const double setup_factor = probe.factor();
        const double s0 = nowUs();
        const bool traced = tracedSlice(opts, slice);
        const bool spans = traced && !opts.trace_out.empty() && !trace;
        if (spans)
            trace = std::make_unique<obs::TraceBuffer>(
                static_cast<int>(robots.size()), kRingCapacity);

        // ---- set-up: models, CPU engines, fitted accelerators
        std::vector<std::unique_ptr<Stack>> stacks;
        for (const RobotSpec &spec : robots)
            stacks.push_back(std::make_unique<Stack>(spec));
        if (!traced)
            setup_us.add((nowUs() - s0) * setup_factor);

        // A pass submits every cell's batch once. Passes repeat, so each
        // cell's batches spread over the whole slice and every cell sees
        // the same host conditions. Pass -1 warms up and is checked.
        const double w0 = nowUs();
        for (int pass = -1; pass < reps; ++pass) {
            for (std::size_t r = 0; r < robots.size(); ++r) {
                Stack &st = *stacks[r];
                const RobotInputs &in = inputs[r];
                for (std::size_t f = 0; f < n_fns; ++f) {
                    const FunctionType fn = kSweepFns[f];
                    BatchStats bs;
                    const double factor = probe.factor();
                    const double t0 = nowUs();
                    const SubmitStatus s = st.cpu.submit(
                        fn, in.reqs.data(), kBatch, out.data(), &bs);
                    const double t1 = nowUs();
                    ++res.attempted;
                    if (spans) {
                        const auto lane = static_cast<std::int16_t>(r);
                        obs::TraceRing &ring = trace->lane(lane);
                        ring.record(obs::EventKind::ExecBegin, t0, -1, lane,
                                    fn, kBatch);
                        ring.record(obs::EventKind::ExecEnd, t1, -1, lane,
                                    fn, static_cast<std::uint32_t>(s),
                                    bs.total_us);
                    }
                    if (traced) {
                        submit_us += t1 - t0;
                        stats_us += bs.total_us;
                    }
                    auto where = [&] {
                        return std::string(robots[r].name) + "/" + fnKey(fn);
                    };
                    if (s != SubmitStatus::Ok) {
                        ++res.failed;
                        res.fail(where() + ": CPU submit failed");
                    }
                    if (pass < 0) {
                        checkCell(st, in, fn, where(), out, res);
                    } else if (traced) {
                        traced_us.add((t1 - t0) * factor);
                    } else {
                        Cell &cell = cells[r * n_fns + f];
                        cell.us.add((t1 - t0) * factor);
                        cell.wall_us += (t1 - t0) * factor;
                        cell.measured_us.add(t1 - t0);
                        factors.add(factor);
                    }
                }
            }
        }
        if (traced)
            sweep_wall_us += nowUs() - w0;
        if (spans && !obs::writeChromeTrace(*trace, opts.trace_out))
            res.warnings.push_back("could not write " + opts.trace_out);
    }

    if (!opts.trace) {
        // Per cell its pooled p50, p99 and rate; the metric is their
        // geometric mean over the 18 cells.
        std::vector<double> p50s, p99s, rates, measured_p50s, measured_p99s;
        std::size_t batches = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            p50s.push_back(cells[i].us.median());
            p99s.push_back(cells[i].us.pct(0.99));
            measured_p50s.push_back(cells[i].measured_us.median());
            measured_p99s.push_back(cells[i].measured_us.pct(0.99));
            rates.push_back(cells[i].us.size() * kBatch * 1e6 /
                            cells[i].wall_us);
            batches += cells[i].us.size();
            res.detail.push_back(
                {std::string("sweep.pts_per_s.") +
                     robots[i / n_fns].name + "." +
                     fnKey(kSweepFns[i % n_fns]),
                 "1/s", rates.back(), cells[i].us.size()});
        }
        reportEndToEnd(geomean(p50s), geomean(p99s), geomean(rates),
                       batches, setup_us, res);
        reportAsMeasured(geomean(measured_p50s), geomean(measured_p99s),
                         batches, factors, res);
        return res;
    }

    // Per-layer: no controller and no server on this path. The two
    // backend clocks are the sweep's own submit timing and BatchStats.
    Samples untraced_us;
    for (const Cell &c : cells)
        untraced_us.append(c.us);
    servingLayerMetrics(ServingSums{}, 0, res);
    res.metric("backend.service_frac", "frac", submit_us / sweep_wall_us,
               traced_us.size());
    res.metric("obs.clock_ratio", "ratio", submit_us / stats_us,
               traced_us.size());
    res.metric("obs.trace_overhead", "ratio",
               traced_us.median() / untraced_us.median(),
               traced_us.size() + untraced_us.size());
    probeLayers(robots, opts.seed, opts.quick, res.metrics, res.detail);
    return res;
}

} // namespace rbdbench
