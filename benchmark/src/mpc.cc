/**
 * @file
 * The closed-loop MPC workloads: mpc_arm, mpc_quadruped (one client on
 * the synchronous server) and serve_mixed (one deadline-tagged client
 * plus an open-loop bulk stream on the asynchronous 2-lane server).
 *
 * Each slice sets the stack up from scratch (model, backends, server,
 * priming solves — the set-up time), then runs a fixed number of
 * ticks per client against a plant stepped with algo::aba. Ticks run
 * in rounds; the server is drained at each round boundary, with every
 * client joined, so job records retire without racing a client's
 * post-wait reads. Before each round and before each set-up the host
 * probe is read, and the times that follow are scaled by its factor
 * (calib.h). A run pools the scaled tick latencies of all its untraced
 * slices; its tick rate is the median over their timed rounds.
 */

#include "bench.h"
#include "calib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <stop_token>
#include <thread>

#include "algorithms/aba.h"
#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/obs/export.h"
#include "runtime/obs/metrics.h"
#include "runtime/server.h"

namespace rbdbench {

namespace {

namespace rt = dadu::runtime;
namespace ctrl = dadu::ctrl;
using rt::obs::LatKind;

/** One closed-loop MPC workload: one client on the gait scenario. */
struct MpcSpec
{
    const char *name;
    RobotSpec robot;
    int ticks;     ///< ticks per slice
    bool async;    ///< async 2-lane server; else sync over one backend
    double slack;  ///< deadline slack of the client's jobs (0 = untagged)
    bool bulk;     ///< open-loop bulk ∆FD stream alongside the client
    double slice_s; ///< one slice's time on the sizing host
    /**
     * Largest tracking error of a loop that still follows its
     * reference. iiwa: about twice the gait amplitude (0.12). HyQ: the
     * floating-base bound of test_ctrl — its base drifts slowly under
     * one iteration per tick (about 0.6 after 160 ticks, 6.6 after
     * 1000), which is why its slices are short.
     */
    double max_err;
};

/*
 * serve_mixed has one client. With two, the process kept 1.7 of the 4
 * cores busy (one client: 1.15), and while the host was slowest its
 * runs fell into backlogs (tick p99 19 and 24 ms in 2 of 10 runs).
 */
const MpcSpec kSpecs[] = {
    {"mpc_arm", {"iiwa", dadu::model::makeIiwa}, 2000, false, 0.0, false,
     1.3, 0.25},
    {"mpc_quadruped", {"hyq", dadu::model::makeHyq}, 160, false, 0.0, false,
     0.5, 1.0},
    {"serve_mixed", {"iiwa", dadu::model::makeIiwa}, 500, true, 4.0, true,
     0.7, 0.25},
};

constexpr int kGaitScenario = 1; ///< ctrl::makeScenario index
constexpr int kKnots = 20;
constexpr double kDt = 0.01;
/**
 * Engine threads of every backend (the sync server's one, each async
 * lane). One: a tick's jobs are single points and 20-point batches,
 * and a second thread would put a wake-up of the pool's worker, on
 * another core with its own share of host interference, inside every
 * job.
 */
constexpr int kEngineThreads = 1;
/** Amplitude of the seeded offset of the client's initial state. */
constexpr double kStatePerturb = 0.02;
/**
 * 64 points every 3200 µs: 20k ∆FD points/s offered. At 40k, while the
 * host was slow the lanes neared saturation and runs fell into
 * backlogs (tick p99 up to 43 ms, generator up to 26 ms late).
 */
constexpr double kBulkPeriodUs = 3200.0;
constexpr int kBulkPoints = 64;
constexpr int kBulkSets = 8;   ///< distinct seeded bulk request sets
constexpr int kBulkSlots = 64; ///< bulk jobs outstanding at most
/** Lateness p99 of the bulk generator above which a run is invalid. */
constexpr double kMaxLatenessUs = 1000.0;

/** Per-run inputs, generated from the seed (not part of set-up). */
struct Inputs
{
    VectorX dq0, dqd0; ///< the client's initial-state offset
    std::vector<std::vector<DynamicsRequest>> bulk;
    std::vector<std::vector<DynamicsResult>> bulk_ref; ///< scalar ∆FD
};

Inputs
makeInputs(const MpcSpec &spec, const RobotModel &robot, std::uint64_t seed)
{
    Inputs in;
    std::mt19937 rng = makeRng(seed, 1);
    std::uniform_real_distribution<double> off(-kStatePerturb,
                                               kStatePerturb);
    in.dq0.resize(robot.nv());
    in.dqd0.resize(robot.nv());
    for (int j = 0; j < robot.nv(); ++j) {
        in.dq0[j] = off(rng);
        in.dqd0[j] = off(rng);
    }
    if (spec.bulk) {
        std::mt19937 brng = makeRng(seed, 2);
        dadu::algo::DynamicsWorkspace ws(robot);
        dadu::algo::FdDerivatives fd;
        for (int s = 0; s < kBulkSets; ++s) {
            in.bulk.push_back(seededRequests(robot, kBulkPoints, brng));
            in.bulk_ref.emplace_back(kBulkPoints);
            for (int i = 0; i < kBulkPoints; ++i)
                scalarExecute(robot, ws, fd, FunctionType::DeltaFD,
                              in.bulk.back()[i], in.bulk_ref.back()[i]);
        }
    }
    return in;
}

/** The plant a client controls: ABA + manifold Euler. */
struct Plant
{
    explicit Plant(const RobotModel &robot) : ws(robot) {}

    void advance(const RobotModel &robot, const VectorX &u)
    {
        dadu::algo::aba(robot, ws, q, qd, u, qdd);
        step.resize(qd.size());
        for (std::size_t j = 0; j < qd.size(); ++j)
            step[j] = kDt * qd[j];
        robot.integrateInto(q, step, q_next);
        q = q_next;
        for (std::size_t j = 0; j < qd.size(); ++j)
            qd[j] += kDt * qdd[j];
    }

    dadu::algo::DynamicsWorkspace ws;
    VectorX q, qd, qdd, step, q_next;
};

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

void
sleepUntilUs(double t_us)
{
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(std::llround(t_us * 1000.0))));
}

/**
 * Open-loop bulk client: one 64-point ∆FD job per period, sent when
 * due whether or not earlier ones finished. Latency runs from the due
 * time to completion, so a stall also charges the jobs queued behind
 * it; lateness is how late the generator itself submitted.
 */
class BulkStream
{
  public:
    BulkStream(rt::DynamicsServer &server, const Inputs &in)
        : server_(server), in_(in), slots_(kBulkSlots)
    {
        for (Slot &s : slots_)
            s.res.resize(kBulkPoints);
    }

    /** Send until @p stop; then wait for every outstanding job. */
    void round(double t0, const std::stop_token &stop, bool timed)
    {
        for (std::uint64_t j = 0;; ++j) {
            const double due = t0 + static_cast<double>(j) * kBulkPeriodUs;
            sleepUntilUs(due);
            if (stop.stop_requested())
                break;
            Slot &s = slots_[next_slot_];
            next_slot_ = (next_slot_ + 1) % kBulkSlots;
            if (s.job >= 0)
                finish(s);
            s.set = next_set_;
            next_set_ = (next_set_ + 1) % kBulkSets;
            const double t_sub = nowUs();
            s.job = server_.submit(FunctionType::DeltaFD,
                                   in_.bulk[s.set].data(), kBulkPoints,
                                   s.res.data(),
                                   rt::DynamicsServer::kLeastLoaded);
            s.due = due;
            s.timed = timed;
            if (timed)
                lateness_us.add(t_sub - due);
        }
        for (Slot &s : slots_)
            if (s.job >= 0)
                finish(s);
    }

    Samples latency_us, lateness_us;
    std::uint64_t jobs = 0, failed = 0, mismatched = 0;

  private:
    struct Slot
    {
        int job = -1;
        int set = 0;
        double due = 0.0;
        bool timed = false;
        std::vector<DynamicsResult> res;
    };

    void finish(Slot &s)
    {
        server_.wait(s.job);
        ++jobs;
        if (server_.jobOutcome(s.job) != rt::JobOutcome::Completed) {
            ++failed;
        } else {
            if (s.timed)
                latency_us.add(server_.jobDoneAtUs(s.job) - s.due);
            for (int i = 0; i < kBulkPoints; ++i)
                if (!sameBits(FunctionType::DeltaFD, s.res[i],
                              in_.bulk_ref[s.set][i])) {
                    ++mismatched;
                    break;
                }
        }
        s.job = -1;
    }

    rt::DynamicsServer &server_;
    const Inputs &in_;
    std::vector<Slot> slots_;
    int next_slot_ = 0;
    int next_set_ = 0;
};

/** What a run accumulates over its slices. */
struct RunAcc
{
    HostProbe probe;    ///< read by the ticking thread before timed work
    Samples setup_us;   ///< scaled by the host probe
    Samples tick_us[2]; ///< pooled scaled tick latency, untraced and traced
    Samples raw_tick_us; ///< untraced, as measured
    Samples factors;     ///< host-probe factor of every untraced round
    /** Ticks per scaled wall second of every untraced timed round. */
    Samples round_rate;
    Samples bulk_latency_us, lateness_us;
    std::size_t tagged = 0, met = 0, degraded = 0;
    std::size_t jobs = 0, ticks = 0; ///< client jobs and ticks, all slices
    ServingSums layers;
    bool have_err = false;
    double tracking_err = 0.0;
    bool trace_written = false;
};

void
runSlice(const MpcSpec &spec, const Inputs &in, bool traced, int ticks,
         const RunOptions &opts, RunResult &res, RunAcc &acc)
{
    // ---- set-up: model, backends, server, session, priming solve
    const double setup_factor = acc.probe.factor();
    const double t_setup = nowUs();
    const RobotModel robot = spec.robot.make();
    rt::CpuBatchedBackend cpu(robot, kEngineThreads);
    std::vector<std::unique_ptr<rt::DynamicsBackend>> clones;
    std::vector<rt::DynamicsBackend *> lanes{&cpu};
    if (spec.async) {
        clones.push_back(cpu.clone());
        lanes.push_back(clones.back().get());
    }
    std::vector<std::unique_ptr<TimedBackend>> timed;
    rt::DynamicsServer server;
    for (rt::DynamicsBackend *lane : lanes) {
        if (traced) {
            timed.push_back(std::make_unique<TimedBackend>(*lane));
            server.addBackend(*timed.back());
        } else {
            server.addBackend(*lane);
        }
    }
    rt::sched::SchedConfig cfg;
    if (spec.async) {
        cfg.kind = rt::sched::PolicyKind::Edf;
        cfg.coalesce = true;
        cfg.steal = true;
    }
    cfg.obs.metrics = traced;
    cfg.obs.trace = traced; // drop-oldest rings; the sums cover every job
    server.setPolicy(cfg);

    ctrl::Scenario sc = ctrl::makeScenario(robot, kGaitScenario, kKnots, kDt);
    sc.q0 = robot.integrate(sc.q0, in.dq0);
    sc.qd0 += in.dqd0;
    Plant plant(robot);
    plant.q = sc.q0;
    plant.qd = sc.qd0;
    ctrl::MpcSession::Config mc;
    mc.deadline_slack = spec.slack;
    ctrl::MpcSession session(robot, std::move(sc), ctrl::IlqrOptions{}, mc);
    session.attachTrace(server, "mpc"); // no-op untraced
    if (spec.async)
        server.start();
    if (!session.start(server).converged)
        res.fail(std::string(spec.name) +
                 ": the priming solve did not converge");
    server.drain(); // the tick stream's accounting starts here
    if (!traced)
        acc.setup_us.add((nowUs() - t_setup) * setup_factor);

    const ctrl::MpcSession::Stats base = session.stats();
    const int lane_count = static_cast<int>(lanes.size());
    rt::obs::MetricsRegistry reg0(lane_count), reg1(lane_count);
    if (traced)
        server.metricsSnapshot(reg0);
    for (auto &t : timed)
        t->reset();
    std::vector<double> lat, raw; ///< timed ticks, scaled and measured
    double tick_sum = 0.0;        ///< every tick

    // ---- the tick stream, in rounds; the first ~2% of ticks warm up
    const int round_ticks = spec.async ? 32 : 8;
    const int warm_rounds = std::max(
        1, static_cast<int>(std::lround(0.02 * ticks / round_ticks)));
    BulkStream bulk(server, in);
    ServingSums &L = acc.layers;
    std::size_t slice_tasks = 0;
    std::vector<double> rates; ///< timed rounds
    for (int done = 0, round = 0; done < ticks;
         done += round_ticks, ++round) {
        const int n = std::min(round_ticks, ticks - done);
        const bool timed_round = round >= warm_rounds;
        const double f = acc.probe.factor();
        const double r0 = nowUs();
        {
            // The generator runs on its own thread while this one ticks;
            // the jthread joins on every path, its stop requested once
            // the round's ticks are done.
            std::jthread gen;
            if (spec.bulk)
                gen = std::jthread([&](std::stop_token stop) {
                    bulk.round(r0, stop, timed_round);
                });
            for (int t = 0; t < n; ++t) {
                const double a = nowUs();
                const VectorX &u = session.tick(server, plant.q, plant.qd);
                const double b = nowUs();
                tick_sum += b - a;
                if (timed_round) {
                    lat.push_back((b - a) * f);
                    raw.push_back(b - a);
                }
                plant.advance(robot, u);
            }
            gen.request_stop();
        }
        const double r1 = nowUs();
        if (timed_round) {
            rates.push_back(ratio(n * 1e6, (r1 - r0) * f));
            if (!traced)
                acc.factors.add(f);
        }
        rt::ServerStats st;
        rt::sched::SchedStats ss;
        server.drain(&st, &ss);
        if (server.pending() != 0)
            res.fail(std::string(spec.name) +
                     ": jobs still pending after a round");
        slice_tasks += st.tasks;
        if (traced) {
            L.wall_us += r1 - r0;
            L.batches += st.batches;
            L.tasks += st.tasks;
            L.server_busy_us += st.busy_us;
            L.coalesced_batches += ss.coalesced_batches;
            L.coalesced_items += ss.coalesced_items;
            L.steals += ss.steals;
        }
    }
    if (traced)
        server.metricsSnapshot(reg1);
    if (spec.async)
        server.stop();

    // ---- outputs and checks
    VectorX e;
    robot.differenceInto(session.solver().problem().q_ref[0], plant.q, e);
    const double err = e.maxAbs();
    const ctrl::MpcSession::Stats &s = session.stats();
    const std::size_t degraded = s.degraded_ticks - base.degraded_ticks;
    const std::size_t shed = (s.rejected_jobs - base.rejected_jobs) +
                             (s.failed_jobs - base.failed_jobs);
    const std::size_t slice_ticks = s.ticks - base.ticks;
    const std::size_t slice_jobs = s.jobs - base.jobs;
    acc.tagged += s.tagged_jobs - base.tagged_jobs;
    acc.met += s.deadline_met - base.deadline_met;
    if (traced) {
        L.tagged += (s.tagged_jobs - base.tagged_jobs) + shed;
        L.missed += (s.deadline_misses - base.deadline_misses) + shed;
    }
    res.attempted += slice_ticks + bulk.jobs;
    res.failed += degraded + bulk.failed;
    acc.degraded += degraded;
    acc.jobs += slice_jobs;
    acc.ticks += slice_ticks;
    if (!(err < spec.max_err))
        res.fail(std::string(spec.name) + ": tracking error " +
                 std::to_string(err) + " is not below " +
                 std::to_string(spec.max_err) +
                 ": the loop left its reference");
    if (!acc.have_err) {
        acc.have_err = true;
        acc.tracking_err = err;
    } else if (std::memcmp(&err, &acc.tracking_err, sizeof err) != 0) {
        res.fail(std::string(spec.name) +
                 ": tracking_err differs between slices of one run");
    }
    if (degraded)
        res.fail(std::string(spec.name) + ": " + std::to_string(degraded) +
                 " degraded ticks");
    if (shed)
        res.fail(std::string(spec.name) + ": " + std::to_string(shed) +
                 " client jobs rejected or failed");
    if (bulk.failed || bulk.mismatched)
        res.fail(std::string(spec.name) + ": bulk jobs failed (" +
                 std::to_string(bulk.failed) + ") or differ from the " +
                 "scalar kernels (" + std::to_string(bulk.mismatched) + ")");
    for (double us : lat)
        acc.tick_us[traced ? 1 : 0].add(us);
    if (!traced) {
        for (double us : raw)
            acc.raw_tick_us.add(us);
        for (double r : rates)
            acc.round_rate.add(r);
        acc.bulk_latency_us.append(bulk.latency_us);
        acc.lateness_us.append(bulk.lateness_us);
        return;
    }

    // ---- traced sums
    const bool mpc_tagged = spec.slack > 0.0;
    auto delta = [&](bool tagged, LatKind kind) {
        return reg1.mergedHistogram(tagged, kind).sumUs() -
               reg0.mergedHistogram(tagged, kind).sumUs();
    };
    L.tick_us += tick_sum;
    L.ticks += slice_ticks;
    L.session_jobs += slice_jobs;
    L.mpc_e2e += delta(mpc_tagged, LatKind::EndToEnd);
    L.mpc_wait += delta(mpc_tagged, LatKind::QueueWait);
    L.mpc_service += delta(mpc_tagged, LatKind::Service);
    if (spec.bulk) {
        L.bulk_e2e += delta(false, LatKind::EndToEnd);
        L.bulk_wait += delta(false, LatKind::QueueWait);
    }
    // Every bulk job ran its 64 points in the rounds; the client's
    // tasks are the rest.
    L.mpc_tasks += slice_tasks - bulk.jobs * kBulkPoints;
    for (std::size_t l = 0; l < timed.size(); ++l) {
        L.timed_submit_us += timed[l]->busyUs();
        L.lane_busy_us[l] += timed[l]->busyUs();
    }
    if (!opts.trace_out.empty() && !acc.trace_written) {
        acc.trace_written = true;
        if (!rt::obs::writeChromeTrace(*server.traceBuffer(),
                                       opts.trace_out))
            res.warnings.push_back("could not write " + opts.trace_out);
    }
}

} // namespace

void
servingLayerMetrics(const ServingSums &L, std::size_t degraded,
                    RunResult &res)
{
    auto count = [](std::size_t n) { return static_cast<double>(n); };
    const double tick = L.tick_us;
    res.metric("ctrl.self_frac", "frac", ratio(tick - L.mpc_e2e, tick),
               L.ticks);
    res.metric("ctrl.jobs_per_tick", "count",
               ratio(count(L.session_jobs), count(L.ticks)), L.ticks);
    res.metric("ctrl.tasks_per_tick", "count",
               ratio(count(L.mpc_tasks), count(L.ticks)), L.ticks);
    res.metric("ctrl.degraded_ticks", "count", count(degraded), L.ticks);
    res.metric("server.wait_frac", "frac", ratio(L.mpc_wait, tick),
               L.session_jobs);
    res.metric("server.self_frac", "frac",
               ratio(L.mpc_e2e - L.mpc_wait - L.mpc_service, tick),
               L.session_jobs);
    res.metric("server.tasks_per_batch", "count",
               ratio(count(L.tasks), count(L.batches)), L.batches);
    res.metric("server.coalesced_frac", "frac",
               ratio(count(L.coalesced_batches), count(L.batches)),
               L.batches);
    res.metric("server.steal_frac", "frac",
               ratio(count(L.steals), count(L.batches + L.coalesced_items)),
               L.batches);
    res.metric("server.lane_busy_frac.0", "frac",
               ratio(L.lane_busy_us[0], L.wall_us), L.batches);
    res.metric("server.lane_busy_frac.1", "frac",
               ratio(L.lane_busy_us[1], L.wall_us), L.batches);
    res.metric("server.deadline_miss_frac", "frac",
               ratio(count(L.missed), count(L.tagged)), L.tagged);
    res.metric("server.bulk_wait_frac", "frac",
               ratio(L.bulk_wait, L.bulk_e2e), L.batches);
}

bool
isMpcWorkload(const std::string &name)
{
    for (const MpcSpec &s : kSpecs)
        if (name == s.name)
            return true;
    return false;
}

RunResult
runMpcWorkload(const std::string &name, const RunOptions &opts)
{
    const MpcSpec *spec = nullptr;
    for (const MpcSpec &s : kSpecs)
        if (name == s.name)
            spec = &s;
    RunResult res;
    const Inputs in = makeInputs(*spec, spec->robot.make(), opts.seed);
    const int ticks = opts.quick ? spec->ticks / 10 : spec->ticks;

    RunAcc acc;
    const int slices = sliceCount(opts, spec->slice_s);
    for (int i = 0; i < slices; ++i)
        runSlice(*spec, in, tracedSlice(opts, i), ticks, opts, res, acc);
    res.outputs.emplace_back("tracking_err", acc.tracking_err);
    res.outputs.emplace_back("jobs_per_tick",
                             static_cast<double>(acc.jobs) / acc.ticks);

    if (spec->bulk) {
        const double lateness_p99 = acc.lateness_us.pct(0.99);
        if (lateness_p99 > kMaxLatenessUs) {
            res.valid = false;
            res.warnings.push_back(
                "bulk generator lateness p99 " +
                std::to_string(lateness_p99) + " us exceeds 1 ms");
        }
        const double hit =
            acc.tagged ? static_cast<double>(acc.met) / acc.tagged : 0.0;
        res.detail.push_back(
            {"serve.deadline_hit_rate", "frac", hit, acc.tagged});
        res.detail.push_back({"serve.bulk_p50_us", "us",
                              acc.bulk_latency_us.median(),
                              acc.bulk_latency_us.size()});
        res.detail.push_back({"serve.bulk_p99_us", "us",
                              acc.bulk_latency_us.pct(0.99),
                              acc.bulk_latency_us.size()});
        res.detail.push_back({"serve.lateness_p99_us", "us", lateness_p99,
                              acc.lateness_us.size()});
    }

    if (!opts.trace) {
        const Samples &t = acc.tick_us[0];
        reportEndToEnd(t.median(), t.pct(0.99), acc.round_rate.median(),
                       t.size(), acc.setup_us, res);
        reportAsMeasured(acc.raw_tick_us.median(),
                         acc.raw_tick_us.pct(0.99), acc.raw_tick_us.size(),
                         acc.factors, res);
        return res;
    }

    const ServingSums &L = acc.layers;
    servingLayerMetrics(L, acc.degraded, res);
    res.metric("backend.service_frac", "frac",
               ratio(L.mpc_service, L.tick_us), L.session_jobs);
    res.metric("obs.clock_ratio", "ratio",
               ratio(L.timed_submit_us, L.server_busy_us), L.batches);
    res.metric("obs.trace_overhead", "ratio",
               ratio(acc.tick_us[1].median(), acc.tick_us[0].median()),
               acc.tick_us[1].size());
    probeLayers({spec->robot}, opts.seed, opts.quick,
                res.metrics, res.detail);
    return res;
}

} // namespace rbdbench
