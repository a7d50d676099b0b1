/**
 * @file
 * Observability layer: trace rings, latency histograms, metrics
 * registry, exporters, and the server/client instrumentation.
 *
 *  - TraceRing drop-oldest wraparound with exact dropped accounting;
 *  - LatencyHistogram percentile extraction within one bucket of the
 *    exact order statistic, with exact count/sum/min/max;
 *  - per-job lifecycle event ordering through a live server
 *    (submit -> admitted -> enqueued -> picked -> exec -> completed);
 *  - allocation-free recording on every steady path (counted global
 *    allocator), and a fully disabled server exposing no buffers;
 *  - concurrent recording from many claimed rings (the TSan suite
 *    runs this test too);
 *  - the acceptance scenario: 4 closed-loop MPC clients over 2
 *    fault-injecting lanes under QoS + bulk overload, with the
 *    deadline-missed job's wait segment, coalesce/steal/retry
 *    markers, and a structurally valid Chrome trace export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ctrl/mpc_session.h"
#include "ctrl/scenarios.h"
#include "model/builders.h"
#include "perf/timing.h"
#include "runtime/backends.h"
#include "runtime/fault.h"
#include "runtime/obs/aggregate.h"
#include "runtime/obs/endpoint.h"
#include "runtime/obs/export.h"
#include "runtime/obs/metrics.h"
#include "runtime/obs/stream.h"
#include "runtime/obs/trace.h"
#include "runtime/server.h"
#include "test_support.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

// ---------------------------------------------------------------------
// Counted global allocator (see tests/test_batched.cc): off by
// default; the zero-allocation test switches it on around the
// measured region only.
// ---------------------------------------------------------------------

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace dadu;
using dadu::model::RobotModel;
using dadu::runtime::DynamicsResult;
using dadu::runtime::DynamicsServer;
using dadu::runtime::FaultInjectingBackend;
using dadu::runtime::FaultPlan;
using dadu::runtime::FunctionType;
using dadu::runtime::obs::Counter;
using dadu::runtime::obs::EventKind;
using dadu::runtime::obs::Gauge;
using dadu::runtime::obs::LatencyHistogram;
using dadu::runtime::obs::LatKind;
using dadu::runtime::obs::MetricsRegistry;
using dadu::runtime::obs::AggregatorConfig;
using dadu::runtime::obs::ObsAggregator;
using dadu::runtime::obs::ObsSample;
using dadu::runtime::obs::StatsEndpoint;
using dadu::runtime::obs::StatsSnapshot;
using dadu::runtime::obs::TraceBuffer;
using dadu::runtime::obs::TraceEvent;
using dadu::runtime::obs::TraceReader;
using dadu::runtime::obs::TraceRing;
using dadu::runtime::obs::TraceStreamer;
using dadu::runtime::sched::PolicyKind;
using dadu::runtime::sched::SchedConfig;
using dadu::tests::randomRequests;

// ---------------------------------------------------------------------
// TraceRing wraparound
// ---------------------------------------------------------------------

TEST(ObsTrace, RingWrapsDropOldestWithExactDroppedCount)
{
    TraceRing ring(8, "t");
    EXPECT_EQ(ring.capacity(), 8u);
    for (int i = 0; i < 21; ++i)
        ring.record(EventKind::Submit, static_cast<double>(i),
                    /*job=*/i, /*lane=*/-1, FunctionType::FD,
                    static_cast<std::uint32_t>(i));
    EXPECT_EQ(ring.recorded(), 21u);
    EXPECT_EQ(ring.retained(), 8u);
    EXPECT_EQ(ring.dropped(), 13u);
    // The survivors are exactly the 8 newest, oldest first: 13..20.
    for (std::size_t i = 0; i < ring.retained(); ++i) {
        const TraceEvent &ev = ring.at(i);
        EXPECT_EQ(ev.job, static_cast<std::int32_t>(13 + i));
        EXPECT_DOUBLE_EQ(ev.t_us, static_cast<double>(13 + i));
    }
}

TEST(ObsTrace, BufferLayoutAndClaiming)
{
    TraceBuffer buf(2, 16);
    EXPECT_EQ(buf.lanes(), 2);
    EXPECT_EQ(buf.ringCount(), 3u); // lane0, lane1, control
    EXPECT_STREQ(buf.lane(0).name(), "lane0");
    EXPECT_STREQ(buf.lane(1).name(), "lane1");
    EXPECT_STREQ(buf.control().name(), "control");
    TraceRing *mine = buf.claimRing("client");
    ASSERT_NE(mine, nullptr);
    EXPECT_STREQ(mine->name(), "client");
    EXPECT_EQ(buf.ringCount(), 4u);
    // Claiming more rings must not move already-claimed ones.
    for (int i = 0; i < 32; ++i)
        buf.claimRing("more");
    mine->record(EventKind::TickBegin, 1.0, -1, -1, FunctionType::FD);
    EXPECT_EQ(mine->recorded(), 1u);
    EXPECT_EQ(buf.ringCount(), 36u);
    EXPECT_EQ(buf.totalDropped(), 0u);
}

// ---------------------------------------------------------------------
// Histogram percentiles vs exact order statistics
// ---------------------------------------------------------------------

TEST(ObsMetrics, PercentilesWithinOneBucketOfExact)
{
    // Log-uniform samples over [1µs, 500ms] — five decades, the
    // realistic latency range. The histogram's percentile must land
    // within one bucket (≤4.4% relative) of the exact order
    // statistic, and the exact scalars must be exact.
    std::mt19937 rng(17);
    std::uniform_real_distribution<double> u(std::log(1.0),
                                             std::log(5e5));
    LatencyHistogram h;
    std::vector<double> samples;
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i) {
        const double us = std::exp(u(rng));
        samples.push_back(us);
        sum += us;
        h.record(us);
    }
    std::sort(samples.begin(), samples.end());

    EXPECT_EQ(h.count(), 5000u);
    EXPECT_DOUBLE_EQ(h.sumUs(), sum);
    EXPECT_DOUBLE_EQ(h.minUs(), samples.front());
    EXPECT_DOUBLE_EQ(h.maxUs(), samples.back());

    for (const double p : {0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(std::min(
            std::max(std::ceil(p * 5000.0), 1.0), 5000.0));
        const double exact = samples[rank - 1];
        const double est = h.percentileUs(p);
        const int bi_exact = LatencyHistogram::bucketIndex(exact);
        const int bi_est = LatencyHistogram::bucketIndex(est);
        EXPECT_LE(std::abs(bi_exact - bi_est), 1)
            << "p" << p << ": est " << est << " vs exact " << exact;
    }

    // merge() preserves the distribution: a histogram merged into an
    // empty one reports identical percentiles.
    LatencyHistogram merged;
    merged.merge(h);
    EXPECT_EQ(merged.count(), h.count());
    EXPECT_DOUBLE_EQ(merged.percentileUs(0.99), h.percentileUs(0.99));

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentileUs(0.5), 0.0);
}

TEST(ObsMetrics, BucketEdgesPartitionTheAxis)
{
    // Every bucket's [low, high) must tile the axis and agree with
    // bucketIndex on both edges.
    for (int i = 0; i < LatencyHistogram::kBuckets - 1; ++i) {
        const double hi = LatencyHistogram::bucketHighUs(i);
        EXPECT_DOUBLE_EQ(LatencyHistogram::bucketLowUs(i + 1), hi);
        EXPECT_EQ(LatencyHistogram::bucketIndex(hi), i + 1);
        if (i > 0)
            EXPECT_EQ(LatencyHistogram::bucketIndex(
                          LatencyHistogram::bucketLowUs(i)),
                      i);
    }
    // Underflow: negatives and NaN land in bucket 0, never UB.
    EXPECT_EQ(LatencyHistogram::bucketIndex(-3.0), 0);
    EXPECT_EQ(LatencyHistogram::bucketIndex(
                  std::numeric_limits<double>::quiet_NaN()),
              0);
    EXPECT_EQ(LatencyHistogram::bucketIndex(
                  std::numeric_limits<double>::infinity()),
              LatencyHistogram::kBuckets - 1);
}

// ---------------------------------------------------------------------
// Per-job lifecycle ordering through a live server
// ---------------------------------------------------------------------

TEST(ObsServer, JobLifecycleEventsAreOrdered)
{
    const RobotModel robot = model::makeSerialChain(3);
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend backend(accel);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    server.setPolicy(cfg);
    server.start();

    constexpr int kJobs = 5, kN = 4;
    const auto reqs = randomRequests(robot, kN, 31);
    std::vector<std::vector<DynamicsResult>> res(
        kJobs, std::vector<DynamicsResult>(kN));
    std::vector<int> ids(kJobs);
    for (int i = 0; i < kJobs; ++i) {
        ids[i] = server.submit(FunctionType::FD, reqs.data(), kN,
                               res[i].data(), 0);
        server.wait(ids[i]);
    }
    server.stop();

    const TraceBuffer *buf = server.traceBuffer();
    ASSERT_NE(buf, nullptr);
    const TraceRing &ctl = buf->control();
    const TraceRing &lane = buf->lane(0);

    for (int id : ids) {
        double t_submit = -1.0, t_enq = -1.0, t_done = -1.0, e2e = -1.0;
        bool admitted = false;
        for (std::size_t i = 0; i < ctl.retained(); ++i) {
            const TraceEvent &ev = ctl.at(i);
            if (ev.job != id)
                continue;
            switch (ev.kind) {
              case EventKind::Submit:
                t_submit = ev.t_us;
                EXPECT_EQ(ev.a, static_cast<std::uint32_t>(kN));
                break;
              case EventKind::Admitted:
                admitted = true;
                EXPECT_EQ(ev.a, 0u); // lane 0
                break;
              case EventKind::Enqueued:
                t_enq = ev.t_us;
                EXPECT_EQ(ev.lane, 0);
                break;
              case EventKind::Completed:
                t_done = ev.t_us;
                e2e = ev.b;
                EXPECT_EQ(ev.a, 0u); // untagged: never "missed"
                break;
              default:
                break;
            }
        }
        ASSERT_GE(t_submit, 0.0) << "job " << id;
        EXPECT_TRUE(admitted);
        ASSERT_GE(t_enq, t_submit);
        ASSERT_GE(t_done, t_enq);
        EXPECT_NEAR(e2e, t_done - t_submit, 1e-6);

        // The lane ring brackets the execution of this job: its
        // Picked precedes an ExecBegin/ExecEnd pair, all inside the
        // submit→completed window.
        double t_pick = -1.0, t_exec0 = -1.0, t_exec1 = -1.0;
        for (std::size_t i = 0; i < lane.retained(); ++i) {
            const TraceEvent &ev = lane.at(i);
            if (ev.job != id)
                continue;
            if (ev.kind == EventKind::Picked && t_pick < 0.0)
                t_pick = ev.t_us;
            if (ev.kind == EventKind::ExecBegin && t_exec0 < 0.0)
                t_exec0 = ev.t_us;
            if (ev.kind == EventKind::ExecEnd)
                t_exec1 = ev.t_us;
        }
        ASSERT_GE(t_pick, 0.0) << "job " << id;
        EXPECT_GE(t_pick, t_submit);
        EXPECT_GE(t_exec0, t_pick);
        EXPECT_GE(t_exec1, t_exec0);
        EXPECT_GE(t_done, t_exec1);
    }

    // The registry agrees with the trace.
    const MetricsRegistry *m = server.metricsRegistry();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->counter(Counter::JobsSubmitted),
              static_cast<std::uint64_t>(kJobs));
    EXPECT_EQ(m->counter(Counter::JobsCompleted),
              static_cast<std::uint64_t>(kJobs));
    const LatencyHistogram &e2e_hist =
        m->histogram(FunctionType::FD, false, LatKind::EndToEnd);
    EXPECT_EQ(e2e_hist.count(), static_cast<std::uint64_t>(kJobs));

    // A sharded job over two idle lanes records the same lifecycle:
    // one Submit, one Admitted naming the FIRST shard's lane, one
    // Enqueued per shard on that shard's lane, one Completed.
    runtime::AnalyticBackend lane_a(accel), lane_b(accel);
    DynamicsServer two(lane_a);
    two.addBackend(lane_b);
    two.setPolicy(cfg);
    constexpr int kShardN = 8;
    const auto sreqs = randomRequests(robot, kShardN, 37);
    std::vector<DynamicsResult> sres(kShardN);
    const int sid = two.submitSharded(FunctionType::FD, sreqs.data(),
                                      kShardN, sres.data());
    two.drain();
    int n_submit = 0, n_admitted = 0, n_completed = 0;
    std::uint32_t admitted_lane = 99;
    std::vector<int> enq_lane;
    std::uint32_t enq_tasks = 0;
    const TraceRing &sctl = two.traceBuffer()->control();
    for (std::size_t i = 0; i < sctl.retained(); ++i) {
        const TraceEvent &ev = sctl.at(i);
        if (ev.job != sid)
            continue;
        switch (ev.kind) {
          case EventKind::Submit: ++n_submit; break;
          case EventKind::Admitted:
            ++n_admitted;
            admitted_lane = ev.a;
            break;
          case EventKind::Enqueued:
            enq_lane.push_back(ev.lane);
            enq_tasks += ev.a;
            break;
          case EventKind::Completed: ++n_completed; break;
          default: break;
        }
    }
    EXPECT_EQ(n_submit, 1);
    EXPECT_EQ(n_admitted, 1);
    EXPECT_EQ(n_completed, 1);
    ASSERT_EQ(enq_lane.size(), 2u);
    EXPECT_EQ(enq_lane[0], 0); // idle lanes: shards in lane order
    EXPECT_EQ(enq_lane[1], 1);
    EXPECT_EQ(admitted_lane, 0u);
    EXPECT_EQ(enq_tasks, static_cast<std::uint32_t>(kShardN));
    // Each shard was picked on the lane it was enqueued on.
    for (int l : enq_lane) {
        const TraceRing &ring = two.traceBuffer()->lane(l);
        bool picked = false;
        for (std::size_t i = 0; i < ring.retained(); ++i)
            picked = picked || (ring.at(i).job == sid &&
                                ring.at(i).kind == EventKind::Picked);
        EXPECT_TRUE(picked) << "lane " << l;
    }
}

// ---------------------------------------------------------------------
// Allocation-free recording
// ---------------------------------------------------------------------

TEST(ObsTrace, SteadyRecordingPathsNeverAllocate)
{
    // Construct everything (rings, registry, claimed client ring)
    // BEFORE arming the counter: construction allocates by design,
    // the steady recording paths must not.
    TraceBuffer buf(2, 1024);
    TraceRing *client = buf.claimRing("client");
    MetricsRegistry reg(2);
    TraceEvent ev;
    ev.kind = EventKind::ExecBegin;
    ev.fn = FunctionType::DeltaFD;

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 10000; ++i) {
        ev.t_us = static_cast<double>(i);
        ev.job = i;
        buf.lane(i & 1).record(ev);
        buf.control().record(EventKind::Submit, ev.t_us, i, -1,
                             FunctionType::FD,
                             static_cast<std::uint32_t>(i), 8.0);
        client->record(EventKind::TickBegin, ev.t_us, -1, -1,
                       FunctionType::FD);
        reg.histogram(FunctionType::FD, (i & 1) != 0,
                      LatKind::EndToEnd)
            .record(1.0 + static_cast<double>(i));
        reg.add(Counter::JobsSubmitted);
        reg.set(Gauge::TaskUsEwma, 2.0);
        reg.ewma(Gauge::AdmissionErrRelEwma, 0.25);
        reg.setLaneLoad(i & 1, static_cast<double>(i));
    }
    // Reading is allocation-free too (rings wrapped 4x over by now).
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < buf.lane(0).retained(); ++i)
        sum += static_cast<std::uint64_t>(buf.lane(0).at(i).job);
    g_count_allocs.store(false);
    EXPECT_GT(sum, 0u);
    EXPECT_EQ(g_alloc_count.load(), 0);
    EXPECT_EQ(buf.lane(0).dropped() + buf.lane(0).retained(), 5000u);
}

// ---------------------------------------------------------------------
// Concurrent recording (exercised under TSan too)
// ---------------------------------------------------------------------

TEST(ObsTrace, ConcurrentClaimAndRecordIsRaceFree)
{
    TraceBuffer buf(2, 256);
    constexpr int kThreads = 6, kEvents = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&buf, t] {
            // claimRing is the only locked operation; each thread
            // then owns its ring exclusively (SPSC).
            TraceRing *ring = buf.claimRing("worker");
            for (int i = 0; i < kEvents; ++i)
                ring->record(EventKind::IterBegin,
                             static_cast<double>(i), t, -1,
                             FunctionType::FD,
                             static_cast<std::uint32_t>(i));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(buf.ringCount(), static_cast<std::size_t>(3 + kThreads));
    std::uint64_t recorded = 0;
    for (std::size_t i = 3; i < buf.ringCount(); ++i)
        recorded += buf.ring(i).recorded();
    EXPECT_EQ(recorded,
              static_cast<std::uint64_t>(kThreads) * kEvents);
    EXPECT_EQ(buf.totalDropped(),
              static_cast<std::uint64_t>(kThreads) * (kEvents - 256));
}

// ---------------------------------------------------------------------
// Disabled observability records (and allocates) nothing
// ---------------------------------------------------------------------

TEST(ObsServer, DisabledConfigExposesNoBuffers)
{
    const RobotModel robot = model::makeSerialChain(3);
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend backend(accel);
    DynamicsServer server(backend);
    SchedConfig cfg; // obs defaults: everything off
    server.setPolicy(cfg);
    server.start();
    EXPECT_EQ(server.traceBuffer(), nullptr);
    EXPECT_EQ(server.metricsRegistry(), nullptr);
    const auto reqs = randomRequests(robot, 4, 33);
    std::vector<DynamicsResult> res(4);
    server.wait(
        server.submit(FunctionType::FD, reqs.data(), 4, res.data()));
    server.stop();
    // Still nothing materialized by serving traffic.
    EXPECT_EQ(server.traceBuffer(), nullptr);
    EXPECT_EQ(server.metricsRegistry(), nullptr);
}

// ---------------------------------------------------------------------
// Acceptance: 4-client MPC overload — reconstruct a missed job and
// export a structurally valid Chrome trace
// ---------------------------------------------------------------------

/** Count non-overlapping occurrences of @p needle in @p s. */
std::size_t
countOccurrences(const std::string &s, const char *needle)
{
    std::size_t n = 0, pos = 0;
    const std::size_t len = std::strlen(needle);
    while ((pos = s.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += len;
    }
    return n;
}

/** The whole file at @p path ("" when it cannot be opened). */
std::string
readFile(const char *path)
{
    std::string s;
    std::FILE *f = std::fopen(path, "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f) {
        char c[4096];
        std::size_t got;
        while ((got = std::fread(c, 1, sizeof c, f)) > 0)
            s.append(c, got);
        std::fclose(f);
    }
    return s;
}

TEST(ObsServer, MpcOverloadTraceReconstructsMissedJob)
{
    const RobotModel robot = model::makeIiwa();

    // Two lanes, both behind deterministic fault injectors: every
    // 9th batch transient-fails, so the retry path records Retry and
    // Fault events at a guaranteed rate.
    runtime::CpuBatchedBackend cpu0(robot, 2);
    auto cpu1 = cpu0.clone();
    FaultPlan plan;
    plan.transient_every_n = 9;
    FaultInjectingBackend lane0(cpu0, plan);
    FaultPlan plan1 = plan;
    plan1.seed = 23;
    FaultInjectingBackend lane1(*cpu1, plan1);

    DynamicsServer server;
    server.addBackend(lane0);
    server.addBackend(lane1);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    cfg.coalesce = true;
    cfg.steal = true;
    cfg.max_retries = 3;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    cfg.obs.ring_capacity = 32768;
    server.setPolicy(cfg);

    TraceBuffer *buf = server.traceBuffer();
    ASSERT_NE(buf, nullptr);
    // The fault injectors record on their lane's ring: same producer
    // thread as the lane's serving events, so SPSC holds.
    lane0.setTraceRing(&buf->lane(0), 0);
    lane1.setTraceRing(&buf->lane(1), 1);
    server.start();

    // Four closed-loop MPC clients with a DELIBERATELY tight
    // deadline budget (30% of the predicted makespan): under bulk
    // overload many tagged jobs must miss.
    constexpr int kClients = 4, kTicks = 10;
    std::vector<std::unique_ptr<ctrl::MpcSession>> sessions;
    for (int c = 0; c < kClients; ++c) {
        ctrl::MpcSession::Config mcfg;
        mcfg.deadline_slack = 0.3;
        sessions.push_back(std::make_unique<ctrl::MpcSession>(
            robot, ctrl::makeScenario(robot, c, 16, 0.01, 0.5 * c),
            ctrl::IlqrOptions{}, mcfg));
        // Claim span rings AFTER the final server configuration.
        sessions.back()->attachTrace(server, "mpc");
    }
    for (auto &s : sessions)
        s->start(server);

    // Bulk saturation pinned to lane 0: keeps a deep flat same-fn
    // backlog there, so coalescing (adjacent small FD jobs merge)
    // and stealing (idle lane 1 pulls lane 0's flat work) both
    // trigger while the sessions tick.
    std::atomic<bool> ticking{true};
    std::thread bulk([&] {
        const auto reqs = randomRequests(robot, 8, 77);
        std::vector<std::vector<DynamicsResult>> res(
            16, std::vector<DynamicsResult>(8));
        std::vector<int> jobs;
        int i = 0;
        while (ticking.load(std::memory_order_acquire)) {
            if (jobs.size() >= 16) {
                server.wait(jobs.front());
                jobs.erase(jobs.begin());
            }
            jobs.push_back(server.submit(FunctionType::FD,
                                         reqs.data(), 8,
                                         res[i++ % 16].data(), 0));
        }
        for (int j : jobs)
            server.wait(j);
    });

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const ctrl::Scenario &sc = sessions[c]->scenario();
            for (int t = 0; t < kTicks; ++t)
                sessions[c]->tick(server, sc.q0, sc.qd0);
        });
    }
    for (auto &t : clients)
        t.join();
    ticking.store(false, std::memory_order_release);
    bulk.join();
    server.stop();

    // --- A deadline-missed tagged job is reconstructable. ---------
    // Take the NEWEST miss: even if the control ring wrapped during
    // the run, this job's Submit is recent enough to be retained.
    const TraceRing &ctl = buf->control();
    std::int32_t missed_job = -1;
    double t_missed_done = 0.0, missed_e2e = 0.0;
    for (std::size_t i = 0; i < ctl.retained(); ++i) {
        const TraceEvent &ev = ctl.at(i);
        if (ev.kind == EventKind::Completed && ev.a == 1) {
            missed_job = ev.job;
            t_missed_done = ev.t_us;
            missed_e2e = ev.b;
        }
    }
    ASSERT_GE(missed_job, 0)
        << "no tagged job missed its deadline under overload";
    double t_submit = -1.0;
    for (std::size_t i = 0; i < ctl.retained(); ++i) {
        const TraceEvent &ev = ctl.at(i);
        if (ev.job == missed_job && ev.kind == EventKind::Submit)
            t_submit = ev.t_us;
    }
    ASSERT_GE(t_submit, 0.0);
    // Wait + service segment: the Completed payload carries the
    // end-to-end latency, which must equal the reconstructed span.
    EXPECT_NEAR(missed_e2e, t_missed_done - t_submit, 1e-6);
    EXPECT_GT(missed_e2e, 0.0);

    // --- Coalesce, steal, retry, and fault markers all present. ---
    std::size_t n_coalesced = 0, n_stolen = 0, n_retry = 0,
                n_fault = 0, n_exec_pairs = 0;
    for (int l = 0; l < 2; ++l) {
        const TraceRing &ring = buf->lane(l);
        std::size_t begins = 0;
        for (std::size_t i = 0; i < ring.retained(); ++i) {
            switch (ring.at(i).kind) {
              case EventKind::CoalescedInto: ++n_coalesced; break;
              case EventKind::StolenFrom: ++n_stolen; break;
              case EventKind::Retry: ++n_retry; break;
              case EventKind::Fault: ++n_fault; break;
              case EventKind::ExecBegin: ++begins; break;
              case EventKind::ExecEnd:
                if (begins > 0) {
                    --begins;
                    ++n_exec_pairs;
                }
                break;
              default: break;
            }
        }
    }
    EXPECT_GT(n_coalesced, 0u) << "no coalesce markers";
    EXPECT_GT(n_stolen, 0u) << "no steal markers";
    EXPECT_GT(n_retry, 0u) << "no retry markers";
    EXPECT_GT(n_fault, 0u) << "no fault markers";
    EXPECT_GT(n_exec_pairs, 0u);

    // Client span tracks recorded ticks and solver iterations.
    std::size_t n_ticks = 0, n_iters = 0;
    for (std::size_t r = 3; r < buf->ringCount(); ++r) {
        const TraceRing &ring = buf->ring(r);
        for (std::size_t i = 0; i < ring.retained(); ++i) {
            n_ticks += ring.at(i).kind == EventKind::TickEnd ? 1 : 0;
            n_iters += ring.at(i).kind == EventKind::IterEnd ? 1 : 0;
        }
    }
    EXPECT_EQ(n_ticks, static_cast<std::size_t>(kClients * kTicks));
    EXPECT_GE(n_iters, n_ticks); // >= 1 iteration per tick

    // The registry saw the same story.
    const MetricsRegistry *m = server.metricsRegistry();
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->counter(Counter::DeadlineMissed), 0u);
    EXPECT_GT(m->counter(Counter::CoalescedItems), 0u);
    EXPECT_GT(m->counter(Counter::StolenItems), 0u);
    EXPECT_GT(m->counter(Counter::Retries), 0u);
    EXPECT_GT(m->counter(Counter::TransientFaults), 0u);
    EXPECT_GT(
        m->mergedHistogram(true, LatKind::EndToEnd).count(), 0u);

    // --- Chrome trace export is structurally valid. ---------------
    const char *path = "trace_obs_test.json";
    ASSERT_TRUE(runtime::obs::writeChromeTrace(*buf, path));
    const std::string json = readFile(path);
    std::remove(path);
    ASSERT_FALSE(json.empty());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(json.back(), '\n');
    // Every event object carries the required Chrome keys — their
    // counts must agree (thread-name metadata included).
    const std::size_t n_ph = countOccurrences(json, "\"ph\":");
    const std::size_t n_pid = countOccurrences(json, "\"pid\":");
    const std::size_t n_tid = countOccurrences(json, "\"tid\":");
    const std::size_t n_ts = countOccurrences(json, "\"ts\":");
    EXPECT_GT(n_ph, 100u);
    EXPECT_EQ(n_ph, n_pid);
    EXPECT_EQ(n_ph, n_tid);
    EXPECT_EQ(n_ph, n_ts);
    // The missed job's flow stitch survives serialization: its
    // Completed flow event closes the path ("bp":"e").
    EXPECT_NE(json.find("\"id\":" + std::to_string(missed_job) +
                        ",\"bp\":\"e\""),
              std::string::npos);
}

TEST(ObsExport, ShedJobFlowIsClosed)
{
    // A job shed at submission still opens a flow at its Submit; its
    // Rejected event must close that flow, or the exported trace
    // carries a dangling flow start.
    const RobotModel robot = model::makeSerialChain(3);
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend backend(accel);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.obs.trace = true;
    server.setPolicy(cfg);
    runtime::sched::AdmissionConfig acfg;
    acfg.max_queue_depth = 1;
    server.setAdmission(acfg);

    // Synchronous mode: the first job is still queued when the second
    // arrives, so the depth bound sheds the second.
    const auto reqs = randomRequests(robot, 4, 41);
    std::vector<DynamicsResult> r0(4), r1(4);
    const int kept =
        server.submit(FunctionType::FD, reqs.data(), 4, r0.data());
    const int shed =
        server.submit(FunctionType::FD, reqs.data(), 4, r1.data());
    ASSERT_EQ(server.jobOutcome(shed), runtime::JobOutcome::Rejected);
    server.drain();
    ASSERT_EQ(server.jobOutcome(kept), runtime::JobOutcome::Completed);

    const char *path = "trace_shed_test.json";
    ASSERT_TRUE(runtime::obs::writeChromeTrace(*server.traceBuffer(), path));
    const std::string json = readFile(path);
    std::remove(path);
    // Both jobs' flows close exactly once ("bp":"e"). The kept job's
    // open flow events are its start and its pick step; the shed job
    // never reached a lane, so its only open event is the start.
    auto flow = [&](int id, const char *end) {
        const std::string needle = "\"cat\":\"job\",\"id\":" +
                                   std::to_string(id) + end;
        return countOccurrences(json, needle.c_str());
    };
    EXPECT_EQ(flow(kept, ",\"bp\":\"e\"}"), 1u);
    EXPECT_EQ(flow(kept, "}"), 2u);
    EXPECT_EQ(flow(shed, ",\"bp\":\"e\"}"), 1u) << "shed flow left open";
    EXPECT_EQ(flow(shed, "}"), 1u);
}

// ---------------------------------------------------------------------
// Live streaming: reader vs racing producer (runs under TSan too)
// ---------------------------------------------------------------------

TEST(ObsStream, ConcurrentReaderConservesEveryEvent)
{
    // A 256-slot ring wraps ~780x under a 200k-event producer while
    // the reader drains concurrently. The conservation contract:
    // after quiesce + final drain, delivered + dropped == recorded,
    // every delivered event is INTACT (its three redundant sequence
    // encodings agree — a torn slot cannot pass), and delivery is in
    // recording order.
    TraceRing ring(256, "t");
    constexpr std::uint64_t kEvents = 200000;
    std::thread producer([&ring] {
        for (std::uint64_t s = 0; s < kEvents; ++s)
            ring.record(EventKind::IterBegin, static_cast<double>(s),
                        static_cast<std::int32_t>(s & 0x7fffffff), -1,
                        FunctionType::FD,
                        static_cast<std::uint32_t>(s),
                        3.0 * static_cast<double>(s));
    });

    TraceReader reader(&ring);
    TraceEvent chunk[64];
    double last_seq = -1.0;
    std::uint64_t seen = 0;
    auto validate = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            const TraceEvent &ev = chunk[i];
            const auto s = static_cast<std::uint64_t>(ev.t_us);
            ASSERT_GT(ev.t_us, last_seq) << "out of order";
            last_seq = ev.t_us;
            ASSERT_EQ(ev.job,
                      static_cast<std::int32_t>(s & 0x7fffffff))
                << "torn event at seq " << s;
            ASSERT_EQ(ev.a, static_cast<std::uint32_t>(s));
            ASSERT_DOUBLE_EQ(ev.b, 3.0 * static_cast<double>(s));
            ++seen;
        }
    };
    // Live phase: drain while the producer races ahead.
    while (ring.recorded() < kEvents) {
        const std::size_t n = reader.read(chunk, 64);
        validate(n);
    }
    producer.join();
    // Quiesced phase: drain the tail to empty.
    for (std::size_t n; (n = reader.read(chunk, 64)) > 0;)
        validate(n);

    EXPECT_EQ(ring.recorded(), kEvents);
    EXPECT_EQ(reader.delivered(), seen);
    EXPECT_EQ(reader.delivered() + reader.dropped(), kEvents);
    EXPECT_EQ(reader.cursor(), kEvents);
    // The reader kept up at least as well as the drop-oldest window
    // allows: it must have delivered SOMETHING.
    EXPECT_GT(reader.delivered(), 0u);
}

// ---------------------------------------------------------------------
// Streaming a quiesced buffer reproduces the post-hoc exporter
// ---------------------------------------------------------------------

TEST(ObsStream, QuiescedStreamMatchesPostHocExportByteForByte)
{
    const RobotModel robot = model::makeSerialChain(3);
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend backend(accel);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.obs.trace = true;
    server.setPolicy(cfg);
    server.start();
    const auto reqs = randomRequests(robot, 4, 51);
    std::vector<DynamicsResult> res(4);
    for (int i = 0; i < 12; ++i)
        server.wait(server.submit(FunctionType::FD, reqs.data(), 4,
                                  res.data(), 0));
    server.stop();

    const TraceBuffer *buf = server.traceBuffer();
    ASSERT_NE(buf, nullptr);
    const char *posthoc = "trace_stream_ref.json";
    const char *streamed = "trace_stream_live.json";
    ASSERT_TRUE(runtime::obs::writeChromeTrace(*buf, posthoc));
    {
        TraceStreamer streamer(*buf, /*chunk_events=*/64);
        ASSERT_TRUE(streamer.openFile(streamed));
        EXPECT_GT(streamer.flush(), 0u);
        EXPECT_EQ(streamer.flush(), 0u); // caught up
        ASSERT_TRUE(streamer.closeFile());
        EXPECT_EQ(streamer.dropped(), 0u);
    }
    const std::string a = readFile(posthoc), b = readFile(streamed);
    std::remove(posthoc);
    std::remove(streamed);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "streamed file diverges from writeChromeTrace";
}

// ---------------------------------------------------------------------
// Aggregator time-series is monotone and delta-consistent
// ---------------------------------------------------------------------

TEST(ObsAggregate, SnapshotsAreMonotoneAndDeltaConsistent)
{
    const RobotModel robot = model::makeSerialChain(3);
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend backend(accel);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    server.setPolicy(cfg);
    server.start();

    // Driven synchronously via tickOnce(): no background thread, so
    // the series content is fully deterministic in structure.
    AggregatorConfig acfg;
    acfg.history = 4; // force eviction: 6 ticks, bound 4
    ObsAggregator agg(server, acfg);

    const auto reqs = randomRequests(robot, 4, 61);
    std::vector<DynamicsResult> res(4);
    for (int t = 0; t < 6; ++t) {
        for (int i = 0; i < 3; ++i)
            server.wait(server.submit(FunctionType::FD, reqs.data(),
                                      4, res.data(), 0));
        agg.tickOnce();
    }
    server.stop();

    EXPECT_EQ(agg.sampleCount(), 6u);
    const std::vector<ObsSample> hist = agg.history();
    ASSERT_EQ(hist.size(), 4u); // bounded by history, oldest evicted
    EXPECT_EQ(hist.front().seq, 3u);
    for (std::size_t i = 0; i < hist.size(); ++i) {
        const ObsSample &s = hist[i];
        ASSERT_EQ(s.lanes.size(), 1u);
        EXPECT_TRUE(s.lanes[0].healthy);
        if (i == 0)
            continue;
        const ObsSample &p = hist[i - 1];
        EXPECT_EQ(s.seq, p.seq + 1) << "seq not strictly increasing";
        EXPECT_GE(s.t_us, p.t_us);
        EXPECT_GE(s.trace_recorded, p.trace_recorded);
        for (int c = 0; c < runtime::obs::kCounters; ++c) {
            EXPECT_GE(s.counters[c], p.counters[c])
                << "counter " << c << " went backwards";
            EXPECT_EQ(s.counters[c], p.counters[c] + s.delta[c])
                << "delta " << c << " inconsistent";
        }
    }
    // 3 jobs completed between consecutive ticks.
    const auto idx = static_cast<std::size_t>(Counter::JobsCompleted);
    EXPECT_EQ(hist.back().delta[idx], 3u);
    EXPECT_EQ(hist.back().counters[idx], 18u);

    const StatsSnapshot snap = agg.latest();
    EXPECT_EQ(snap.sample.seq, 6u);
    ASSERT_TRUE(snap.have_registry);
    EXPECT_EQ(snap.registry.counter(Counter::JobsCompleted), 18u);
    // Both renderings of the snapshot are non-empty and well-formed
    // enough to carry the headline counter.
    const std::string json = snap.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"jobs_completed\":18"), std::string::npos);
    const std::string prom = snap.toPrometheus();
    EXPECT_NE(prom.find("dadu_jobs_completed_total 18"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Embedded endpoint smoke: raw-socket GET against a live server
// ---------------------------------------------------------------------

/** Blocking HTTP GET of @p path against 127.0.0.1:@p port. */
std::string
httpGet(int port, const char *path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    std::string resp;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0)
    {
        char req[128];
        const int n = std::snprintf(req, sizeof(req),
                                    "GET %s HTTP/1.0\r\n\r\n", path);
        if (n > 0 &&
            ::send(fd, req, static_cast<std::size_t>(n), 0) == n)
        {
            char c[4096];
            ssize_t got;
            while ((got = ::recv(fd, c, sizeof c, 0)) > 0)
                resp.append(c, static_cast<std::size_t>(got));
        }
    }
    ::close(fd);
    return resp;
}

TEST(ObsEndpoint, ServesStatsAndMetricsWhileServerRuns)
{
    const RobotModel robot = model::makeSerialChain(3);
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend lane0(accel);
    auto lane1 = lane0.clone();
    DynamicsServer server(lane0);
    server.addBackend(*lane1);
    SchedConfig cfg;
    cfg.obs.metrics = true;
    cfg.obs.aggregate_interval_ms = 5;
    cfg.obs.stats_port = 0; // ephemeral: never collides in CI
    server.setPolicy(cfg);
    server.start();

    ASSERT_NE(server.aggregator(), nullptr);
    ASSERT_NE(server.statsEndpoint(), nullptr);
    const int port = server.statsEndpoint()->port();
    ASSERT_GT(port, 0);

    // Scrape while jobs are actively flowing.
    const auto reqs = randomRequests(robot, 4, 71);
    std::vector<DynamicsResult> res(4);
    for (int i = 0; i < 20; ++i)
        server.wait(server.submit(FunctionType::FD, reqs.data(), 4,
                                  res.data(), 0));
    // Let the aggregator observe the completed work.
    while (server.aggregator()->sampleCount() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const std::string stats = httpGet(port, "/stats");
    ASSERT_NE(stats.find("HTTP/1.0 200 OK"), std::string::npos);
    ASSERT_NE(stats.find("Content-Type: application/json"),
              std::string::npos);
    // Two lanes, both visible in the lane array.
    EXPECT_NE(stats.find("\"lanes\":[{\"id\":0"), std::string::npos);
    EXPECT_NE(stats.find("{\"id\":1"), std::string::npos);
    EXPECT_NE(stats.find("\"jobs_completed\":"), std::string::npos);

    const std::string metrics = httpGet(port, "/metrics");
    ASSERT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("# TYPE dadu_jobs_completed_total counter"),
              std::string::npos);
    EXPECT_NE(metrics.find("dadu_lane_healthy{lane=\"1\"} 1"),
              std::string::npos);

    const std::string nope = httpGet(port, "/nope");
    EXPECT_NE(nope.find("HTTP/1.0 404 Not Found"), std::string::npos);

    server.stop();
    // The endpoint is torn down with the live plane: its socket is
    // closed (connect now fails → empty response).
    ASSERT_NE(server.statsEndpoint(), nullptr);
    EXPECT_EQ(server.statsEndpoint()->port(), -1);
    EXPECT_EQ(httpGet(port, "/stats"), "");
    // The aggregator survives stop() for post-run reads; its final
    // tick saw the drained server.
    ASSERT_NE(server.aggregator(), nullptr);
    EXPECT_EQ(server.aggregator()->latest().sample.pending_jobs, 0u);
    EXPECT_EQ(server.aggregator()
                  ->latest()
                  .registry.counter(Counter::JobsCompleted),
              20u);
}

} // namespace
