/**
 * @file
 * Tests for the fault-tolerance layer:
 *
 *  - FaultInjectingBackend executes its seeded FaultPlan
 *    deterministically (identical plans → identical fault sequences);
 *  - transient faults retry and succeed with exact accounting;
 *  - NaN-corrupted batches are caught by server-side validation and
 *    retried until clean;
 *  - a lane that dies mid-drain fails its work over: unfaulted tasks
 *    keep bitwise-identical results under EDF+steal;
 *  - a batch the backend rejects as InvalidRequest fails its job
 *    explicitly without retry or quarantine;
 *  - chaos: one of four lanes killed mid-run under concurrent mixed
 *    traffic — every accepted job completes with correct results;
 *  - admission control sheds bulk on queue depth but never tagged
 *    traffic, with explicit Rejected outcomes;
 *  - already-late deadlines are admitted and counted as immediate
 *    misses (property-tested accounting);
 *  - start()/stop() idempotence and per-job accessor bounds checks;
 *  - the fault decorator preserves zero-allocation steady-state
 *    submission (counted allocator).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "model/builders.h"
#include "perf/timing.h"
#include "runtime/backends.h"
#include "runtime/fault.h"
#include "runtime/sched/admission.h"
#include "runtime/server.h"
#include "test_support.h"

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
using dadu::runtime::BatchStats;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::DynamicsServer;
using dadu::runtime::FaultInjectingBackend;
using dadu::runtime::FaultPlan;
using dadu::runtime::FunctionType;
using dadu::runtime::JobOutcome;
using dadu::runtime::SubmitStatus;
using dadu::runtime::sched::JobTag;
using dadu::runtime::sched::kNoDeadline;
using dadu::runtime::sched::PolicyKind;
using dadu::runtime::sched::SchedConfig;
using dadu::runtime::sched::SchedStats;
using dadu::tests::expectBitwiseEqual;
using dadu::tests::randomRequests;

/**
 * Pure-function echo backend: q̈ = q̇ (copy), so any lane — and any
 * re-execution after a fault — produces bitwise-identical results.
 * Optional wall time per batch for admission/overload tests.
 */
class EchoBackend : public runtime::DynamicsBackend
{
  public:
    explicit EchoBackend(const RobotModel &robot, double wall_us = 0.0)
        : robot_(robot), wall_us_(wall_us)
    {}

    const char *name() const override { return "echo"; }
    const RobotModel &robot() const override { return robot_; }
    bool offloaded() const override { return true; }

    std::unique_ptr<runtime::DynamicsBackend> clone() const override
    {
        return std::make_unique<EchoBackend>(robot_, wall_us_);
    }

    SubmitStatus
    submit(FunctionType, const DynamicsRequest *requests,
           std::size_t count, DynamicsResult *results,
           BatchStats *stats) override
    {
        for (std::size_t i = 0; i < count; ++i)
            results[i].qdd = requests[i].qd;
        if (wall_us_ > 0.0)
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<long>(wall_us_)));
        if (stats) {
            *stats = BatchStats{};
            stats->total_us = 10.0 + 1.0 * count;
        }
        return SubmitStatus::Ok;
    }

  private:
    const RobotModel &robot_;
    double wall_us_;
};

/**
 * Decorator whose lane answers every batch with InvalidRequest — what
 * a backend reports for a malformed batch the server did not catch.
 */
class InvalidRequestBackend : public runtime::DynamicsBackend
{
  public:
    explicit InvalidRequestBackend(runtime::DynamicsBackend &inner)
        : inner_(inner)
    {}

    const char *name() const override { return "invalid-request"; }
    const RobotModel &robot() const override { return inner_.robot(); }
    bool offloaded() const override { return inner_.offloaded(); }

    SubmitStatus
    submit(FunctionType, const DynamicsRequest *, std::size_t,
           DynamicsResult *, BatchStats *) override
    {
        return SubmitStatus::InvalidRequest;
    }

  private:
    runtime::DynamicsBackend &inner_;
};

/** Terminal trace events (Completed/Rejected/Failed) of @p job, all rings. */
int
terminalEvents(const runtime::obs::TraceBuffer &buf, int job)
{
    using runtime::obs::EventKind;
    int n = 0;
    for (std::size_t r = 0; r < buf.ringCount(); ++r) {
        const runtime::obs::TraceRing &ring = buf.ring(r);
        for (std::size_t i = 0; i < ring.retained(); ++i) {
            const runtime::obs::TraceEvent &ev = ring.at(i);
            if (ev.job == job && (ev.kind == EventKind::Completed ||
                                  ev.kind == EventKind::Rejected ||
                                  ev.kind == EventKind::Failed))
                ++n;
        }
    }
    return n;
}

// ---------------------------------------------------------------------
// FaultInjectingBackend unit behavior
// ---------------------------------------------------------------------

TEST(FaultInjectingBackend, SeededPlanIsDeterministic)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 4, 11);
    std::vector<DynamicsResult> res_a(4), res_b(4);

    FaultPlan plan;
    plan.seed = 42;
    plan.transient_fail_prob = 0.3;
    plan.corrupt_prob = 0.2;
    plan.latency_spike_prob = 0.25;
    plan.latency_spike_us = 500.0;

    EchoBackend inner_a(robot), inner_b(robot);
    FaultInjectingBackend a(inner_a, plan), b(inner_b, plan);
    for (int i = 0; i < 64; ++i) {
        BatchStats sa, sb;
        const SubmitStatus ra = a.submit(FunctionType::FD, reqs.data(), 4,
                                         res_a.data(), &sa);
        const SubmitStatus rb = b.submit(FunctionType::FD, reqs.data(), 4,
                                         res_b.data(), &sb);
        EXPECT_EQ(static_cast<int>(ra), static_cast<int>(rb));
        EXPECT_EQ(sa.total_us, sb.total_us);
    }
    EXPECT_EQ(a.transientFaults(), b.transientFaults());
    EXPECT_EQ(a.corruptedBatches(), b.corruptedBatches());
    EXPECT_EQ(a.latencySpikes(), b.latencySpikes());
    EXPECT_GT(a.transientFaults(), 0);
    EXPECT_GT(a.corruptedBatches(), 0);
    EXPECT_GT(a.latencySpikes(), 0);
}

TEST(FaultInjectingBackend, DiesAfterBatchBudgetAndStaysDead)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 2, 5);
    std::vector<DynamicsResult> results(2);

    FaultPlan plan;
    plan.die_after_batches = 3;
    EchoBackend inner(robot);
    FaultInjectingBackend backend(inner, plan);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(backend.submit(FunctionType::FD, reqs.data(), 2,
                                 results.data(), nullptr),
                  SubmitStatus::Ok);
    EXPECT_FALSE(backend.dead());
    BatchStats stats;
    EXPECT_EQ(backend.submit(FunctionType::FD, reqs.data(), 2,
                             results.data(), &stats),
              SubmitStatus::BackendDown);
    EXPECT_EQ(stats.status, SubmitStatus::BackendDown);
    EXPECT_TRUE(backend.dead());
    EXPECT_EQ(backend.submit(FunctionType::FD, reqs.data(), 2,
                             results.data(), nullptr),
              SubmitStatus::BackendDown);
}

// ---------------------------------------------------------------------
// Server-side retry and validation
// ---------------------------------------------------------------------

TEST(FaultServer, TransientRetryThenSucceedAccounting)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 4, 21);

    // Deterministic faults: every 3rd batch fails once; the retry
    // (batch counter advanced) succeeds immediately.
    FaultPlan plan;
    plan.transient_every_n = 3;
    EchoBackend inner(robot);
    FaultInjectingBackend backend(inner, plan);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.max_retries = 2;
    server.setPolicy(cfg);

    std::vector<std::vector<DynamicsResult>> results(6);
    std::vector<int> jobs;
    for (int j = 0; j < 6; ++j) {
        results[j].resize(4);
        jobs.push_back(server.submit(FunctionType::FD, reqs.data(), 4,
                                     results[j].data()));
    }
    SchedStats sstats;
    server.drain(nullptr, &sstats);

    // 6 batches submitted: decorator calls 1..8, faults at 3 and 6,
    // each recovered by exactly one retry.
    EXPECT_EQ(sstats.transient_faults, 2u);
    EXPECT_EQ(sstats.retries, 2u);
    EXPECT_EQ(sstats.lane_deaths, 0u);
    EXPECT_EQ(sstats.failed_jobs, 0u);
    EXPECT_TRUE(server.laneHealthy(0));
    for (int j = 0; j < 6; ++j) {
        EXPECT_EQ(server.jobOutcome(jobs[j]), JobOutcome::Completed);
        for (int i = 0; i < 4; ++i)
            expectBitwiseEqual(results[j][i].qdd, reqs[i].qd);
    }
}

TEST(FaultServer, CorruptResultsCaughtByValidationAndRetried)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 4, 33);

    FaultPlan plan;
    plan.seed = 7;
    plan.corrupt_prob = 0.4;
    EchoBackend inner(robot);
    FaultInjectingBackend backend(inner, plan);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.max_retries = 8; // corruption redraws per retry; 0.4^9 ≈ never
    cfg.validate_results = true;
    server.setPolicy(cfg);

    std::vector<std::vector<DynamicsResult>> results(16);
    std::vector<int> jobs;
    for (int j = 0; j < 16; ++j) {
        results[j].resize(4);
        jobs.push_back(server.submit(FunctionType::FD, reqs.data(), 4,
                                     results[j].data()));
    }
    SchedStats sstats;
    server.drain(nullptr, &sstats);

    EXPECT_GT(sstats.corrupt_results, 0u);
    EXPECT_EQ(sstats.failed_jobs, 0u);
    EXPECT_TRUE(server.laneHealthy(0));
    for (int j = 0; j < 16; ++j) {
        EXPECT_EQ(server.jobOutcome(jobs[j]), JobOutcome::Completed);
        for (int i = 0; i < 4; ++i) {
            for (std::size_t k = 0; k < results[j][i].qdd.size(); ++k)
                EXPECT_TRUE(std::isfinite(results[j][i].qdd[k]));
            expectBitwiseEqual(results[j][i].qdd, reqs[i].qd);
        }
    }
}

// ---------------------------------------------------------------------
// Lane failover
// ---------------------------------------------------------------------

TEST(FaultServer, SiblingLaneDeathMidDrainKeepsResultsBitwise)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 6, 55);

    // The dying lane is lane 0: the synchronous drain serves it
    // first, so it hits the dead backend with work still owed — the
    // failover trigger — before lane 1 could steal that work away.
    EchoBackend inner0(robot);
    FaultPlan plan;
    plan.die_after_batches = 1; // one batch, then dead mid-drain
    FaultInjectingBackend lane0(inner0, plan);
    EchoBackend lane1(robot);

    DynamicsServer server(lane0);
    server.addBackend(lane1);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    cfg.steal = true;
    server.setPolicy(cfg);

    // Healthy reference run of the identical traffic.
    EchoBackend ref_backend(robot);
    DynamicsServer ref(ref_backend);

    const int kJobs = 10;
    std::vector<std::vector<DynamicsResult>> results(kJobs), expect(kJobs);
    std::vector<int> jobs, ref_jobs;
    const double now = perf::nowUs();
    for (int j = 0; j < kJobs; ++j) {
        results[j].resize(6);
        expect[j].resize(6);
        JobTag tag;
        tag.deadline_us = now + 1e6 + j * 100.0;
        jobs.push_back(server.submit(FunctionType::FD, reqs.data(), 6,
                                     results[j].data(), j % 2, tag));
        ref_jobs.push_back(ref.submit(FunctionType::FD, reqs.data(), 6,
                                      expect[j].data(), 0, tag));
    }
    SchedStats sstats;
    server.drain(nullptr, &sstats);
    ref.drain();

    EXPECT_FALSE(server.laneHealthy(0));
    EXPECT_TRUE(server.laneHealthy(1));
    EXPECT_EQ(sstats.lane_deaths, 1u);
    EXPECT_GT(sstats.requeued_items, 0u);
    EXPECT_EQ(sstats.failed_jobs, 0u);
    for (int j = 0; j < kJobs; ++j) {
        EXPECT_EQ(server.jobOutcome(jobs[j]), JobOutcome::Completed);
        for (int i = 0; i < 6; ++i)
            expectBitwiseEqual(results[j][i].qdd, expect[j][i].qdd);
    }
}

TEST(FaultServer, AllLanesDeadFailsJobsExplicitly)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 2, 3);

    EchoBackend inner(robot);
    FaultPlan plan;
    plan.die_after_batches = 0; // dead on arrival
    FaultInjectingBackend backend(inner, plan);
    DynamicsServer server(backend);

    std::vector<DynamicsResult> results(2);
    const int job =
        server.submit(FunctionType::FD, reqs.data(), 2, results.data());
    SchedStats sstats;
    server.drain(nullptr, &sstats);
    EXPECT_EQ(server.jobOutcome(job), JobOutcome::Failed);
    EXPECT_TRUE(server.jobDone(job));
    EXPECT_EQ(sstats.failed_jobs, 1u);
    EXPECT_EQ(sstats.lane_deaths, 1u);

    // With the only lane quarantined, submission fails immediately
    // (explicit outcome, no hang).
    const int job2 =
        server.submit(FunctionType::FD, reqs.data(), 2, results.data());
    EXPECT_EQ(server.jobOutcome(job2), JobOutcome::Failed);
    server.wait(job2); // returns immediately
}

TEST(FaultServer, InvalidBatchFailsJobWithoutQuarantine)
{
    // The backend rejects a batch that passed the submit-time check
    // (InvalidRequest): a client error. The job fails explicitly; the
    // lane is neither retried nor quarantined.
    const RobotModel robot = model::makeSerialChain(3);
    EchoBackend inner(robot);
    InvalidRequestBackend backend(inner);
    DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.obs.trace = true;
    server.setPolicy(cfg);
    server.start();

    const auto reqs = randomRequests(robot, 4, 81);
    std::vector<DynamicsResult> results(4);
    const int job = server.submit(FunctionType::DeltaFD, reqs.data(), 4,
                                  results.data());
    server.wait(job);
    EXPECT_EQ(server.jobOutcome(job), JobOutcome::Failed);
    EXPECT_EQ(server.pending(), 0u);
    EXPECT_TRUE(server.laneHealthy(0));
    // The failed batch no longer weighs on the lane.
    EXPECT_DOUBLE_EQ(server.laneLoadWeight(0), 0.0);

    runtime::ServerStats stats;
    SchedStats sstats;
    server.drain(&stats, &sstats);
    server.stop();
    EXPECT_EQ(sstats.retries, 0u);
    EXPECT_EQ(sstats.lane_deaths, 0u);
    EXPECT_EQ(sstats.failed_jobs, 1u);
    EXPECT_EQ(stats.jobs, 0u);
    EXPECT_EQ(terminalEvents(*server.traceBuffer(), job), 1);
}

TEST(FaultServer, ShardedJobFailsOnceWhenOneShardIsInvalid)
{
    // Two shards; lane 0 answers InvalidRequest. The synchronous drain
    // serves lane 0 first, so its failure only marks the job and the
    // sibling shard's completion on lane 1 is what ends it — Failed,
    // booked once, never counted as served.
    const RobotModel robot = model::makeSerialChain(3);
    EchoBackend inner0(robot), lane1(robot);
    InvalidRequestBackend lane0(inner0);
    DynamicsServer server(lane0);
    server.addBackend(lane1);
    SchedConfig cfg;
    cfg.obs.trace = true;
    server.setPolicy(cfg);

    const auto reqs = randomRequests(robot, 8, 83);
    std::vector<DynamicsResult> results(8);
    const int job = server.submitSharded(FunctionType::FD, reqs.data(), 8,
                                         results.data());
    runtime::ServerStats stats;
    SchedStats sstats;
    server.drain(&stats, &sstats);
    EXPECT_EQ(server.jobOutcome(job), JobOutcome::Failed);
    EXPECT_EQ(sstats.failed_jobs, 1u);
    EXPECT_EQ(stats.jobs, 0u);
    EXPECT_EQ(stats.batches, 1u); // lane 1's shard ran
    EXPECT_TRUE(server.laneHealthy(0));
    EXPECT_TRUE(server.laneHealthy(1));
    EXPECT_EQ(server.pending(), 0u);
    EXPECT_EQ(terminalEvents(*server.traceBuffer(), job), 1);
}

// ---------------------------------------------------------------------
// Chaos: one of four lanes killed mid-run under concurrent traffic
// ---------------------------------------------------------------------

TEST(FaultServer, ChaosKillOneOfFourLanesEveryAcceptedJobCompletes)
{
    const RobotModel robot = model::makeSerialChain(3);

    std::vector<std::unique_ptr<FaultInjectingBackend>> lanes;
    for (int l = 0; l < 4; ++l) {
        FaultPlan plan;
        plan.seed = 100u + l;
        plan.transient_every_n = 7 + l; // deterministic, retry recovers
        plan.corrupt_prob = 0.05;
        if (l == 2)
            plan.die_after_batches = 5; // killed mid-run
        lanes.push_back(std::make_unique<FaultInjectingBackend>(
            std::make_unique<EchoBackend>(robot), plan));
    }

    DynamicsServer server;
    for (auto &lane : lanes)
        server.addBackend(*lane);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    cfg.coalesce = true;
    cfg.steal = true;
    cfg.max_retries = 5;
    cfg.validate_results = true;
    server.setPolicy(cfg);
    server.start();

    const int kClients = 4;
    const int kJobsPerClient = 24;
    std::atomic<int> bad_outcomes{0}, bad_results{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937 rng(900u + c);
            auto reqs = randomRequests(robot, 16, 40u + c);
            std::vector<DynamicsResult> results(16);
            for (int j = 0; j < kJobsPerClient; ++j) {
                int job;
                if (j % 2 == 0) {
                    // Flat batch, random size and lane, some tagged.
                    const std::size_t n = 1 + rng() % 8;
                    JobTag tag;
                    if (j % 4)
                        tag.deadline_us = perf::nowUs() + 5e5;
                    job = server.submit(FunctionType::FD, reqs.data(), n,
                                        results.data(),
                                        DynamicsServer::kLeastLoaded, tag);
                    server.wait(job);
                    if (server.jobOutcome(job) != JobOutcome::Completed)
                        ++bad_outcomes;
                    else
                        for (std::size_t i = 0; i < n; ++i)
                            for (std::size_t k = 0;
                                 k < results[i].qdd.size(); ++k)
                                if (results[i].qdd[k] != reqs[i].qd[k])
                                    ++bad_results;
                } else {
                    // Sharded across every healthy lane.
                    job = server.submitSharded(FunctionType::FD,
                                               reqs.data(), 16,
                                               results.data());
                    server.wait(job);
                    if (server.jobOutcome(job) != JobOutcome::Completed)
                        ++bad_outcomes;
                    else
                        for (std::size_t i = 0; i < 16; ++i)
                            for (std::size_t k = 0;
                                 k < results[i].qdd.size(); ++k)
                                if (results[i].qdd[k] != reqs[i].qd[k])
                                    ++bad_results;
                }
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    SchedStats sstats;
    server.drain(nullptr, &sstats);
    server.stop();

    EXPECT_EQ(bad_outcomes.load(), 0);
    EXPECT_EQ(bad_results.load(), 0);
    EXPECT_FALSE(server.laneHealthy(2));
    EXPECT_GE(sstats.lane_deaths, 1u);
    EXPECT_EQ(sstats.failed_jobs, 0u);
}

// ---------------------------------------------------------------------
// Admission control and overload shedding
// ---------------------------------------------------------------------

TEST(Admission, BulkShedsOnQueueDepthTaggedTrafficAdmitted)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 4, 9);

    EchoBackend backend(robot, /*wall_us=*/3000.0);
    DynamicsServer server(backend);
    runtime::sched::AdmissionConfig acfg;
    acfg.max_queue_depth = 2;
    server.setAdmission(acfg);
    server.start();

    // Flood bulk: the lane serves one 3 ms batch at a time, so the
    // queue saturates and later bulk jobs shed.
    std::vector<std::vector<DynamicsResult>> results(12);
    std::vector<int> jobs;
    for (int j = 0; j < 12; ++j) {
        results[j].resize(4);
        jobs.push_back(server.submit(FunctionType::FD, reqs.data(), 4,
                                     results[j].data()));
    }
    int rejected = 0;
    for (const int job : jobs)
        if (server.jobOutcome(job) == JobOutcome::Rejected)
            ++rejected;
    EXPECT_GT(rejected, 0) << "overload never shed bulk work";

    // wait() on a shed job returns immediately — never a hang.
    for (const int job : jobs)
        if (server.jobOutcome(job) == JobOutcome::Rejected) {
            const double t0 = perf::nowUs();
            server.wait(job);
            EXPECT_LT(perf::nowUs() - t0, 1e5);
        }

    // Tagged traffic rides over the same overload: depth does not
    // apply, and a generous deadline passes the completion check.
    JobTag tag;
    tag.deadline_us = perf::nowUs() + 60e6;
    std::vector<DynamicsResult> tagged_res(4);
    const int tagged = server.submit(FunctionType::FD, reqs.data(), 4,
                                     tagged_res.data(),
                                     DynamicsServer::kLeastLoaded, tag);
    server.wait(tagged);
    EXPECT_EQ(server.jobOutcome(tagged), JobOutcome::Completed);

    server.waitAll();
    SchedStats sstats;
    server.drain(nullptr, &sstats);
    server.stop();
    EXPECT_EQ(static_cast<int>(sstats.rejected_jobs), rejected);
    // Every accepted bulk job completed.
    for (const int job : jobs) {
        const JobOutcome o = server.jobOutcome(job);
        EXPECT_TRUE(o == JobOutcome::Completed || o == JobOutcome::Rejected);
    }
}

TEST(Admission, PastDeadlineAcceptedAndCountedAsImmediateMiss)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 2, 13);

    std::mt19937 rng(4242);
    for (int trial = 0; trial < 4; ++trial) {
        EchoBackend backend(robot);
        DynamicsServer server(backend);
        SchedConfig cfg;
        cfg.kind = PolicyKind::Edf;
        server.setPolicy(cfg);
        runtime::sched::AdmissionConfig acfg;
        acfg.max_queue_depth = 0; // unbounded: depth must not shed here
        server.setAdmission(acfg);

        const int kJobs = 16;
        std::vector<std::vector<DynamicsResult>> results(kJobs);
        std::vector<int> jobs;
        for (int j = 0; j < kJobs; ++j) {
            results[j].resize(2);
            JobTag tag;
            tag.priority = static_cast<int>(rng() % 3);
            // Already late by a random amount — and a NaN deadline in
            // the mix must read as untagged, not poison EDF.
            tag.deadline_us =
                perf::nowUs() - 1.0 - static_cast<double>(rng() % 1000);
            jobs.push_back(server.submit(FunctionType::FD, reqs.data(),
                                         2, results[j].data(),
                                         DynamicsServer::kLeastLoaded,
                                         tag));
        }
        JobTag nan_tag;
        nan_tag.deadline_us = std::nan("");
        std::vector<DynamicsResult> nan_res(2);
        const int nan_job =
            server.submit(FunctionType::FD, reqs.data(), 2,
                          nan_res.data(), DynamicsServer::kLeastLoaded,
                          nan_tag);

        SchedStats sstats;
        server.drain(nullptr, &sstats);

        // Property: none shed, none lost — every late job completed,
        // counted once as an immediate miss at submission and once as
        // a deadline miss at completion. The NaN-tagged job is bulk.
        EXPECT_EQ(sstats.rejected_jobs, 0u);
        EXPECT_EQ(sstats.failed_jobs, 0u);
        EXPECT_EQ(sstats.immediate_misses,
                  static_cast<std::size_t>(kJobs));
        EXPECT_EQ(sstats.deadline_misses,
                  static_cast<std::size_t>(kJobs));
        EXPECT_EQ(sstats.deadline_met, 0u);
        for (const int job : jobs)
            EXPECT_EQ(server.jobOutcome(job), JobOutcome::Completed);
        EXPECT_EQ(server.jobOutcome(nan_job), JobOutcome::Completed);
        EXPECT_FALSE(server.jobMissedDeadline(nan_job));
    }
}

// ---------------------------------------------------------------------
// Lifecycle idempotence and accessor bounds
// ---------------------------------------------------------------------

TEST(ServerLifecycle, StartStopIdempotentInBothOrders)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 2, 17);
    std::vector<DynamicsResult> results(2);

    EchoBackend backend(robot);
    DynamicsServer server(backend);

    // stop before start: no-op.
    server.stop();
    EXPECT_FALSE(server.running());

    server.start();
    EXPECT_TRUE(server.running());
    server.start(); // double start: no-op
    EXPECT_TRUE(server.running());

    const int job =
        server.submit(FunctionType::FD, reqs.data(), 2, results.data());
    server.wait(job);
    EXPECT_EQ(server.jobOutcome(job), JobOutcome::Completed);

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // double stop: no-op
    EXPECT_FALSE(server.running());

    // Restart serves again.
    server.start();
    const int job2 =
        server.submit(FunctionType::FD, reqs.data(), 2, results.data());
    server.wait(job2);
    EXPECT_EQ(server.jobOutcome(job2), JobOutcome::Completed);
    server.stop();
    server.stop();
}

TEST(ServerBounds, RetiredAndNeverIssuedJobIdsAreSafe)
{
    const RobotModel robot = model::makeSerialChain(3);
    const auto reqs = randomRequests(robot, 2, 19);
    std::vector<DynamicsResult> results(2);

    EchoBackend backend(robot);
    DynamicsServer server(backend);
    const int job =
        server.submit(FunctionType::FD, reqs.data(), 2, results.data());
    server.drain();
    server.drain(); // second drain retires the record

    // Retired id: done/zeroed.
    EXPECT_TRUE(server.jobDone(job));
    EXPECT_EQ(server.jobUs(job), 0.0);
    EXPECT_EQ(server.jobStats(job).total_us, 0.0);
    EXPECT_EQ(server.jobDoneAtUs(job), 0.0);
    EXPECT_FALSE(server.jobMissedDeadline(job));
    EXPECT_EQ(server.jobOutcome(job), JobOutcome::Completed);
    server.wait(job); // returns immediately

    // Never-issued ids (too large, negative): same contract, sync
    // and async mode, including wait() which must not hang.
    for (const int bogus : {job + 100, -1, -12345}) {
        EXPECT_TRUE(server.jobDone(bogus));
        EXPECT_EQ(server.jobUs(bogus), 0.0);
        EXPECT_EQ(server.jobStats(bogus).total_us, 0.0);
        EXPECT_EQ(server.jobDoneAtUs(bogus), 0.0);
        EXPECT_FALSE(server.jobMissedDeadline(bogus));
        EXPECT_EQ(server.jobOutcome(bogus), JobOutcome::Completed);
        server.wait(bogus);
    }
    server.start();
    for (const int bogus : {job + 100, -1}) {
        EXPECT_TRUE(server.jobDone(bogus));
        server.wait(bogus);
    }
    server.stop();
}

// ---------------------------------------------------------------------
// Allocation behavior
// ---------------------------------------------------------------------

TEST(FaultInjectingBackend, SteadyStateSubmissionStaysAllocationFree)
{
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend inner(robot, 4);
    FaultPlan plan;
    plan.seed = 3;
    plan.latency_spike_prob = 0.5;
    plan.latency_spike_us = 100.0; // stats-only: spike_wall = false
    plan.transient_fail_prob = 0.2;
    plan.corrupt_prob = 0.2;
    FaultInjectingBackend backend(inner, plan);

    const auto reqs = randomRequests(robot, 24, 77);
    std::vector<DynamicsResult> results(24);
    BatchStats stats;

    // Warm up: sizes staging, engine outputs and result storage.
    for (int i = 0; i < 4; ++i) {
        backend.submit(FunctionType::DeltaFD, reqs.data(), 24,
                       results.data(), &stats);
        backend.submit(FunctionType::FD, reqs.data(), 24, results.data(),
                       &stats);
    }

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int rep = 0; rep < 8; ++rep) {
        backend.submit(FunctionType::DeltaFD, reqs.data(), 24,
                       results.data(), &stats);
        backend.submit(FunctionType::FD, reqs.data(), 24, results.data(),
                       &stats);
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "fault decorator added steady-state allocations";
}

} // namespace
