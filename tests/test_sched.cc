/**
 * @file
 * Tests for the QoS scheduling subsystem (src/runtime/sched/):
 *
 *  - policy unit picks on a fake queue view (EDF order, coalescing
 *    caps, steal eligibility);
 *  - the acceptance invariant: under the default FIFO policy the
 *    synchronous drain() path stays bitwise-identical — results AND
 *    accounting — to the async worker path;
 *  - EDF pops the earliest-deadline queued item instead of front();
 *  - the coalescer merges small same-function flat batches from
 *    different clients into one backend batch and splits the merged
 *    BatchStats back per job;
 *  - an idle lane steals queued flat work from a lane stuck behind a
 *    long serial-stage job (and never steals the serial job itself);
 *  - starvation/fairness property: with a saturating bulk client
 *    under EDF, every deadline-tagged job completes and lands in
 *    exactly one of SchedStats::deadline_met / deadline_misses — no
 *    job is dropped or parked.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>
#include <vector>

#include "app/scheduler.h"
#include "model/builders.h"
#include "perf/timing.h"
#include "runtime/sched/policy.h"
#include "runtime/server.h"
#include "test_support.h"

namespace {

using namespace dadu;
using dadu::model::RobotModel;
using dadu::runtime::BatchStats;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::FunctionType;
using dadu::runtime::sched::JobTag;
using dadu::runtime::sched::kNoDeadline;
using dadu::runtime::sched::PolicyKind;
using dadu::runtime::sched::SchedConfig;
using dadu::runtime::sched::SchedStats;
using dadu::tests::expectBitwiseEqual;
using dadu::tests::randomRequests;

/**
 * Modeled-cost backend: batch makespan = base + count * per_task in
 * backend (virtual) time; echoes q̇ as q̈; records every batch size in
 * submission order — the deterministic probe for pop order, merge
 * shapes and steal targets.
 */
class RecordingBackend : public runtime::DynamicsBackend
{
  public:
    RecordingBackend(const RobotModel &robot, double base_us,
                     double per_task_us)
        : robot_(robot), base_us_(base_us), per_task_us_(per_task_us)
    {}

    const char *name() const override { return "recording"; }
    const RobotModel &robot() const override { return robot_; }
    bool offloaded() const override { return true; }

    std::unique_ptr<runtime::DynamicsBackend> clone() const override
    {
        return std::make_unique<RecordingBackend>(robot_, base_us_,
                                                  per_task_us_);
    }

    runtime::SubmitStatus
    submit(FunctionType fn, const DynamicsRequest *requests,
           std::size_t count, DynamicsResult *results,
           BatchStats *stats) override
    {
        for (std::size_t i = 0; i < count; ++i) {
            results[i].qdd = requests[i].qd;
            // ∆FD also produces derivative matrices; write a marker
            // so tests can detect fields leaking between batches.
            if (fn == FunctionType::DeltaFD)
                results[i].dqdd_dq = linalg::MatrixX::identity(2);
        }
        batch_counts_.push_back(count);
        if (wall_us_per_batch_ > 0.0) {
            in_batch_.store(true, std::memory_order_release);
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<long>(wall_us_per_batch_)));
            in_batch_.store(false, std::memory_order_release);
        }
        if (stats) {
            *stats = BatchStats{};
            stats->total_us = base_us_ + count * per_task_us_;
            stats->latency_us =
                count ? stats->total_us / count : 0.0;
            stats->throughput_mtasks =
                stats->total_us > 0.0 ? count / stats->total_us : 0.0;
        }
        return runtime::SubmitStatus::Ok;
    }

    /** Make batches take real wall time (steal/starvation tests). */
    void setWallUsPerBatch(double us) { wall_us_per_batch_ = us; }
    bool inBatch() const
    {
        return in_batch_.load(std::memory_order_acquire);
    }

    const std::vector<std::size_t> &batchCounts() const
    {
        return batch_counts_;
    }

  private:
    const RobotModel &robot_;
    double base_us_, per_task_us_;
    double wall_us_per_batch_ = 0.0;
    std::atomic<bool> in_batch_{false};
    std::vector<std::size_t> batch_counts_;
};

// ---------------------------------------------------------------------
// Policy unit picks on a fake queue view
// ---------------------------------------------------------------------

/** Hand-built QueueView for exercising policies without a server. */
class FakeQueue : public runtime::sched::QueueView
{
  public:
    explicit FakeQueue(int lanes) : items_(lanes) {}

    void
    push(int lane, runtime::sched::ItemView item)
    {
        item.seq = next_seq_++;
        items_[lane].push_back(item);
    }

    int lanes() const override
    {
        return static_cast<int>(items_.size());
    }
    std::size_t depth(int lane) const override
    {
        return items_[lane].size();
    }
    runtime::sched::ItemView item(int lane,
                                  std::size_t pos) const override
    {
        return items_[lane][pos];
    }
    std::size_t flatCount(int lane) const override
    {
        std::size_t n = 0;
        for (const auto &it : items_[lane])
            n += it.flat ? 1 : 0;
        return n;
    }

  private:
    std::vector<std::vector<runtime::sched::ItemView>> items_;
    std::uint64_t next_seq_ = 0;
};

runtime::sched::ItemView
flatItem(FunctionType fn, std::size_t count,
         double deadline = kNoDeadline, int priority = 0)
{
    runtime::sched::ItemView v;
    v.fn = fn;
    v.count = count;
    v.deadline_us = deadline;
    v.priority = priority;
    v.flat = true;
    return v;
}

TEST(SchedPolicy, EdfPicksDeadlineThenPriorityThenFifo)
{
    FakeQueue q(1);
    q.push(0, flatItem(FunctionType::FD, 8));                    // seq 0
    q.push(0, flatItem(FunctionType::FD, 8, 900.0));             // seq 1
    q.push(0, flatItem(FunctionType::FD, 8, 500.0));             // seq 2
    q.push(0, flatItem(FunctionType::FD, 8, 500.0, /*prio=*/3)); // seq 3

    SchedConfig edf_cfg;
    edf_cfg.kind = PolicyKind::Edf;
    auto edf = runtime::sched::makePolicy(edf_cfg);
    runtime::sched::Pick pick;
    ASSERT_TRUE(edf->pick(q, 0, pick));
    EXPECT_EQ(pick.lane, 0);
    ASSERT_EQ(pick.positions.size(), 1u);
    // Equal deadlines: the higher-priority item wins; earlier
    // deadlines beat later ones; untagged work goes last.
    EXPECT_EQ(pick.positions[0], 3u);

    auto fifo = runtime::sched::makePolicy(SchedConfig{});
    ASSERT_TRUE(fifo->pick(q, 0, pick));
    EXPECT_EQ(pick.positions[0], 0u);
    EXPECT_FALSE(fifo->crossLane());
}

TEST(SchedPolicy, CoalesceMergesOnlySmallSameFnFlatWithinCaps)
{
    SchedConfig cfg;
    cfg.coalesce = true;
    cfg.coalesce_only_below = 16;
    cfg.coalesce_max_tasks = 20;
    FakeQueue q(1);
    q.push(0, flatItem(FunctionType::FD, 4));   // primary
    q.push(0, flatItem(FunctionType::FD, 6));   // merges (total 10)
    q.push(0, flatItem(FunctionType::Minv, 4)); // other fn: skipped
    q.push(0, flatItem(FunctionType::FD, 64));  // too big: skipped
    {
        auto serial = flatItem(FunctionType::FD, 4);
        serial.flat = false; // serial-stage item: never merged
        q.push(0, serial);
    }
    q.push(0, flatItem(FunctionType::FD, 12)); // would bust max_tasks
    q.push(0, flatItem(FunctionType::FD, 8));  // merges (total 18)

    auto policy = runtime::sched::makePolicy(cfg);
    runtime::sched::Pick pick;
    ASSERT_TRUE(policy->pick(q, 0, pick));
    ASSERT_EQ(pick.positions.size(), 3u);
    EXPECT_EQ(pick.positions[0], 0u);
    EXPECT_EQ(pick.positions[1], 1u);
    EXPECT_EQ(pick.positions[2], 6u);
}

TEST(SchedPolicy, StealTakesFlatWorkOnlyAndOnlyWhenIdle)
{
    SchedConfig cfg;
    cfg.steal = true;
    FakeQueue q(2);
    {
        auto serial = flatItem(FunctionType::FD, 4, 100.0);
        serial.flat = false;
        q.push(0, serial); // urgent but serial: not stealable
    }
    q.push(0, flatItem(FunctionType::FD, 8, 900.0));
    q.push(0, flatItem(FunctionType::FD, 8, 500.0));

    auto policy = runtime::sched::makePolicy(cfg);
    EXPECT_TRUE(policy->crossLane());
    runtime::sched::Pick pick;
    // Lane 1 is empty: steals the earliest-deadline FLAT item of 0.
    ASSERT_TRUE(policy->pick(q, 1, pick));
    EXPECT_EQ(pick.lane, 0);
    ASSERT_EQ(pick.positions.size(), 1u);
    EXPECT_EQ(pick.positions[0], 2u);
    // Lane 0 serves its own queue (FIFO base): no steal.
    ASSERT_TRUE(policy->pick(q, 0, pick));
    EXPECT_EQ(pick.lane, 0);
    EXPECT_EQ(pick.positions[0], 0u);

    // A queue with only serial work offers nothing to a thief.
    FakeQueue q2(2);
    auto serial = flatItem(FunctionType::FD, 4);
    serial.flat = false;
    q2.push(0, serial);
    EXPECT_FALSE(policy->pick(q2, 1, pick));
}

// ---------------------------------------------------------------------
// Acceptance: default-FIFO sync drain() == async path, bitwise
// ---------------------------------------------------------------------

namespace doubling {

void
advance(void *ctx, int /*next_stage*/, const DynamicsResult *results,
        DynamicsRequest *requests, std::size_t points)
{
    ++*static_cast<int *>(ctx);
    for (std::size_t p = 0; p < points; ++p) {
        requests[p].qd = results[p].qdd;
        for (std::size_t j = 0; j < requests[p].qd.size(); ++j)
            requests[p].qd[j] *= 2.0;
    }
}

} // namespace doubling

TEST(SchedQos, FifoSyncDrainBitwiseIdenticalToAsync)
{
    // The same deterministic job set — flat batches on both lanes, a
    // sharded batch, a serial-stage job — queued identically on two
    // 2-lane servers; one drains synchronously, the other executes
    // on worker threads. Default FIFO must make results AND interval
    // accounting bitwise-identical.
    const RobotModel robot = model::makeHyq();
    const auto flat_a = randomRequests(robot, 6, 1);
    const auto flat_b = randomRequests(robot, 9, 2);
    const auto shard_src = randomRequests(robot, 24, 3);
    const auto serial_src = randomRequests(robot, 5, 4);

    struct Run
    {
        runtime::ServerStats stats;
        SchedStats sstats;
        std::vector<DynamicsResult> ra, rb, rs, rr;
        double job_us[4] = {0, 0, 0, 0};
        int advances = 0;
    };
    auto execute = [&](bool async) {
        Run run;
        RecordingBackend b0(robot, 5.0, 1.0);
        auto b1 = b0.clone();
        runtime::DynamicsServer server(b0);
        server.addBackend(*b1);
        run.ra.resize(6);
        run.rb.resize(9);
        run.rs.resize(24);
        run.rr.resize(5);
        auto serial_req = serial_src;
        // Queue everything BEFORE execution starts, so the sharding
        // water-filling sees identical lane loads on both paths.
        const int ja = server.submit(FunctionType::FD, flat_a.data(), 6,
                                     run.ra.data(), 0);
        const int jb = server.submit(FunctionType::FD, flat_b.data(), 9,
                                     run.rb.data(), 1);
        const int js = server.submitSharded(
            FunctionType::DeltaFD, shard_src.data(), 24, run.rs.data());
        const int jr = server.submitSerialStages(
            FunctionType::FD, serial_req.data(), 5, 3,
            &doubling::advance, &run.advances, run.rr.data(), 0);
        if (async) {
            server.start();
            server.stop();
        }
        server.drain(&run.stats, &run.sstats);
        const int ids[4] = {ja, jb, js, jr};
        for (int i = 0; i < 4; ++i)
            run.job_us[i] = server.jobUs(ids[i]);
        return run;
    };

    const Run sync = execute(false);
    const Run async = execute(true);

    EXPECT_EQ(sync.advances, 2);
    EXPECT_EQ(async.advances, 2);
    EXPECT_DOUBLE_EQ(sync.stats.busy_us, async.stats.busy_us);
    EXPECT_DOUBLE_EQ(sync.stats.makespan_us, async.stats.makespan_us);
    EXPECT_EQ(sync.stats.jobs, async.stats.jobs);
    EXPECT_EQ(sync.stats.batches, async.stats.batches);
    EXPECT_EQ(sync.stats.tasks, async.stats.tasks);
    EXPECT_EQ(sync.sstats.picks, async.sstats.picks);
    EXPECT_EQ(sync.sstats.coalesced_batches, 0u);
    EXPECT_EQ(async.sstats.coalesced_batches, 0u);
    EXPECT_EQ(sync.sstats.steals, 0u);
    EXPECT_EQ(async.sstats.steals, 0u);
    for (int i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(sync.job_us[i], async.job_us[i]);
    for (int i = 0; i < 6; ++i)
        expectBitwiseEqual(sync.ra[i].qdd, async.ra[i].qdd);
    for (int i = 0; i < 9; ++i)
        expectBitwiseEqual(sync.rb[i].qdd, async.rb[i].qdd);
    for (int i = 0; i < 24; ++i)
        expectBitwiseEqual(sync.rs[i].qdd, async.rs[i].qdd);
    for (int i = 0; i < 5; ++i)
        expectBitwiseEqual(sync.rr[i].qdd, async.rr[i].qdd);
}

// ---------------------------------------------------------------------
// EDF through the server
// ---------------------------------------------------------------------

TEST(SchedQos, EdfPopsEarliestDeadlineBeforeQueuedBulk)
{
    const RobotModel robot = model::makeHyq();
    RecordingBackend backend(robot, 5.0, 1.0);
    runtime::DynamicsServer server(backend);
    SchedConfig edf_cfg;
    edf_cfg.kind = PolicyKind::Edf;
    server.setPolicy(edf_cfg);

    auto bulk = randomRequests(robot, 9, 11);
    auto crit = randomRequests(robot, 3, 12);
    std::vector<DynamicsResult> bulk_res(9), bulk2_res(9), crit_res(3);
    server.submit(FunctionType::FD, bulk.data(), 9, bulk_res.data());
    JobTag tag;
    tag.deadline_us = perf::nowUs() + 1e7; // generous: always met
    const int crit_job = server.submit(FunctionType::FD, crit.data(), 3,
                                       crit_res.data(), 0, tag);
    server.submit(FunctionType::FD, bulk.data(), 9, bulk2_res.data());

    runtime::ServerStats stats;
    SchedStats sstats;
    server.drain(&stats, &sstats);

    // The deadline-tagged batch (3 tasks) jumped both bulk batches.
    ASSERT_EQ(backend.batchCounts().size(), 3u);
    EXPECT_EQ(backend.batchCounts()[0], 3u);
    EXPECT_EQ(backend.batchCounts()[1], 9u);
    EXPECT_EQ(backend.batchCounts()[2], 9u);
    EXPECT_EQ(sstats.deadline_met, 1u);
    EXPECT_EQ(sstats.deadline_misses, 0u);
    EXPECT_FALSE(server.jobMissedDeadline(crit_job));
    for (int i = 0; i < 3; ++i)
        expectBitwiseEqual(crit_res[i].qdd, crit[i].qd);
}

// ---------------------------------------------------------------------
// Coalescing through the server
// ---------------------------------------------------------------------

TEST(SchedQos, CoalesceMergesSmallFlatBatchesAndSplitsStats)
{
    const RobotModel robot = model::makeHyq();
    RecordingBackend backend(robot, 5.0, 1.0);
    runtime::DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.coalesce = true;
    cfg.coalesce_only_below = 64;
    server.setPolicy(cfg);

    // Three "clients" queue small FD batches plus one Minv batch and
    // one big FD batch on the same lane.
    auto r1 = randomRequests(robot, 4, 21);
    auto r2 = randomRequests(robot, 5, 22);
    auto r3 = randomRequests(robot, 6, 23);
    auto rm = randomRequests(robot, 4, 24);
    auto rbig = randomRequests(robot, 100, 25);
    std::vector<DynamicsResult> s1(4), s2(5), s3(6), sm(4), sbig(100);
    const int j1 = server.submit(FunctionType::FD, r1.data(), 4, s1.data());
    const int j2 = server.submit(FunctionType::FD, r2.data(), 5, s2.data());
    const int jm =
        server.submit(FunctionType::Minv, rm.data(), 4, sm.data());
    const int j3 = server.submit(FunctionType::FD, r3.data(), 6, s3.data());
    const int jbig =
        server.submit(FunctionType::FD, rbig.data(), 100, sbig.data());

    runtime::ServerStats stats;
    SchedStats sstats;
    server.drain(&stats, &sstats);

    // One merged 15-task FD batch (4+5+6), then Minv, then the big
    // batch that exceeded coalesce_only_below.
    ASSERT_EQ(backend.batchCounts().size(), 3u);
    EXPECT_EQ(backend.batchCounts()[0], 15u);
    EXPECT_EQ(backend.batchCounts()[1], 4u);
    EXPECT_EQ(backend.batchCounts()[2], 100u);
    EXPECT_EQ(sstats.coalesced_batches, 1u);
    EXPECT_EQ(sstats.coalesced_items, 2u);
    EXPECT_EQ(stats.batches, 3u);
    EXPECT_EQ(stats.jobs, 5u);
    EXPECT_EQ(stats.tasks, 4u + 5u + 6u + 4u + 100u);

    // The merged batch cost base + 15 tasks = 20 backend-µs; each
    // job is charged its task-proportional share.
    const double merged_us = 5.0 + 15.0 * 1.0;
    EXPECT_DOUBLE_EQ(server.jobUs(j1), merged_us * (4.0 / 15.0));
    EXPECT_DOUBLE_EQ(server.jobUs(j2), merged_us * (5.0 / 15.0));
    EXPECT_DOUBLE_EQ(server.jobUs(j3), merged_us * (6.0 / 15.0));
    EXPECT_DOUBLE_EQ(server.jobUs(jm), 5.0 + 4.0);
    EXPECT_DOUBLE_EQ(server.jobUs(jbig), 5.0 + 100.0);
    EXPECT_DOUBLE_EQ(stats.busy_us, merged_us + 9.0 + 105.0);

    // Every client still got exactly its own results.
    for (int i = 0; i < 4; ++i)
        expectBitwiseEqual(s1[i].qdd, r1[i].qd);
    for (int i = 0; i < 5; ++i)
        expectBitwiseEqual(s2[i].qdd, r2[i].qd);
    for (int i = 0; i < 6; ++i)
        expectBitwiseEqual(s3[i].qdd, r3[i].qd);
    for (int i = 0; i < 4; ++i)
        expectBitwiseEqual(sm[i].qdd, rm[i].qd);
    for (int i = 0; i < 100; ++i)
        expectBitwiseEqual(sbig[i].qdd, rbig[i].qd);

    // Regression: the lane's merged-batch staging is reused across
    // batches, and a later merged batch of a narrower function must
    // not leak the earlier batch's untouched fields into its
    // clients' results. Seed the staging with a ∆FD merge (fills
    // the derivative matrices), then merge two FD jobs at the same
    // offsets: their results must carry FD's q̈ and nothing else.
    std::vector<DynamicsResult> t1(4), t2(5);
    server.submit(FunctionType::DeltaFD, r1.data(), 4, t1.data());
    server.submit(FunctionType::DeltaFD, r2.data(), 5, t2.data());
    server.drain();
    std::vector<DynamicsResult> u1(4), u2(5);
    server.submit(FunctionType::FD, r1.data(), 4, u1.data());
    server.submit(FunctionType::FD, r2.data(), 5, u2.data());
    server.drain();
    for (int i = 0; i < 4; ++i) {
        expectBitwiseEqual(u1[i].qdd, r1[i].qd);
        EXPECT_EQ(u1[i].dqdd_dq.rows(), 0u)
            << "stale staging field leaked into a merged FD result";
    }
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(u2[i].dqdd_dq.rows(), 0u);
}

// ---------------------------------------------------------------------
// Work stealing through the server
// ---------------------------------------------------------------------

TEST(SchedQos, IdleLaneStealsQueuedFlatWorkBehindSerialJob)
{
    const RobotModel robot = model::makeHyq();
    RecordingBackend b0(robot, 5.0, 1.0);
    RecordingBackend b1(robot, 5.0, 1.0);
    b0.setWallUsPerBatch(30000.0); // 30 ms per batch: lane 0 is slow
    runtime::DynamicsServer server(b0);
    server.addBackend(b1);
    SchedConfig cfg;
    cfg.steal = true;
    server.setPolicy(cfg);
    server.start();

    // A 4-stage serial job occupies lane 0...
    auto serial_req = randomRequests(robot, 4, 31);
    std::vector<DynamicsResult> serial_res(4);
    int advances = 0;
    const int js = server.submitSerialStages(
        FunctionType::FD, serial_req.data(), 4, 4, &doubling::advance,
        &advances, serial_res.data(), 0);
    // ... wait until its first batch is really executing, then queue
    // flat work behind it on the SAME lane.
    while (!b0.inBatch())
        std::this_thread::yield();
    auto flat = randomRequests(robot, 6, 32);
    std::vector<DynamicsResult> flat_res(6);
    const int jf = server.submit(FunctionType::FD, flat.data(), 6,
                                 flat_res.data(), 0);
    server.wait(jf);
    server.wait(js);
    server.stop();

    runtime::ServerStats stats;
    SchedStats sstats;
    server.drain(&stats, &sstats);

    // The idle lane pulled the flat job; the serial job's four
    // stages all stayed on lane 0.
    ASSERT_EQ(b1.batchCounts().size(), 1u);
    EXPECT_EQ(b1.batchCounts()[0], 6u);
    EXPECT_EQ(b0.batchCounts().size(), 4u);
    EXPECT_EQ(sstats.steals, 1u);
    EXPECT_EQ(advances, 3);
    for (int i = 0; i < 6; ++i)
        expectBitwiseEqual(flat_res[i].qdd, flat[i].qd);
    // Load accounting drained to zero on both lanes.
    EXPECT_DOUBLE_EQ(server.laneLoadWeight(0), 0.0);
    EXPECT_DOUBLE_EQ(server.laneLoadWeight(1), 0.0);
}

// ---------------------------------------------------------------------
// Starvation / fairness property under saturation
// ---------------------------------------------------------------------

TEST(SchedQos, EveryTaggedJobCompletesOrIsReportedMissed)
{
    // A saturating bulk client keeps the (EDF, 1-lane) server's
    // queue full with untagged work while a latency-critical client
    // submits deadline-tagged jobs, some with deadlines that cannot
    // be met (already in the past) and some that trivially can.
    // Property: every tagged job completes (none dropped or parked),
    // and each lands in exactly one of deadline_met/deadline_misses,
    // consistently with its own completion timestamp.
    const RobotModel robot = model::makeHyq();
    RecordingBackend backend(robot, 1.0, 1.0);
    backend.setWallUsPerBatch(300.0); // real wall time per batch
    runtime::DynamicsServer server(backend);
    SchedConfig edf_cfg;
    edf_cfg.kind = PolicyKind::Edf;
    server.setPolicy(edf_cfg);
    server.start();

    constexpr int kBulkJobs = 24, kTagged = 16, kBulkN = 16;
    auto bulk_req = randomRequests(robot, kBulkN, 41);
    auto crit_req = randomRequests(robot, 2, 42);

    std::vector<std::vector<DynamicsResult>> bulk_res(
        kBulkJobs, std::vector<DynamicsResult>(kBulkN));
    std::vector<std::vector<DynamicsResult>> crit_res(
        kTagged, std::vector<DynamicsResult>(2));
    std::vector<int> tagged_jobs(kTagged);
    std::vector<double> tagged_deadlines(kTagged);

    std::thread bulk([&] {
        for (int i = 0; i < kBulkJobs; ++i)
            server.submit(FunctionType::FD, bulk_req.data(), kBulkN,
                          bulk_res[i].data());
    });
    std::thread critical([&] {
        for (int i = 0; i < kTagged; ++i) {
            JobTag tag;
            // Alternate infeasible (already passed) and trivially
            // feasible deadlines, so both buckets are exercised
            // deterministically.
            tag.deadline_us = i % 2 == 0 ? perf::nowUs() - 1000.0
                                         : perf::nowUs() + 60e6;
            tagged_deadlines[i] = tag.deadline_us;
            tagged_jobs[i] = server.submit(FunctionType::FD,
                                           crit_req.data(), 2,
                                           crit_res[i].data(), 0, tag);
        }
    });
    bulk.join();
    critical.join();
    server.stop();

    // No tagged job was dropped or parked: all complete...
    std::size_t missed = 0, met = 0;
    for (int i = 0; i < kTagged; ++i) {
        ASSERT_TRUE(server.jobDone(tagged_jobs[i]));
        const double done_at = server.jobDoneAtUs(tagged_jobs[i]);
        ASSERT_GT(done_at, 0.0);
        // ... and each is bucketed consistently with its own
        // completion timestamp.
        const bool late = done_at > tagged_deadlines[i];
        EXPECT_EQ(server.jobMissedDeadline(tagged_jobs[i]), late);
        (late ? missed : met) += 1;
        for (int p = 0; p < 2; ++p)
            expectBitwiseEqual(crit_res[i][p].qdd, crit_req[p].qd);
    }
    // The infeasible half must have missed; the 60-second half must
    // have made it (the whole run takes well under a minute).
    EXPECT_GE(missed, static_cast<std::size_t>(kTagged / 2));
    EXPECT_GE(met, 1u);

    runtime::ServerStats stats;
    SchedStats sstats;
    server.drain(&stats, &sstats);
    EXPECT_EQ(sstats.deadline_met + sstats.deadline_misses,
              static_cast<std::size_t>(kTagged));
    EXPECT_EQ(sstats.deadline_misses, missed);
    EXPECT_EQ(sstats.deadline_met, met);
    EXPECT_EQ(stats.jobs, static_cast<std::size_t>(kBulkJobs + kTagged));
}

// ---------------------------------------------------------------------
// Deadline tags through sharded and serial-stage jobs
// ---------------------------------------------------------------------

TEST(SchedQos, DeadlineTagPropagatesToEveryShardUnderEdf)
{
    // Untagged bulk queued on BOTH lanes, then one tagged sharded
    // job: if the tag reaches every shard, EDF pops the shard ahead
    // of the bulk batch on each lane.
    const auto robot = model::makeSerialChain(3);
    RecordingBackend lane0(robot, 5.0, 2.0);
    RecordingBackend lane1(robot, 5.0, 2.0);
    runtime::DynamicsServer server(lane0);
    server.addBackend(lane1);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    server.setPolicy(cfg);

    const auto bulk = randomRequests(robot, 32, 1);
    std::vector<DynamicsResult> bulk_res0(32), bulk_res1(32);
    server.submit(FunctionType::FD, bulk.data(), 32, bulk_res0.data(),
                  0);
    server.submit(FunctionType::FD, bulk.data(), 32, bulk_res1.data(),
                  1);

    const auto tagged = randomRequests(robot, 12, 2);
    std::vector<DynamicsResult> tagged_res(12);
    JobTag tag;
    tag.deadline_us = perf::nowUs() + 1e6;
    const int job = server.submitSharded(FunctionType::FD,
                                         tagged.data(), 12,
                                         tagged_res.data(), tag);
    server.drain();

    EXPECT_TRUE(server.jobDone(job));
    EXPECT_FALSE(server.jobMissedDeadline(job));
    // Equal lane loads water-fill 6/6; each lane must have served
    // its 6-task shard BEFORE its 32-task bulk batch.
    ASSERT_GE(lane0.batchCounts().size(), 2u);
    ASSERT_GE(lane1.batchCounts().size(), 2u);
    EXPECT_EQ(lane0.batchCounts()[0], 6u);
    EXPECT_EQ(lane1.batchCounts()[0], 6u);
    EXPECT_EQ(lane0.batchCounts()[1], 32u);
    EXPECT_EQ(lane1.batchCounts()[1], 32u);
}

TEST(SchedQos, SerialStageResubmissionsKeepTheDeadline)
{
    // A tagged 3-stage serial job against queued untagged bulk on
    // one lane: every stage re-submission must carry the tag, so
    // stages 2 and 3 also overtake the bulk batches under EDF.
    const auto robot = model::makeSerialChain(3);
    RecordingBackend lane(robot, 5.0, 2.0);
    runtime::DynamicsServer server(lane);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    server.setPolicy(cfg);

    const auto bulk = randomRequests(robot, 16, 3);
    std::vector<DynamicsResult> bulk_res0(16), bulk_res1(16);
    server.submit(FunctionType::FD, bulk.data(), 16, bulk_res0.data());
    server.submit(FunctionType::FD, bulk.data(), 16, bulk_res1.data());

    auto serial = randomRequests(robot, 4, 4);
    std::vector<DynamicsResult> serial_res(4);
    JobTag tag;
    tag.deadline_us = perf::nowUs() + 1e6;
    const int job = server.submitSerialStages(
        FunctionType::FD, serial.data(), 4, 3, nullptr, nullptr,
        serial_res.data(), 0, tag);
    server.drain();

    EXPECT_TRUE(server.jobDone(job));
    // All three 4-task stages run before the two 16-task bulk
    // batches (the first pick happens before the serial job's later
    // stages exist, so this only holds when the tag propagates to
    // every stage re-submission).
    const std::vector<std::size_t> &counts = lane.batchCounts();
    ASSERT_EQ(counts.size(), 5u);
    EXPECT_EQ(counts[0], 4u);
    EXPECT_EQ(counts[1], 4u);
    EXPECT_EQ(counts[2], 4u);
    EXPECT_EQ(counts[3], 16u);
    EXPECT_EQ(counts[4], 16u);
}

TEST(SchedQos, LateShardedOrSerialJobIsMissedExactlyOnce)
{
    // A sharded job completes when its LAST shard does, so a
    // deadline miss marks the whole job — once, not per shard.
    const auto robot = model::makeSerialChain(3);
    RecordingBackend lane0(robot, 5.0, 2.0);
    RecordingBackend lane1(robot, 5.0, 2.0);
    runtime::DynamicsServer server(lane0);
    server.addBackend(lane1);

    const auto reqs = randomRequests(robot, 12, 5);
    std::vector<DynamicsResult> res(12);
    JobTag late;
    late.deadline_us = perf::nowUs() - 1000.0; // already in the past
    const int missed = server.submitSharded(
        FunctionType::FD, reqs.data(), 12, res.data(), late);
    runtime::sched::SchedStats s1;
    server.drain(nullptr, &s1);
    EXPECT_TRUE(server.jobMissedDeadline(missed));
    EXPECT_EQ(s1.deadline_misses, 1u);
    EXPECT_EQ(s1.deadline_met, 0u);

    JobTag generous;
    generous.deadline_us = perf::nowUs() + 60e6;
    auto serial = randomRequests(robot, 4, 6);
    std::vector<DynamicsResult> serial_res(4);
    const int met = server.submitSerialStages(
        FunctionType::FD, serial.data(), 4, 3, nullptr, nullptr,
        serial_res.data(), 0, generous);
    JobTag late2;
    late2.deadline_us = perf::nowUs() - 1000.0;
    auto serial2 = randomRequests(robot, 4, 7);
    std::vector<DynamicsResult> serial2_res(4);
    const int missed2 = server.submitSerialStages(
        FunctionType::FD, serial2.data(), 4, 3, nullptr, nullptr,
        serial2_res.data(), 0, late2);
    runtime::sched::SchedStats s2;
    server.drain(nullptr, &s2);
    EXPECT_FALSE(server.jobMissedDeadline(met));
    EXPECT_TRUE(server.jobMissedDeadline(missed2));
    EXPECT_EQ(s2.deadline_met, 1u);
    EXPECT_EQ(s2.deadline_misses, 1u);
}

// ---------------------------------------------------------------------
// predictedAdmissionUs vs executed makespan under the QoS policies
// ---------------------------------------------------------------------

TEST(SchedQos, PredictedAdmissionMatchesExecutionUnderEdfCoalesce)
{
    // Single modeled lane (no per-batch base cost, 2 µs/task) under
    // EDF + coalescing: the closed-form admission prediction for a
    // job behind a known queue must match the executed makespan in
    // backend time. Coalescing merges the small queued jobs but
    // preserves total task time, so the prediction stays tight.
    const auto robot = model::makeSerialChain(3);
    RecordingBackend lane(robot, 0.0, 2.0);
    runtime::DynamicsServer server(lane);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    cfg.coalesce = true;
    server.setPolicy(cfg);

    const auto small = randomRequests(robot, 8, 8);
    std::vector<std::vector<DynamicsResult>> small_res(
        6, std::vector<DynamicsResult>(8));
    for (int i = 0; i < 6; ++i)
        server.submit(FunctionType::FD, small.data(), 8,
                      small_res[i].data());

    const double queued = server.laneLoadWeight(0);
    EXPECT_DOUBLE_EQ(queued, 48.0); // 6 x 8 FD-equivalent tasks

    const int points = 16;
    const double predicted = app::predictedAdmissionUs(
        queued, points, 1, 2.0, 0.0,
        runtime::sched::functionWeight(FunctionType::FD));

    const auto probe = randomRequests(robot, points, 9);
    std::vector<DynamicsResult> probe_res(points);
    server.submit(FunctionType::FD, probe.data(), points,
                  probe_res.data());
    runtime::ServerStats stats;
    runtime::sched::SchedStats sstats;
    server.drain(&stats, &sstats);

    // Executed makespan in backend time: every queued task plus the
    // probe, all on the one lane.
    EXPECT_NEAR(stats.makespan_us, predicted, 0.05 * predicted);
    EXPECT_GT(sstats.coalesced_batches, 0u);
}

TEST(SchedQos, PredictedAdmissionBoundsExecutionWithStealing)
{
    // Two lanes under EDF + coalesce + steal with equal queued bulk:
    // the per-lane prediction cannot anticipate stealing, so it is
    // an upper bound on the executed makespan — but stays within the
    // band a deadline tag needs (stealing at best halves the queue).
    const auto robot = model::makeSerialChain(3);
    RecordingBackend lane0(robot, 0.0, 2.0);
    RecordingBackend lane1(robot, 0.0, 2.0);
    runtime::DynamicsServer server(lane0);
    server.addBackend(lane1);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    cfg.coalesce = true;
    cfg.steal = true;
    server.setPolicy(cfg);

    const auto small = randomRequests(robot, 8, 10);
    std::vector<std::vector<DynamicsResult>> small_res(
        6, std::vector<DynamicsResult>(8));
    for (int i = 0; i < 6; ++i)
        server.submit(FunctionType::FD, small.data(), 8,
                      small_res[i].data(), i % 2);

    double queued = server.laneLoadWeight(0);
    for (int l = 1; l < server.backendCount(); ++l)
        queued = std::min(queued, server.laneLoadWeight(l));
    EXPECT_DOUBLE_EQ(queued, 24.0); // 3 x 8 per lane

    const int points = 16;
    const double predicted = app::predictedAdmissionUs(
        queued, points, 1, 2.0, 0.0,
        runtime::sched::functionWeight(FunctionType::FD));

    const auto probe = randomRequests(robot, points, 11);
    std::vector<DynamicsResult> probe_res(points);
    const int job = server.submit(FunctionType::FD, probe.data(),
                                  points, probe_res.data(),
                                  runtime::DynamicsServer::kLeastLoaded);
    runtime::ServerStats stats;
    server.drain(&stats, nullptr);

    EXPECT_TRUE(server.jobDone(job));
    // Stealing migrates queued work between lanes, so the per-lane
    // prediction is not exact here — in the degenerate synchronous
    // drain the serving lane may pull the OTHER lane's queue ahead
    // of the probe (makespan up to all queued work + the probe).
    // What deadline tagging needs is the slack envelope: a tag of
    // now + 2x prediction must still be met in backend time, and
    // the prediction must not overshoot reality by more than 2x.
    EXPECT_LE(stats.makespan_us, predicted * 2.0);
    EXPECT_GE(stats.makespan_us, predicted * 0.5);
}

// ---------------------------------------------------------------------
// Admission predictor telemetry through the metrics registry
// ---------------------------------------------------------------------

TEST(SchedQos, AdmissionPredictionErrorConverges)
{
    // One modeled lane (no base cost, 10 µs/task, and a real wall
    // time matched to the model: 16 tasks x 10 µs = 160 µs/batch)
    // under EDF with the metrics registry on. Untagged bulk
    // completions calibrate the admission EWMA; tagged jobs then
    // carry a predicted completion whose realized error the registry
    // tracks. With a uniform workload the per-task estimate must
    // converge to the modeled 10 µs and the relative prediction
    // error must stay bounded.
    const auto robot = model::makeSerialChain(3);
    RecordingBackend backend(robot, 0.0, 10.0);
    backend.setWallUsPerBatch(160.0);
    runtime::DynamicsServer server(backend);
    SchedConfig cfg;
    cfg.kind = PolicyKind::Edf;
    cfg.obs.metrics = true;
    server.setPolicy(cfg);
    server.start();

    constexpr int kBulkJobs = 30, kTagged = 12, kN = 16;
    const auto reqs = randomRequests(robot, kN, 21);
    std::vector<std::vector<DynamicsResult>> bulk_res(
        kBulkJobs, std::vector<DynamicsResult>(kN));
    std::vector<std::vector<DynamicsResult>> crit_res(
        kTagged, std::vector<DynamicsResult>(kN));

    // Seed the EWMA with a few untagged completions before any
    // tagged submission, so every tagged job carries a prediction.
    for (int i = 0; i < 4; ++i)
        server.wait(server.submit(FunctionType::FD, reqs.data(), kN,
                                  bulk_res[i].data()));

    std::thread bulk([&] {
        for (int i = 4; i < kBulkJobs; ++i)
            server.submit(FunctionType::FD, reqs.data(), kN,
                          bulk_res[i].data());
    });
    std::thread tagged([&] {
        for (int i = 0; i < kTagged; ++i) {
            JobTag tag;
            tag.deadline_us = perf::nowUs() + 60e6; // generous
            server.wait(server.submit(FunctionType::FD, reqs.data(),
                                      kN, crit_res[i].data(), 0, tag));
        }
    });
    bulk.join();
    tagged.join();
    server.stop();

    const runtime::obs::MetricsRegistry *m = server.metricsRegistry();
    ASSERT_NE(m, nullptr);
    using runtime::obs::Counter;
    using runtime::obs::Gauge;
    // The per-task estimate converged to the modeled 10 µs/task
    // (every batch reports count x 10 µs of backend time).
    EXPECT_GT(m->gaugeSamples(Gauge::TaskUsEwma), 0u);
    EXPECT_NEAR(m->gauge(Gauge::TaskUsEwma), 10.0, 2.0);
    // Every tagged completion contributed an admission sample.
    EXPECT_GE(m->counter(Counter::AdmissionSamples),
              static_cast<std::uint64_t>(10));
    // The realized relative error is live and bounded: the modeled
    // time matches the wall time here, so predictions are within a
    // few multiples of the horizon even with queueing noise.
    EXPECT_GT(m->gauge(Gauge::AdmissionErrRelEwma), 0.0);
    EXPECT_LT(m->gauge(Gauge::AdmissionErrRelEwma), 5.0);
    // All jobs flowed through the registry's counters too.
    EXPECT_EQ(m->counter(Counter::JobsSubmitted),
              static_cast<std::uint64_t>(kBulkJobs + kTagged));
    EXPECT_EQ(m->counter(Counter::JobsCompleted),
              static_cast<std::uint64_t>(kBulkJobs + kTagged));
}

} // namespace
