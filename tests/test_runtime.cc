/**
 * @file
 * Tests for the unified dynamics runtime:
 *
 *  - backend equivalence: CpuBatchedBackend results bitwise-match
 *    the direct algo:: workspace kernels, AcceleratorBackend results
 *    bitwise-match Accelerator::run();
 *  - DynamicsServer: FIFO multi-client accounting, sharding, and the
 *    executable sharded makespan against the closed-form
 *    app::scheduleShardedUs model;
 *  - a counted global allocator shows steady-state CPU-backend
 *    submission performs zero heap allocations;
 *  - a host-driven rollout of flat submits reaches the same results
 *    on every backend.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "accel/accelerator.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/workspace.h"
#include "app/scheduler.h"
#include "model/builders.h"
#include "runtime/backends.h"
#include "runtime/server.h"
#include "test_support.h"

// ---------------------------------------------------------------------
// Counted global allocator (see tests/test_batched.cc): off by
// default, switched on around the measured region only.
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
using dadu::linalg::MatrixX;
using dadu::linalg::VectorX;
using dadu::model::RobotModel;
using dadu::runtime::BatchStats;
using dadu::runtime::DynamicsRequest;
using dadu::runtime::DynamicsResult;
using dadu::runtime::FunctionType;
using dadu::tests::expectBitwiseEqual;
using dadu::tests::randomRequests;

// ---------------------------------------------------------------------
// Backend equivalence
// ---------------------------------------------------------------------

TEST(CpuBatchedBackend, MatchesDirectAlgoCallsBitwise)
{
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend backend(robot, 4);
    const auto reqs = randomRequests(robot, 16, 11);
    std::vector<DynamicsResult> results;

    algo::DynamicsWorkspace ws(robot);
    VectorX qdd;
    algo::FdDerivatives fd;
    MatrixX minv;

    backend.submit(FunctionType::FD, reqs, results);
    for (int i = 0; i < 16; ++i) {
        algo::forwardDynamics(robot, ws, reqs[i].q, reqs[i].qd,
                              reqs[i].qdd_or_tau, qdd);
        expectBitwiseEqual(results[i].qdd, qdd);
    }

    backend.submit(FunctionType::DeltaFD, reqs, results);
    for (int i = 0; i < 16; ++i) {
        algo::fdDerivatives(robot, ws, reqs[i].q, reqs[i].qd,
                            reqs[i].qdd_or_tau, fd);
        expectBitwiseEqual(results[i].qdd, fd.qdd);
        expectBitwiseEqual(results[i].minv, fd.minv);
        expectBitwiseEqual(results[i].dqdd_dq, fd.dqdd_dq);
        expectBitwiseEqual(results[i].dqdd_dqd, fd.dqdd_dqd);
    }

    backend.submit(FunctionType::Minv, reqs, results);
    for (int i = 0; i < 16; ++i) {
        algo::massMatrixInverse(robot, ws, reqs[i].q, minv);
        expectBitwiseEqual(results[i].minv, minv);
    }

    // Non-engine Table I functions route through the reference
    // kernels and must equal the allocating reference calls.
    backend.submit(FunctionType::ID, reqs, results);
    for (int i = 0; i < 16; ++i) {
        const auto ref =
            algo::rnea(robot, reqs[i].q, reqs[i].qd, reqs[i].qdd_or_tau);
        expectBitwiseEqual(results[i].tau, ref.tau);
    }
}

TEST(AcceleratorBackend, MatchesAcceleratorRunBitwise)
{
    const RobotModel robot = model::makeIiwa();
    accel::Accelerator accel(robot);
    runtime::AcceleratorBackend backend(accel);
    const auto reqs = randomRequests(robot, 6, 21);

    for (FunctionType fn : {FunctionType::FD, FunctionType::DeltaFD}) {
        std::vector<DynamicsResult> via_backend;
        BatchStats backend_stats;
        backend.submit(fn, reqs, via_backend, &backend_stats);

        BatchStats direct_stats;
        const auto direct = accel.run(fn, reqs, &direct_stats);
        ASSERT_EQ(direct.size(), reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            expectBitwiseEqual(via_backend[i].qdd, direct[i].qdd);
            if (fn == FunctionType::DeltaFD) {
                expectBitwiseEqual(via_backend[i].dqdd_dq,
                                   direct[i].dqdd_dq);
                expectBitwiseEqual(via_backend[i].dqdd_dqd,
                                   direct[i].dqdd_dqd);
            }
        }
        // Same simulated schedule on both paths.
        EXPECT_EQ(backend_stats.cycles, direct_stats.cycles);
    }
}

TEST(AnalyticBackend, NumericsMatchReferenceAndTimingMatchesEstimate)
{
    const RobotModel robot = model::makeIiwa();
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend backend(accel);
    const auto reqs = randomRequests(robot, 8, 5);

    std::vector<DynamicsResult> results;
    BatchStats stats;
    backend.submit(FunctionType::DeltaFD, reqs, results, &stats);

    algo::DynamicsWorkspace ws(robot);
    algo::FdDerivatives fd;
    for (int i = 0; i < 8; ++i) {
        algo::fdDerivatives(robot, ws, reqs[i].q, reqs[i].qd,
                            reqs[i].qdd_or_tau, fd);
        expectBitwiseEqual(results[i].qdd, fd.qdd);
        expectBitwiseEqual(results[i].dqdd_dq, fd.dqdd_dq);
    }

    const auto est = accel.analytic(FunctionType::DeltaFD);
    const double freq_hz = accel.config().freq_mhz * 1e6;
    const double expect_us =
        (8 * est.ii_cycles + est.latency_cycles) / freq_hz * 1e6;
    EXPECT_NEAR(stats.total_us, expect_us, 1e-9);
}

// ---------------------------------------------------------------------
// Mask validation at submit
// ---------------------------------------------------------------------

TEST(MaskValidation, BackendsRejectInvalidSeedsDeterministically)
{
    // Property test: every backend accepts exactly the seed sets
    // algo::seedValid accepts, rejects the rest with InvalidRequest
    // BEFORE executing anything, and does so deterministically on
    // resubmission. An empty seed means dense and is always Ok.
    const RobotModel robot = model::makeIiwa();
    const int nv = robot.nv();
    runtime::CpuBatchedBackend cpu(robot, 2);
    accel::Accelerator accel_hw(robot);
    runtime::AcceleratorBackend acc(accel_hw);
    accel::Accelerator accel_ana(robot);
    runtime::AnalyticBackend ana(accel_ana);
    runtime::DynamicsBackend *backends[] = {&cpu, &acc, &ana};

    std::mt19937 rng(4242);
    auto reqs = randomRequests(robot, 3, 77);
    std::vector<DynamicsResult> results(3);
    for (int trial = 0; trial < 64; ++trial) {
        // Random seed sets: in-range, out-of-range or duplicated.
        std::vector<int> seed;
        const int len = static_cast<int>(rng() % 5);
        for (int i = 0; i < len; ++i)
            seed.push_back(static_cast<int>(rng() % (nv + 2)) - 1);
        const bool valid = algo::seedValid(seed, nv);
        for (auto &r : reqs)
            r.seed_cols = seed;
        const runtime::SubmitStatus want =
            valid ? runtime::SubmitStatus::Ok
                  : runtime::SubmitStatus::InvalidRequest;
        for (runtime::DynamicsBackend *b : backends) {
            EXPECT_EQ(b->submit(FunctionType::DeltaFD, reqs.data(), 3,
                                results.data()),
                      want)
                << b->name() << " trial " << trial;
            EXPECT_EQ(b->submit(FunctionType::DeltaFD, reqs.data(), 3,
                                results.data()),
                      want)
                << b->name() << " resubmission diverged, trial " << trial;
        }
        // Non-derivative functions ignore the mask entirely.
        for (runtime::DynamicsBackend *b : backends)
            EXPECT_EQ(b->submit(FunctionType::FD, reqs.data(), 3,
                                results.data()),
                      runtime::SubmitStatus::Ok)
                << b->name() << " trial " << trial;
    }
}

TEST(MaskPricing, TimingModelsPriceTheUnionOfLiveColumns)
{
    // A heterogeneously masked ∆FD batch is timed for the union of
    // its live columns, and one dense request times the whole batch
    // dense. The closed form prices exactly that. The cycle-accurate
    // simulator sizes its ∆ submodule streams the same way, but each
    // task still streams only its own live columns, so there the
    // union-masked and the dense batch are upper bounds.
    const RobotModel robot = model::makeAtlas();
    accel::Accelerator accel_hw(robot);
    runtime::AcceleratorBackend acc(accel_hw);
    accel::Accelerator accel_ana(robot);
    runtime::AnalyticBackend ana(accel_ana);

    const std::vector<int> a = {0, 5, 11};
    const std::vector<int> b = {5, 20, 30};
    const std::vector<int> a_or_b = {0, 5, 11, 20, 30};
    auto reqs = randomRequests(robot, 4, 91);
    std::vector<DynamicsResult> results(4);
    // Cycles of the batch with seeds alternating @p even / @p odd;
    // @p dense_first clears request 0's seed.
    const auto cycles = [&](runtime::DynamicsBackend &be,
                            const std::vector<int> &even,
                            const std::vector<int> &odd,
                            bool dense_first = false) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            reqs[i].seed_cols = i % 2 ? odd : even;
        if (dense_first)
            reqs[0].seed_cols.clear();
        runtime::BatchStats stats;
        EXPECT_EQ(be.submit(FunctionType::DeltaFD, reqs.data(), 4,
                            results.data(), &stats),
                  runtime::SubmitStatus::Ok);
        return stats.cycles;
    };

    const std::uint64_t ana_dense = cycles(ana, {}, {});
    const std::uint64_t ana_mixed = cycles(ana, a, b);
    EXPECT_LT(ana_mixed, ana_dense);
    EXPECT_EQ(ana_mixed, cycles(ana, a_or_b, a_or_b));
    EXPECT_EQ(cycles(ana, a, b, true), ana_dense);

    const std::uint64_t acc_dense = cycles(acc, {}, {});
    const std::uint64_t acc_union = cycles(acc, a_or_b, a_or_b);
    const std::uint64_t acc_mixed = cycles(acc, a, b);
    const std::uint64_t acc_one_dense = cycles(acc, a, b, true);
    EXPECT_LT(acc_union, acc_dense);
    EXPECT_LE(acc_mixed, acc_union);
    EXPECT_GT(acc_one_dense, acc_mixed);
    EXPECT_LE(acc_one_dense, acc_dense);
}

TEST(DynamicsServer, InvalidMaskRejectedAtSubmission)
{
    const RobotModel robot = model::makeIiwa();
    runtime::CpuBatchedBackend backend(robot, 2);
    runtime::DynamicsServer server(backend);

    auto reqs = randomRequests(robot, 4, 3);
    for (auto &r : reqs)
        r.seed_cols = {0, 0}; // duplicate index: invalid
    std::vector<DynamicsResult> res(4);
    const int bad =
        server.submit(FunctionType::DeltaFD, reqs.data(), 4, res.data());
    server.wait(bad);
    EXPECT_EQ(server.jobOutcome(bad), runtime::JobOutcome::Rejected);
    EXPECT_EQ(server.schedStats().rejected_jobs, 1u);

    // A valid sparse mask on the same batch completes normally.
    for (auto &r : reqs)
        r.seed_cols = {0, 2};
    const int ok =
        server.submit(FunctionType::DeltaFD, reqs.data(), 4, res.data());
    server.wait(ok);
    EXPECT_EQ(server.jobOutcome(ok), runtime::JobOutcome::Completed);
    EXPECT_EQ(server.schedStats().rejected_jobs, 1u);
}

// ---------------------------------------------------------------------
// DynamicsServer
// ---------------------------------------------------------------------

/** Deterministic test backend: fixed cost per batch, echoes q̇ as q̈. */
class FixedCostBackend : public runtime::DynamicsBackend
{
  public:
    FixedCostBackend(const RobotModel &robot, double batch_us)
        : robot_(robot), batch_us_(batch_us)
    {}

    const char *name() const override { return "fixed-cost"; }
    const RobotModel &robot() const override { return robot_; }
    bool offloaded() const override { return true; }

    runtime::SubmitStatus
    submit(FunctionType, const DynamicsRequest *requests,
           std::size_t count, DynamicsResult *results,
           BatchStats *stats) override
    {
        for (std::size_t i = 0; i < count; ++i)
            results[i].qdd = requests[i].qd;
        ++batches_;
        if (stats) {
            *stats = BatchStats{};
            stats->total_us = batch_us_;
        }
        return runtime::SubmitStatus::Ok;
    }

    int batches() const { return batches_; }

  private:
    const RobotModel &robot_;
    double batch_us_;
    int batches_ = 0;
};

TEST(DynamicsServer, FifoMultiClientAccounting)
{
    const RobotModel robot = model::makeHyq();
    FixedCostBackend backend(robot, 10.0);
    runtime::DynamicsServer server(backend);

    // Two clients enqueue before anything runs.
    auto reqs_a = randomRequests(robot, 4, 1);
    auto reqs_b = randomRequests(robot, 7, 2);
    std::vector<DynamicsResult> res_a(4), res_b(7);
    const int a = server.submit(FunctionType::FD, reqs_a.data(), 4,
                                res_a.data());
    const int b = server.submit(FunctionType::FD, reqs_b.data(), 7,
                                res_b.data());
    EXPECT_EQ(server.pending(), 2u);
    EXPECT_EQ(backend.batches(), 0);

    runtime::ServerStats stats;
    const double busy = server.drain(&stats);
    EXPECT_EQ(server.pending(), 0u);
    EXPECT_EQ(backend.batches(), 2);
    EXPECT_DOUBLE_EQ(busy, 20.0);
    EXPECT_DOUBLE_EQ(server.jobUs(a), 10.0);
    EXPECT_DOUBLE_EQ(server.jobUs(b), 10.0);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.tasks, 11u);

    // Both clients' results were written.
    for (int i = 0; i < 4; ++i)
        expectBitwiseEqual(res_a[i].qdd, reqs_a[i].qd);
    for (int i = 0; i < 7; ++i)
        expectBitwiseEqual(res_b[i].qdd, reqs_b[i].qd);
}

TEST(DynamicsServer, SyncWaitServesInlineWithoutConsumingTheInterval)
{
    // wait() on a never-start()ed server serves inline but must not
    // behave like drain(): the accounting interval and the job
    // records survive until the caller drains explicitly, exactly as
    // in async mode.
    const RobotModel robot = model::makeHyq();
    FixedCostBackend backend(robot, 4.0);
    runtime::DynamicsServer server(backend);

    auto reqs = randomRequests(robot, 3, 71);
    std::vector<DynamicsResult> res(3);
    const int j1 =
        server.submit(FunctionType::FD, reqs.data(), 3, res.data());
    server.wait(j1);
    EXPECT_TRUE(server.jobDone(j1));
    const int j2 =
        server.submit(FunctionType::FD, reqs.data(), 3, res.data());
    server.wait(j2);

    // Both job records still readable, and one drain reports the
    // whole interval.
    EXPECT_DOUBLE_EQ(server.jobUs(j1), 4.0);
    EXPECT_DOUBLE_EQ(server.jobUs(j2), 4.0);
    runtime::ServerStats stats;
    EXPECT_DOUBLE_EQ(server.drain(&stats), 8.0);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.tasks, 6u);
}

// ---------------------------------------------------------------------
// Sharded serving
// ---------------------------------------------------------------------

/**
 * Modeled-cost backend: batch makespan = base + count * per_task, in
 * backend (virtual) time — the deterministic stand-in for "one more
 * accelerator instance" that makes sharding arithmetic exact.
 */
class LinearCostBackend : public runtime::DynamicsBackend
{
  public:
    LinearCostBackend(const RobotModel &robot, double base_us,
                      double per_task_us)
        : robot_(robot), base_us_(base_us), per_task_us_(per_task_us)
    {}

    const char *name() const override { return "linear-cost"; }
    const RobotModel &robot() const override { return robot_; }
    bool offloaded() const override { return true; }

    std::unique_ptr<runtime::DynamicsBackend> clone() const override
    {
        return std::make_unique<LinearCostBackend>(robot_, base_us_,
                                                   per_task_us_);
    }

    runtime::SubmitStatus
    submit(FunctionType, const DynamicsRequest *requests,
           std::size_t count, DynamicsResult *results,
           BatchStats *stats) override
    {
        for (std::size_t i = 0; i < count; ++i)
            results[i].qdd = requests[i].qd;
        ++batches_;
        tasks_ += count;
        if (stats) {
            *stats = BatchStats{};
            stats->total_us = base_us_ + count * per_task_us_;
        }
        return runtime::SubmitStatus::Ok;
    }

    int batches() const { return batches_; }
    std::size_t tasks() const { return tasks_; }

  private:
    const RobotModel &robot_;
    double base_us_, per_task_us_;
    int batches_ = 0;
    std::size_t tasks_ = 0;
};

TEST(DynamicsServer, ShardedBatchSplitsResultsAndMergesStats)
{
    const RobotModel robot = model::makeHyq();
    LinearCostBackend b0(robot, 5.0, 1.0);
    auto b1 = b0.clone();
    runtime::DynamicsServer server(b0);
    server.addBackend(*b1);

    const int n = 24;
    auto reqs = randomRequests(robot, n, 17);
    std::vector<DynamicsResult> res(n);
    const int job =
        server.submitSharded(FunctionType::FD, reqs.data(), n, res.data());
    runtime::ServerStats stats;
    server.drain(&stats);

    // Every request was answered exactly once, in order.
    for (int i = 0; i < n; ++i)
        expectBitwiseEqual(res[i].qdd, reqs[i].qd);
    // Even split across idle lanes: 12 + 12 tasks, two batches.
    EXPECT_EQ(b0.tasks() + static_cast<LinearCostBackend &>(*b1).tasks(),
              static_cast<std::size_t>(n));
    EXPECT_EQ(b0.batches(), 1);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.tasks, static_cast<std::size_t>(n));
    // Concurrent shards: job makespan = slowest shard (12 tasks),
    // lane busy = both shards summed, server makespan = max lane.
    EXPECT_DOUBLE_EQ(server.jobUs(job), 5.0 + 12.0);
    EXPECT_DOUBLE_EQ(stats.busy_us, 2 * (5.0 + 12.0));
    EXPECT_DOUBLE_EQ(stats.makespan_us, 5.0 + 12.0);
    EXPECT_DOUBLE_EQ(server.jobStats(job).total_us, 5.0 + 12.0);
}

TEST(DynamicsServer, ShardedThroughputScalesWithBackendCount)
{
    // The acceptance arithmetic of the serving layer, pinned on the
    // deterministic modeled backend: a pipeline-shaped cost
    // (latency base + per-task interval) sharded 2 and 4 ways must
    // scale throughput by >= 1.7x and >= 3x.
    const RobotModel robot = model::makeHyq();
    const int n = 192;
    auto reqs = randomRequests(robot, n, 23);

    double makespan[3] = {0, 0, 0};
    const int shard_counts[3] = {1, 2, 4};
    for (int s = 0; s < 3; ++s) {
        LinearCostBackend base(robot, 6.0, 0.5);
        std::vector<std::unique_ptr<runtime::DynamicsBackend>> owned;
        runtime::DynamicsServer server(base);
        for (int k = 1; k < shard_counts[s]; ++k) {
            owned.push_back(base.clone());
            server.addBackend(*owned.back());
        }
        std::vector<DynamicsResult> res(n);
        server.submitSharded(FunctionType::FD, reqs.data(), n,
                             res.data());
        runtime::ServerStats stats;
        server.drain(&stats);
        makespan[s] = stats.makespan_us;
    }
    EXPECT_GE(makespan[0] / makespan[1], 1.7);
    EXPECT_GE(makespan[0] / makespan[2], 3.0);
}

TEST(DynamicsServer, LeastLoadedShardingFillsTheLighterLane)
{
    const RobotModel robot = model::makeHyq();
    LinearCostBackend b0(robot, 0.0, 1.0);
    auto b1_owned = b0.clone();
    auto &b1 = static_cast<LinearCostBackend &>(*b1_owned);
    runtime::DynamicsServer server(b0);
    server.addBackend(b1);

    // Pre-load lane 0 with 20 queued tasks, then shard 30: water-
    // filling should give the idle lane 25 and lane 0 only 5.
    auto pre = randomRequests(robot, 20, 3);
    std::vector<DynamicsResult> pre_res(20);
    server.submit(FunctionType::FD, pre.data(), 20, pre_res.data(), 0);

    auto reqs = randomRequests(robot, 30, 4);
    std::vector<DynamicsResult> res(30);
    server.submitSharded(FunctionType::FD, reqs.data(), 30, res.data());
    server.drain();

    EXPECT_EQ(b0.tasks(), 25u); // 20 pre-load + 5 shard
    EXPECT_EQ(b1.tasks(), 25u);
    for (int i = 0; i < 30; ++i)
        expectBitwiseEqual(res[i].qdd, reqs[i].qd);
}

TEST(DynamicsServer, LeastLoadedWeighsLanesByFunctionII)
{
    // ROADMAP "load metric refinement": lane load is FD-equivalent
    // work (sched::functionWeight, ∆FD = 1.5x FD), not raw task
    // counts. Lane 0 holds 10 ∆FD tasks (weight 15), lane 1 holds 12
    // FD tasks (weight 12): a raw count would call lane 0 lighter,
    // the II-weighted metric must send the next flat job to lane 1.
    const RobotModel robot = model::makeHyq();
    LinearCostBackend b0(robot, 0.0, 1.0);
    auto b1_owned = b0.clone();
    auto &b1 = static_cast<LinearCostBackend &>(*b1_owned);
    runtime::DynamicsServer server(b0);
    server.addBackend(b1);

    auto dfd = randomRequests(robot, 10, 51);
    auto fd = randomRequests(robot, 12, 52);
    std::vector<DynamicsResult> dfd_res(10), fd_res(12);
    server.submit(FunctionType::DeltaFD, dfd.data(), 10, dfd_res.data(),
                  0);
    server.submit(FunctionType::FD, fd.data(), 12, fd_res.data(), 1);
    EXPECT_DOUBLE_EQ(server.laneLoadWeight(0), 15.0);
    EXPECT_DOUBLE_EQ(server.laneLoadWeight(1), 12.0);

    auto next = randomRequests(robot, 4, 53);
    std::vector<DynamicsResult> next_res(4);
    server.submit(FunctionType::FD, next.data(), 4, next_res.data(),
                  runtime::DynamicsServer::kLeastLoaded);
    server.drain();
    EXPECT_EQ(b0.tasks(), 10u);
    EXPECT_EQ(b1.tasks(), 12u + 4u);
}

TEST(DynamicsServer, ShardedWaterFillingUsesWeightedLoads)
{
    // The sharded analogue: lane 0 pre-loaded with 10 ∆FD tasks owes
    // 15 FD-equivalents = 15 FD tasks; water-filling 25 FD tasks must
    // level both lanes at 20 — shares 5 and 20, tighter than the 7/18
    // a raw task-stage count would produce.
    const RobotModel robot = model::makeHyq();
    LinearCostBackend b0(robot, 0.0, 1.0);
    auto b1_owned = b0.clone();
    auto &b1 = static_cast<LinearCostBackend &>(*b1_owned);
    runtime::DynamicsServer server(b0);
    server.addBackend(b1);

    auto pre = randomRequests(robot, 10, 54);
    std::vector<DynamicsResult> pre_res(10);
    server.submit(FunctionType::DeltaFD, pre.data(), 10, pre_res.data(),
                  0);

    auto reqs = randomRequests(robot, 25, 55);
    std::vector<DynamicsResult> res(25);
    server.submitSharded(FunctionType::FD, reqs.data(), 25, res.data());
    server.drain();

    EXPECT_EQ(b0.tasks(), 10u + 5u);
    EXPECT_EQ(b1.tasks(), 20u);
    for (int i = 0; i < 25; ++i)
        expectBitwiseEqual(res[i].qdd, reqs[i].qd);
}

TEST(DynamicsServer, ShardedExecutionMatchesShardedScheduleModel)
{
    // The sharded analogue of the Fig. 13 validation: a flat batch
    // split over two cloned cycle-accurate accelerator instances
    // lands near the closed-form scheduleShardedUs model.
    const RobotModel robot = model::makeIiwa();
    accel::Accelerator accel(robot);
    runtime::AcceleratorBackend backend(accel);
    auto clone = backend.clone();
    runtime::DynamicsServer server(backend);
    server.addBackend(*clone);

    const int points = 96;
    auto reqs = randomRequests(robot, points, 13);
    std::vector<DynamicsResult> res(points);
    const int job = server.submitSharded(FunctionType::DeltaFD,
                                         reqs.data(), points, res.data());
    server.drain();

    const auto est = accel.analytic(FunctionType::DeltaFD);
    const double model_us = app::scheduleShardedUs(
        points, 1, 2, est.ii_cycles, est.latency_cycles,
        accel.config().freq_mhz);
    const double executed_us = server.jobUs(job);
    EXPECT_GT(executed_us, 0.0);
    EXPECT_NEAR(executed_us / model_us, 1.0, 0.25)
        << "executed " << executed_us << " us vs model " << model_us;

    // And the numerics are the same tasks, shard boundaries or not.
    std::vector<DynamicsResult> direct(points);
    accel.run(FunctionType::DeltaFD, reqs.data(), points, direct.data());
    for (int i = 0; i < points; ++i)
        expectBitwiseEqual(res[i].qdd, direct[i].qdd);
}

// ---------------------------------------------------------------------
// Concurrent serving stress
// ---------------------------------------------------------------------

TEST(DynamicsServer, ConcurrentClientsMatchSynchronousBitwise)
{
    // M client threads x K backend lanes, sharded + least-loaded flat
    // jobs mixed: results must be bitwise-identical to the same jobs
    // served synchronously, and the job/task accounting must sum.
    const RobotModel robot = model::makeIiwa();
    accel::Accelerator accel(robot);
    runtime::AnalyticBackend base(accel);

    constexpr int kClients = 4, kRounds = 3, kPoints = 6;

    struct ClientData
    {
        std::vector<DynamicsRequest> sharded_req, flat_req;
        std::vector<DynamicsResult> sharded_res, flat_res;
    };

    auto makeRequests = [&](int client) {
        return randomRequests(robot, kPoints, 100 + client);
    };

    // Reference: every client's jobs served synchronously on a fresh
    // single-lane server.
    std::vector<ClientData> ref(kClients);
    for (int c = 0; c < kClients; ++c) {
        runtime::AnalyticBackend backend(accel);
        runtime::DynamicsServer server(backend);
        ref[c].sharded_req = makeRequests(c);
        ref[c].flat_req = makeRequests(c);
        ref[c].sharded_res.resize(kPoints);
        ref[c].flat_res.resize(kPoints);
        server.submit(FunctionType::DeltaFD, ref[c].sharded_req.data(),
                      kPoints, ref[c].sharded_res.data());
        server.submit(FunctionType::FD, ref[c].flat_req.data(), kPoints,
                      ref[c].flat_res.data());
        server.drain();
    }

    // Async: 3 lanes over clones sharing the read-only accelerator
    // model, 4 client threads, 3 rounds each.
    auto lane1 = base.clone();
    auto lane2 = base.clone();
    runtime::DynamicsServer server(base);
    server.addBackend(*lane1);
    server.addBackend(*lane2);
    server.start();

    std::vector<ClientData> got(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRounds; ++r) {
                ClientData data;
                data.sharded_req = makeRequests(c);
                data.flat_req = makeRequests(c);
                data.sharded_res.resize(kPoints);
                data.flat_res.resize(kPoints);
                const int sharded = server.submitSharded(
                    FunctionType::DeltaFD, data.sharded_req.data(),
                    kPoints, data.sharded_res.data());
                const int flat = server.submit(
                    FunctionType::FD, data.flat_req.data(), kPoints,
                    data.flat_res.data(),
                    runtime::DynamicsServer::kLeastLoaded);
                server.wait(sharded);
                server.wait(flat);
                got[c] = std::move(data);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    server.stop();

    runtime::ServerStats stats;
    server.drain(&stats);
    EXPECT_EQ(stats.jobs,
              static_cast<std::size_t>(kClients * kRounds * 2));
    EXPECT_EQ(stats.tasks,
              static_cast<std::size_t>(kClients * kRounds * 2 * kPoints));
    EXPECT_GE(stats.busy_us, stats.makespan_us);

    for (int c = 0; c < kClients; ++c) {
        for (int p = 0; p < kPoints; ++p) {
            expectBitwiseEqual(got[c].sharded_res[p].qdd,
                               ref[c].sharded_res[p].qdd);
            expectBitwiseEqual(got[c].sharded_res[p].dqdd_dq,
                               ref[c].sharded_res[p].dqdd_dq);
            expectBitwiseEqual(got[c].flat_res[p].qdd,
                               ref[c].flat_res[p].qdd);
        }
    }
}

// ---------------------------------------------------------------------
// Shared host pool across CPU backend clones
// ---------------------------------------------------------------------

TEST(CpuBatchedBackend, ClonesShareOneHostPoolAndSubmitConcurrently)
{
    // ROADMAP item: CpuBatchedBackend clones used to spawn a
    // full-width thread pool each, oversubscribing the host when
    // sharding CPU lanes. Clones now share the original's pool
    // (per-clone workspaces); concurrent submits from two lanes
    // serialize on the pool's bulk gate and still produce the exact
    // reference results.
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend base(robot, 4);
    auto clone_owned = base.clone();
    auto &clone = static_cast<runtime::CpuBatchedBackend &>(*clone_owned);
    ASSERT_EQ(base.engine().pool().get(), clone.engine().pool().get());
    EXPECT_EQ(base.engine().threadCount(), clone.engine().threadCount());

    const auto reqs_a = randomRequests(robot, 16, 61);
    const auto reqs_b = randomRequests(robot, 16, 62);
    std::vector<DynamicsResult> res_a(16), res_b(16);
    constexpr int kReps = 8;
    std::thread ta([&] {
        for (int r = 0; r < kReps; ++r)
            base.submit(FunctionType::DeltaFD, reqs_a.data(), 16,
                        res_a.data());
    });
    std::thread tb([&] {
        for (int r = 0; r < kReps; ++r)
            clone.submit(FunctionType::DeltaFD, reqs_b.data(), 16,
                         res_b.data());
    });
    ta.join();
    tb.join();

    algo::DynamicsWorkspace ws(robot);
    algo::FdDerivatives fd;
    for (int i = 0; i < 16; ++i) {
        algo::fdDerivatives(robot, ws, reqs_a[i].q, reqs_a[i].qd,
                            reqs_a[i].qdd_or_tau, fd);
        expectBitwiseEqual(res_a[i].dqdd_dq, fd.dqdd_dq);
        algo::fdDerivatives(robot, ws, reqs_b[i].q, reqs_b[i].qd,
                            reqs_b[i].qdd_or_tau, fd);
        expectBitwiseEqual(res_b[i].dqdd_dq, fd.dqdd_dq);
    }
}

// ---------------------------------------------------------------------
// Allocation behavior
// ---------------------------------------------------------------------

TEST(CpuBatchedBackend, SteadyStateSubmissionIsAllocationFree)
{
    const RobotModel robot = model::makeHyq();
    runtime::CpuBatchedBackend backend(robot, 4);
    const auto reqs = randomRequests(robot, 24, 77);
    std::vector<DynamicsResult> results(24);
    BatchStats stats;

    // Warm up: sizes staging, engine outputs and result storage.
    backend.submit(FunctionType::DeltaFD, reqs.data(), 24, results.data(),
                   &stats);
    backend.submit(FunctionType::FD, reqs.data(), 24, results.data(),
                   &stats);
    backend.submit(FunctionType::Minv, reqs.data(), 24, results.data(),
                   &stats);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int rep = 0; rep < 3; ++rep) {
        backend.submit(FunctionType::DeltaFD, reqs.data(), 24,
                       results.data(), &stats);
        backend.submit(FunctionType::FD, reqs.data(), 24, results.data(),
                       &stats);
        backend.submit(FunctionType::Minv, reqs.data(), 24,
                       results.data(), &stats);
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state CPU-backend submission allocated";
}

// ---------------------------------------------------------------------
// MPC through the runtime
// ---------------------------------------------------------------------

TEST(MpcRuntime, AllBackendsProduceSameRolloutResults)
{
    // A host-driven rollout really executes on every backend: 3 flat
    // FD submits, each step setting q̇ <- 2 q̈ from the previous
    // results. The final-step FD results agree across CPU, simulator
    // and analytic backends (approximately — the simulator's
    // functional core models the fixed-point hardware datapath).
    const auto robot = model::makeIiwa();
    accel::Accelerator accel(robot);
    runtime::CpuBatchedBackend cpu(robot, 2);
    runtime::AcceleratorBackend sim(accel);
    runtime::AnalyticBackend analytic(accel);

    const int points = 4, steps = 3;
    std::vector<std::vector<DynamicsResult>> finals;
    for (runtime::DynamicsBackend *backend :
         std::initializer_list<runtime::DynamicsBackend *>{&cpu, &sim,
                                                           &analytic}) {
        auto reqs = randomRequests(robot, points, 31);
        std::vector<DynamicsResult> res(points);
        runtime::DynamicsServer server(*backend);
        for (int step = 0; step < steps; ++step) {
            if (step > 0) {
                for (int p = 0; p < points; ++p) {
                    reqs[p].qd = res[p].qdd;
                    for (std::size_t j = 0; j < reqs[p].qd.size(); ++j)
                        reqs[p].qd[j] *= 2.0;
                }
            }
            const int job = server.submit(FunctionType::FD, reqs.data(),
                                          points, res.data());
            server.wait(job);
            EXPECT_EQ(server.jobOutcome(job),
                      runtime::JobOutcome::Completed);
        }
        server.drain();
        finals.push_back(res);
    }
    for (int p = 0; p < points; ++p) {
        ASSERT_EQ(finals[0][p].qdd.size(), finals[1][p].qdd.size());
        for (std::size_t j = 0; j < finals[0][p].qdd.size(); ++j) {
            EXPECT_NEAR(finals[1][p].qdd[j], finals[0][p].qdd[j],
                        2e-2 * std::max(1.0,
                                        std::abs(finals[0][p].qdd[j])));
            EXPECT_EQ(finals[2][p].qdd[j], finals[0][p].qdd[j]);
        }
    }
}

} // namespace
