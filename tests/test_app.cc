/**
 * @file
 * Tests for the thread pool and the Fig. 13 scheduler models (the
 * closed-loop MPC drivers are tested in test_ctrl).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "app/scheduler.h"
#include "app/thread_pool.h"

namespace {

using namespace dadu::app;

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.waitAll();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitAllIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.waitAll();
    pool.submit([&count] { ++count; });
    pool.waitAll();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, RunIndexedCoversEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h.store(0);
    pool.runIndexed(
        [](void *ctx, int i) {
            ++(*static_cast<std::vector<std::atomic<int>> *>(ctx))[i];
        },
        &hits, 257);
    for (int i = 0; i < 257; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ConcurrentRunIndexedCallersDoNotInterfere)
{
    // Regression: runIndexed's bulk_* dispatch state was shared and
    // unguarded across callers, so two concurrent bulk dispatches
    // clobbered each other's task/ctx/count and silently corrupted
    // the index space. Dispatches are now serialized on an internal
    // gate: each caller must see every one of ITS indices exactly
    // once, run with ITS context.
    ThreadPool pool(3);
    constexpr int kCallers = 4, kCount = 512, kReps = 8;
    struct Caller
    {
        std::vector<std::atomic<int>> hits =
            std::vector<std::atomic<int>>(kCount);
    };
    std::vector<Caller> callers(kCallers);
    std::vector<std::thread> threads;
    for (int c = 0; c < kCallers; ++c) {
        threads.emplace_back([&pool, &callers, c] {
            for (int rep = 0; rep < kReps; ++rep) {
                for (auto &h : callers[c].hits)
                    h.store(0);
                pool.runIndexed(
                    [](void *ctx, int i) {
                        ++(*static_cast<Caller *>(ctx)).hits[i];
                    },
                    &callers[c], kCount);
                for (int i = 0; i < kCount; ++i)
                    ASSERT_EQ(callers[c].hits[i].load(), 1)
                        << "caller " << c << " rep " << rep
                        << " index " << i;
            }
        });
    }
    for (auto &t : threads)
        t.join();
}

TEST(Scheduler, ShardedMakespanHalvesAndReducesToSerial)
{
    // shards = 1 is exactly the serial-stage model; sharding divides
    // the streamed portion but pays the per-stage latency in full.
    const double serial =
        scheduleSerialStagesUs(100, 4, 24.0, 120.0, 125.0);
    EXPECT_NEAR(scheduleShardedUs(100, 4, 1, 24.0, 120.0, 125.0),
                serial, 1e-12);
    const double two = scheduleShardedUs(100, 4, 2, 24.0, 120.0, 125.0);
    EXPECT_NEAR(two,
                scheduleSerialStagesUs(50, 4, 24.0, 120.0, 125.0),
                1e-12);
    EXPECT_LT(two, serial);
    EXPECT_GT(2.0 * two, serial); // latency share does not shard away
}

TEST(Scheduler, PipelineBeatsCpuOnParallelStages)
{
    // 100 points x 4 serial stages: the pipeline pays latency per
    // stage boundary, the CPU pays the full task time per stage.
    const double accel_us =
        scheduleSerialStagesUs(100, 4, 24.0, 120.0, 125.0);
    const double cpu_us = scheduleCpuUs(100, 4, 8.0, 4);
    EXPECT_LT(accel_us, cpu_us);
}

TEST(Scheduler, SerialStagesScaleLinearly)
{
    const double two = scheduleSerialStagesUs(100, 2, 24.0, 120.0, 125.0);
    const double four = scheduleSerialStagesUs(100, 4, 24.0, 120.0, 125.0);
    EXPECT_NEAR(four / two, 2.0, 1e-9);
}

TEST(Scheduler, CpuRoundsUpToThreadGranularity)
{
    EXPECT_DOUBLE_EQ(scheduleCpuUs(5, 1, 10.0, 4), 20.0);
    EXPECT_DOUBLE_EQ(scheduleCpuUs(4, 1, 10.0, 4), 10.0);
}

} // namespace
