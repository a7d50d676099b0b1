/**
 * @file
 * Tests for the performance/resource/power models and the baseline
 * platform models.
 */

#include <gtest/gtest.h>

#include "accel/accelerator.h"
#include "model/builders.h"
#include "perf/baselines.h"
#include "perf/power_model.h"
#include "perf/resource_model.h"
#include "perf/timing.h"

namespace {

using namespace dadu::perf;
using dadu::accel::Accelerator;
using dadu::accel::FunctionType;
using dadu::model::makeIiwa;

TEST(Baselines, RobomorphicOnlyImplementsDerivatives)
{
    // Robomorphic supports a single function (Section I).
    EXPECT_GT(paperThroughputMtasks(Platform::Robomorphic,
                                    EvalRobot::Iiwa,
                                    FunctionType::DeltaiFD),
              0.0);
    EXPECT_EQ(paperThroughputMtasks(Platform::Robomorphic,
                                    EvalRobot::Iiwa, FunctionType::ID),
              0.0);
}

TEST(Baselines, GridHasNoMassMatrix)
{
    // Fig. 15: "GRiD does not realize the calculation of the mass
    // matrix".
    EXPECT_EQ(paperThroughputMtasks(Platform::AgxGpu, EvalRobot::Hyq,
                                    FunctionType::M),
              0.0);
    EXPECT_EQ(paperThroughputMtasks(Platform::Rtx4090m, EvalRobot::Hyq,
                                    FunctionType::M),
              0.0);
}

TEST(Baselines, RobomorphicIiwaLatencyAnchor)
{
    // Section VI-A: 0.61 µs for iiwa ∆iFD.
    EXPECT_NEAR(paperLatencyUs(Platform::Robomorphic, EvalRobot::Iiwa,
                               FunctionType::DeltaiFD),
                0.61, 1e-9);
}

TEST(Baselines, AtlasSlowerThanIiwaEverywhere)
{
    for (auto p : {Platform::AgxCpu, Platform::I9Cpu}) {
        for (auto fn : {FunctionType::ID, FunctionType::FD,
                        FunctionType::DeltaFD}) {
            EXPECT_GT(paperLatencyUs(p, EvalRobot::Atlas, fn),
                      paperLatencyUs(p, EvalRobot::Iiwa, fn));
        }
    }
}

TEST(Baselines, BatchedTimeFlatThenLinear)
{
    // The Fig. 17 shape: latency-bound at small batches, linear at
    // large ones.
    const double t16 = batchedTimeUs(Platform::Rtx4090m,
                                     EvalRobot::Iiwa,
                                     FunctionType::DeltaFD, 16);
    const double t64 = batchedTimeUs(Platform::Rtx4090m,
                                     EvalRobot::Iiwa,
                                     FunctionType::DeltaFD, 64);
    const double t4096 = batchedTimeUs(Platform::Rtx4090m,
                                       EvalRobot::Iiwa,
                                       FunctionType::DeltaFD, 4096);
    const double t8192 = batchedTimeUs(Platform::Rtx4090m,
                                       EvalRobot::Iiwa,
                                       FunctionType::DeltaFD, 8192);
    EXPECT_NEAR(t16, t64, t64);        // near-flat early
    EXPECT_NEAR(t8192 / t4096, 2.0, 0.2); // linear late
}

TEST(Baselines, GpuBeatsAcceleratorOnlyAtLargeBatch)
{
    // Fig. 17: "RTX 4090M will outperform our implementation when
    // batch size is more than 512."
    const dadu::model::RobotModel robot = makeIiwa();
    Accelerator accel(robot);
    const auto est = accel.analytic(FunctionType::DeltaFD);
    const double freq = accel.config().freq_mhz * 1e6;

    auto dadu_time = [&](int batch) {
        return (batch * est.ii_cycles + est.latency_cycles) / freq * 1e6;
    };
    auto gpu_time = [&](int batch) {
        return batchedTimeUs(Platform::Rtx4090m, EvalRobot::Iiwa,
                             FunctionType::DeltaFD, batch);
    };
    EXPECT_LT(dadu_time(64), gpu_time(64));
    EXPECT_GT(dadu_time(8192), gpu_time(8192));
}

TEST(Power, WithinPaperRange)
{
    const dadu::model::RobotModel robot = makeIiwa();
    Accelerator accel(robot);
    // Section VI-C: 6.2 W to 36.8 W across functions for iiwa.
    double lo = 1e9, hi = 0.0;
    for (auto fn : {FunctionType::ID, FunctionType::FD, FunctionType::M,
                    FunctionType::Minv, FunctionType::DeltaID,
                    FunctionType::DeltaFD, FunctionType::DeltaiFD}) {
        const double w = accelPower(accel, fn).total();
        lo = std::min(lo, w);
        hi = std::max(hi, w);
    }
    EXPECT_GT(lo, 3.0);
    EXPECT_LT(lo, 12.0);
    EXPECT_GT(hi, 25.0);
    EXPECT_LT(hi, 45.0);
}

TEST(Power, DeltaIfdEnergyBeatsRobomorphic)
{
    // Section VI-C: Robomorphic's energy per task is ~2x Dadu-RBD's.
    const dadu::model::RobotModel robot = makeIiwa();
    Accelerator accel(robot);
    const double dadu_energy =
        accelEnergyPerTaskUj(accel, FunctionType::DeltaiFD);
    const double robo_power = platformPowerW(Platform::Robomorphic);
    const double robo_task_us =
        1.0 / paperThroughputMtasks(Platform::Robomorphic,
                                    EvalRobot::Iiwa,
                                    FunctionType::DeltaiFD);
    const double robo_energy = robo_power * robo_task_us;
    EXPECT_GT(robo_energy / dadu_energy, 1.2);
    EXPECT_LT(robo_energy / dadu_energy, 4.0);
}

TEST(Resources, RobomorphicUsesHalfTheDsp)
{
    EXPECT_NEAR(robomorphicResources().dsp_pct, 50.0, 1e-9);
    EXPECT_FALSE(formatResources(robomorphicResources()).empty());
}

TEST(Timing, HostLatencyIsPositiveAndOrdered)
{
    const dadu::model::RobotModel robot = makeIiwa();
    const double id = hostLatencyUs(robot, FunctionType::ID, 8, 3);
    const double dfd = hostLatencyUs(robot, FunctionType::DeltaFD, 8, 3);
    EXPECT_GT(id, 0.0);
    EXPECT_GT(dfd, id); // derivatives cost more than plain ID
}

} // namespace
