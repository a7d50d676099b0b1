/**
 * @file
 * Measured host-CPU timing utilities.
 *
 * The paper measures Pinocchio with -O3 on real CPUs; here the
 * equivalent is our reference library measured on the build host.
 * These helpers time a callable the way the paper's methodology
 * does: N warm repetitions, wall-clock average per call.
 */

#ifndef DADU_PERF_TIMING_H
#define DADU_PERF_TIMING_H

#include <chrono>
#include <functional>

#include "accel/function.h"
#include "model/robot_model.h"

namespace dadu::perf {

using accel::FunctionType;
using model::RobotModel;

/**
 * Monotonic wall clock in microseconds — the one timing source for
 * every measured path (CPU-backend batch stats, closed-loop tick
 * streams, bench harness rounds).
 */
inline double
nowUs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() /
           1000.0;
}

/** Average wall-clock microseconds per call of @p fn over @p reps. */
double timeUs(const std::function<void()> &fn, int reps);

/**
 * Measured single-thread latency of the reference library for one
 * dynamics function on the host CPU (the paper's "latency" protocol:
 * many different tasks, single thread, averaged).
 */
double hostLatencyUs(const RobotModel &robot, FunctionType fn,
                     int tasks = 32, int reps = 20);

} // namespace dadu::perf

#endif // DADU_PERF_TIMING_H
