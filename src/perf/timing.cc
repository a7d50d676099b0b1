#include "perf/timing.h"

#include <random>
#include <vector>

#include "algorithms/aba.h"
#include "algorithms/crba.h"
#include "algorithms/dynamics.h"
#include "algorithms/mminv_gen.h"
#include "algorithms/rnea.h"
#include "algorithms/rnea_derivatives.h"

namespace dadu::perf {

using linalg::VectorX;

double
timeUs(const std::function<void()> &fn, int reps)
{
    fn(); // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    const auto end = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    return ns / reps / 1000.0;
}

double
hostLatencyUs(const RobotModel &robot, FunctionType fn, int tasks,
              int reps)
{
    std::mt19937 rng(99);
    std::vector<VectorX> qs, qds, us;
    for (int i = 0; i < tasks; ++i) {
        qs.push_back(robot.randomConfiguration(rng));
        qds.push_back(robot.randomVelocity(rng));
        us.push_back(robot.randomVelocity(rng));
    }
    volatile double sink = 0.0;
    auto loop = [&](auto &&body) {
        return timeUs(
                   [&] {
                       for (int i = 0; i < tasks; ++i)
                           body(i);
                   },
                   reps) /
               tasks;
    };
    switch (fn) {
      case FunctionType::ID:
        return loop([&](int i) {
            sink = algo::rnea(robot, qs[i], qds[i], us[i]).tau[0];
        });
      case FunctionType::FD:
        return loop([&](int i) {
            sink = algo::aba(robot, qs[i], qds[i], us[i])[0];
        });
      case FunctionType::M:
        return loop([&](int i) {
            sink = algo::crba(robot, qs[i])(0, 0);
        });
      case FunctionType::Minv:
        return loop([&](int i) {
            sink = algo::massMatrixInverse(robot, qs[i])(0, 0);
        });
      case FunctionType::DeltaID:
        return loop([&](int i) {
            sink = algo::rneaDerivatives(robot, qs[i], qds[i], us[i])
                       .dtau_dq(0, 0);
        });
      case FunctionType::DeltaFD:
        return loop([&](int i) {
            sink = algo::fdDerivatives(robot, qs[i], qds[i], us[i])
                       .dqdd_dq(0, 0);
        });
      case FunctionType::DeltaiFD: {
        // Precompute q̈ and M⁻¹ outside the timed region.
        std::vector<algo::FdDerivatives> pre;
        for (int i = 0; i < tasks; ++i)
            pre.push_back(
                algo::fdDerivatives(robot, qs[i], qds[i], us[i]));
        return loop([&](int i) {
            sink = algo::fdDerivativesGivenAccel(robot, qs[i], qds[i],
                                                 pre[i].qdd,
                                                 pre[i].minv)
                       .dqdd_dq(0, 0);
        });
      }
    }
    (void)sink;
    return 0.0;
}

} // namespace dadu::perf
