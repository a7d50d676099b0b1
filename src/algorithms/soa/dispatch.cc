/**
 * @file
 * The pack* entry points and the run-time choice between the lane
 * kernels' builds (soa/kernels.cc). Compiled once, for the default
 * target: nothing here may run an instruction the host lacks.
 */

#include "algorithms/soa/kernels.h"

#include <cstdlib>

namespace dadu::algo::soa {

bool
laneWidthSupported(int w)
{
    return w == 4 || w == 8 || w == 16;
}

int
defaultLaneWidth()
{
    if (const char *env = std::getenv("DADU_LANE_WIDTH")) {
        const int w = std::atoi(env);
        if (w == 1 || laneWidthSupported(w))
            return w;
    }
    return 8;
}

const KernelSet *
v4Kernels(const char **why)
{
#ifdef DADU_SOA_HAVE_V4
    static const bool host_ok = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("x86-64-v4") != 0;
    }();
    if (host_ok)
        return &v4::kernels();
    if (why)
        *why = "this CPU does not support x86-64-v4 (AVX-512)";
#else
    if (why)
        *why = "the compiler did not build the x86-64-v4 kernels";
#endif
    return nullptr;
}

const KernelSet &
activeKernels()
{
    static const KernelSet &active =
        v4Kernels() ? *v4Kernels() : base::kernels();
    return active;
}

void
packForwardDynamics(const RobotModel &robot, DynamicsWorkspace &ws,
                    int width, const LaneBatch &in, const LaneResults &out)
{
    activeKernels().forwardDynamics(robot, ws, width, in, out, nullptr);
}

void
packFdDerivatives(const RobotModel &robot, DynamicsWorkspace &ws, int width,
                  const LaneBatch &in, const LaneResults &out,
                  const ColumnPlan *plan)
{
    activeKernels().fdDerivatives(robot, ws, width, in, out, plan);
}

void
packFdGivenAccel(const RobotModel &robot, DynamicsWorkspace &ws, int width,
                 const LaneBatch &in, const LaneResults &out,
                 const ColumnPlan *plan)
{
    activeKernels().fdGivenAccel(robot, ws, width, in, out, plan);
}

void
packMinv(const RobotModel &robot, DynamicsWorkspace &ws, int width,
         const LaneBatch &in, const LaneResults &out)
{
    activeKernels().minv(robot, ws, width, in, out, nullptr);
}

void
packAba(const RobotModel &robot, DynamicsWorkspace &ws, int width,
        const LaneBatch &in, const LaneResults &out)
{
    activeKernels().aba(robot, ws, width, in, out, nullptr);
}

void
packRnea(const RobotModel &robot, DynamicsWorkspace &ws, int width,
         const LaneBatch &in, const LaneResults &out)
{
    activeKernels().rnea(robot, ws, width, in, out, nullptr);
}

void
packCrba(const RobotModel &robot, DynamicsWorkspace &ws, int width,
         const LaneBatch &in, const LaneResults &out)
{
    activeKernels().crba(robot, ws, width, in, out, nullptr);
}

void
packRneaDerivatives(const RobotModel &robot, DynamicsWorkspace &ws,
                    int width, const LaneBatch &in, const LaneResults &out,
                    const ColumnPlan *plan)
{
    activeKernels().rneaDerivatives(robot, ws, width, in, out, plan);
}

} // namespace dadu::algo::soa
